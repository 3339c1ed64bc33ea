"""Acceptance gate: every criterion of ``pnbm.acceptance`` at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``pnbm selftest``) to
get one pass/fail line per criterion. Each registry entry becomes one test
named ``test_<criterion id>``; the wall-clock gates live here, not in the
registry, so that ``pnbm selftest`` output stays reproducible.
"""

import dataclasses
import math

import numpy as np
import pytest

import pnbm.acceptance
import pnbm.measurement
import pnbm.teleport
from pnbm.acceptance import CRITERIA, run_criterion
from pnbm.cli import main
from pnbm.qsim import HADAMARD, ID2, PAULI_X, PAULI_Y

SEED = 20260810
MC_SAMPLES = 100_000
WALL_CLOCK_BOUNDS_S = {
    "criterion_01_symmetric_point_fidelities": 1.0,
    "criterion_02_cloning_saturation_on_grid": 5.0,
    "criterion_09_monte_carlo_oracle": 60.0,
}
assert set(WALL_CLOCK_BOUNDS_S) <= {c.id for c in CRITERIA}, "a wall-clock gate names no criterion"


def _acceptance_test(criterion):
    def test():
        ok, line, elapsed = run_criterion(criterion, SEED, MC_SAMPLES)
        print(f"{line}, {elapsed:.2f}s")
        assert ok, line
        assert elapsed < WALL_CLOCK_BOUNDS_S.get(criterion.id, math.inf), f"{line}, {elapsed:.2f}s"

    test.__name__ = test.__qualname__ = f"test_{criterion.id}"
    return test


for _criterion in CRITERIA:
    globals()[f"test_{_criterion.id}"] = _acceptance_test(_criterion)


@pytest.mark.parametrize("criterion_id, step, skew", [
    ("criterion_02_cloning_saturation_on_grid", "run_pqt_batch", "fidelities"),
    ("criterion_02_cloning_saturation_on_grid", "run_pqt_batch", "outcomes"),
    ("criterion_05_uniform_outcome_statistics", "network_branches", "branches"),
    ("criterion_10_circuit_equivalences", "network_branches", "branches"),
])
def test_disagreement_with_scalar_replay_fails(monkeypatch, criterion_id, step, skew):
    """A batched step 1e-12 off the scalar path passes the criterion's own
    tolerance, and no gate reads the batch's outcomes, so only the replay of
    the first rows can catch either."""
    engine = getattr(pnbm.acceptance, step)

    def skewed(*args, **kwargs):
        out = engine(*args, **kwargs)
        if skew == "fidelities":
            return dataclasses.replace(out, fidelities=out.fidelities * (1 + 1e-12))
        if skew == "outcomes":
            return dataclasses.replace(out, outcomes=(out.outcomes + 1) % 4)
        return out * (1 + 1e-12)

    monkeypatch.setattr(pnbm.acceptance, step, skewed)
    criterion = next(c for c in CRITERIA if c.id == criterion_id)
    ok, line, _ = run_criterion(criterion, SEED, MC_SAMPLES)
    assert not ok
    assert "scalar replay row 0 differs from the batch" in line


def _criterion(criterion_id):
    return next(c for c in CRITERIA if c.id == criterion_id)


def test_wrong_pauli_on_the_pair_qubit_fails_criterion_2(monkeypatch, capsys):
    """Readout 00 corrects qubit a with X instead of Y, in both engines.

    F_A and F_B do not depend on the correction on a, and the scalar replay
    runs the same wrong table, so only the closed-form F_a gate sees it.
    """
    corrections = pnbm.teleport._CORRECTIONS_AAB.copy()
    corrections[0] = np.kron(ID2, np.kron(PAULI_X, PAULI_Y))
    monkeypatch.setattr(pnbm.teleport, "_CORRECTIONS_AAB", corrections)
    monkeypatch.setitem(pnbm.measurement._CORRECTIONS, "00", (PAULI_X, PAULI_Y))
    ok, line, _ = run_criterion(_criterion("criterion_02_cloning_saturation_on_grid"), SEED, 0)
    assert not ok
    assert "closed-form vs simulated delta" in line and "cloning residual" not in line
    assert main(["selftest", "--mc-samples", "2000"]) == 1
    assert "FAIL  criterion 2:" in capsys.readouterr().out


@pytest.mark.parametrize("criterion_id, step, gate", [
    ("criterion_08_mean_fidelity_formulas", "design_mean_fidelities", "design delta"),
    ("criterion_11_cv_fidelities_and_oracle", "cv_fidelities", "simulated vs closed-form deviation"),
])
def test_criterion_applies_the_sweep_gates(monkeypatch, criterion_id, step, gate):
    """A simulated column 1e-9 off fails the criterion through the sweep's own gate."""
    engine = getattr(pnbm.acceptance, step)

    def skewed(*args, **kwargs):
        out = engine(*args, **kwargs)
        field = "f_est" if step == "design_mean_fidelities" else "f_b_sim"
        return dataclasses.replace(out, **{field: getattr(out, field) - 1e-9})

    monkeypatch.setattr(pnbm.acceptance, step, skewed)
    ok, line, _ = run_criterion(_criterion(criterion_id), SEED, MC_SAMPLES)
    assert not ok
    assert f"{gate} 1.000e-09 beyond" in line


def test_a_raising_criterion_is_a_fail_line_and_the_rest_still_run(monkeypatch, capsys):
    """A ValueError from an engine fails each criterion that calls it, by name."""

    def raising(*args, **kwargs):
        raise ValueError("engine broke")

    monkeypatch.setattr(pnbm.acceptance, "run_pqt", raising)
    assert main(["selftest", "--seed", "11", "--mc-samples", "4000"]) == 1
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 12
    failed = [l for l in lines if l.startswith("FAIL")]
    assert [l.split(":")[0] for l in failed] == [f"FAIL  criterion {n}" for n in (1, 2, 3, 4)]
    assert all(l.endswith("(error: engine broke)") for l in failed)


def test_bounds_and_criterion_12_apply_one_gate_list(monkeypatch, tmp_path, capsys):
    """A NaN margin fails both through the builder's gate, by its label."""
    monkeypatch.setattr(pnbm.acceptance, "bound_curve_checks", lambda pct: (0.0, math.nan))
    ok, line, _ = run_criterion(_criterion("criterion_12_bound_curves"), SEED, 0)
    assert not ok and "negated quantum-classical margin nan beyond" in line
    assert main(["bounds", "--points", "5", "--out", str(tmp_path / "bounds")]) == 1
    assert "negated quantum-classical margin nan beyond" in capsys.readouterr().err


def test_swapped_prep_wiring_fails_criterion_10_by_its_own_gate(monkeypatch):
    """Criterion 10 is the one check of the prep wiring; its line names the failed gate."""
    prepare = pnbm.acceptance.run_prep_circuit

    def wrong_state(params):  # one Hadamard too many on anc2
        return prepare(params) @ np.kron(ID2, HADAMARD).T

    monkeypatch.setattr(pnbm.acceptance, "run_prep_circuit", wrong_state)
    ok, line, _ = run_criterion(_criterion("criterion_10_circuit_equivalences"), SEED, 0)
    assert not ok
    detail = line.split("  (", 1)[1]
    assert detail.startswith("prep circuit overlap gap") and ";" not in detail
