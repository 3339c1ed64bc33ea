"""Command-line contract: schemas, determinism, exit codes, seed fallback."""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
import types

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnbm.acceptance
import pnbm.cli
from pnbm.acceptance import CRITERIA, _exceeds, _max_abs
from pnbm.analysis import (
    MAX_MC_SAMPLES,
    MIN_MC_SAMPLES,
    mean_fidelities_closed,
    mean_fidelities_from_kraus,
    monte_carlo_mean_fidelities,
)
from pnbm.ancilla import params_from_alpha
from pnbm.cli import _MAX_GRID_POINTS, _emit_table, build_parser, main
from pnbm.measurement import kraus_set, network_branches
from pnbm.teleport import (
    closed_form_fidelities,
    haar_inputs_and_uniforms,
    normalize_amplitudes,
    run_pqt,
    run_pqt_batch,
)

SYM_ALPHA = "0.5773502691896258"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTeleportCommand:
    def test_symmetric_point_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--alpha", SYM_ALPHA, "--state-a", "1", "--state-b", "0",
            "--outcome", "00",
        )
        assert code == 0
        report = json.loads(out)
        assert report["fidelities"]["f_A"] == pytest.approx(5 / 6, abs=1e-9)
        assert report["fidelities"]["f_B"] == pytest.approx(5 / 6, abs=1e-9)
        assert report["max_closed_sim_delta"] < 1e-10
        assert report["input"]["was_normalized"] is False

    def test_perfect_endpoint(self, capsys):
        code, out, _ = run_cli(capsys, "teleport", "--alpha", "1", "--seed", "5")
        assert code == 0
        report = json.loads(out)
        assert report["fidelities"]["f_B"] == pytest.approx(1.0, abs=1e-12)
        assert report["fidelities"]["f_A"] == pytest.approx(0.5, abs=1e-12)

    def test_half_alpha_values(self, capsys):
        code, out, _ = run_cli(capsys, "teleport", "--alpha", "0.5", "--seed", "5")
        report = json.loads(out)
        assert report["fidelities"]["f_A"] == pytest.approx(0.875, abs=1e-9)
        assert report["fidelities"]["f_B"] == pytest.approx(0.787847, abs=1e-6)

    @pytest.mark.parametrize("outcome", ["00", "01", "10", "11"])
    def test_each_marginal_has_the_fidelity_of_its_label(self, capsys, outcome):
        """marginals[X] is the state whose fidelity with the input is f_X, for X = A, B, a."""
        code, out, _ = run_cli(
            capsys, "teleport", "--alpha", "0.3", "--state-a", "0.6", "--state-b", "0.8j",
            "--outcome", outcome,
        )
        assert code == 0
        report = json.loads(out)
        psi = np.array([complex(*report["input"]["a"]), complex(*report["input"]["b"])])
        got = {}
        for label, marginal in report["marginals"].items():
            rho = np.array([[complex(*entry) for entry in row] for row in marginal["matrix"]])
            got[label] = np.vdot(psi, rho @ psi).real
        assert list(got) == ["A", "B", "a"]
        for label, value in got.items():
            assert value == pytest.approx(report["fidelities"][f"f_{label}"], abs=1e-12)
        # Three distinct fidelities, so no two marginals can swap labels and pass.
        values = sorted(got.values())
        assert min(np.diff(values)) > 0.01

    def test_fidelity_rows_carry_the_batch_columns_by_name(self, capsys):
        """Both fidelity rows hold f_A, f_B, f_a, f_a_perp in that order, each the
        value of its column in ``run_pqt``'s and ``closed_form_fidelities``' rows."""
        code, out, _ = run_cli(
            capsys, "teleport", "--alpha", "0.3", "--state-a", "0.6", "--state-b", "0.8j",
            "--outcome", "10",
        )
        assert code == 0
        report = json.loads(out)
        params = params_from_alpha(0.3)
        psi = normalize_amplitudes(0.6, 0.8j)[:2]
        rows = {
            "fidelities": run_pqt(psi, params, forced_outcome="10").fidelities[0],
            "fidelities_closed": closed_form_fidelities(params),
        }
        for name, row in rows.items():
            assert list(report[name]) == ["f_A", "f_B", "f_a", "f_a_perp"]
            assert list(report[name].values()) == row.tolist()

    def test_normalization_is_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--alpha", "0.5", "--state-a", "3", "--state-b", "4j",
            "--outcome", "01",
        )
        assert code == 0
        report = json.loads(out)
        assert report["input"]["was_normalized"] is True
        assert report["input"]["a"] == [pytest.approx(0.6), pytest.approx(0.0)]

    def test_huge_amplitudes_are_rescaled(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--alpha", "0.5", "--state-a", "1e300", "--state-b", "1e300"
        )
        assert code == 0
        report = json.loads(out)
        assert report["input"]["a"] == [pytest.approx(1 / math.sqrt(2), abs=1e-15), 0.0]
        assert report["input"]["b"] == [pytest.approx(1 / math.sqrt(2), abs=1e-15), 0.0]
        assert report["input"]["was_normalized"] is True

    def test_tiny_amplitude_is_not_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--alpha", "0.5", "--state-a", "1e-320", "--state-b", "0"
        )
        assert code == 0
        report = json.loads(out)
        assert report["input"]["a"] == [1.0, 0.0] and report["input"]["b"] == [0.0, 0.0]
        assert report["input"]["was_normalized"] is True

    @pytest.mark.parametrize("a,b,message", [
        ("0", "0", "both zero"),
        ("inf", "0", "non-finite"),
        ("1", "nan", "non-finite"),
    ])
    def test_bad_amplitudes_are_usage_error(self, capsys, a, b, message):
        code, out, err = run_cli(
            capsys, "teleport", "--alpha", "0.5", "--state-a", a, "--state-b", b
        )
        assert code == 2 and out == "" and message in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "teleport", "--alpha", "0.5", "--outcome", "11", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# schema: pnbm-teleport-")
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        assert float(row["f_A_sim"]) == pytest.approx(0.875, abs=1e-9)

    def test_alpha_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["teleport", "--alpha", "1.5"])
        assert excinfo.value.code == 2


class TestSweepQubit:
    def test_grid_output_and_gate(self, tmp_path, capsys):
        out = tmp_path / "qubit.csv"
        code, _, _ = run_cli(
            capsys, "sweep-qubit", "--count", "101", "--seed", "3", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema: pnbm-qubit-sweep-v1"
        rows = list(csv.DictReader([l for l in lines if not l.startswith("#")]))
        assert len(rows) == 101
        assert float(rows[0]["alpha"]) == 0.0
        assert float(rows[-1]["f_B_sim"]) == pytest.approx(1.0, abs=1e-12)
        residuals = [abs(float(r["cloning_residual"])) for r in rows]
        assert max(residuals) < 1e-10
        footer = [l for l in lines if l.startswith("# max_abs_cloning_residual")]
        assert footer, "footer with the max residual is required"

    def test_byte_identical_given_seed(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(capsys, "sweep-qubit", "--count", "11", "--seed", "9", "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        explicit = tmp_path / "explicit.csv"
        via_env = tmp_path / "env.csv"
        run_cli(capsys, "sweep-qubit", "--count", "5", "--seed", "1234", "--out", str(explicit))
        monkeypatch.setenv("PNBM_SEED", "1234")
        run_cli(capsys, "sweep-qubit", "--count", "5", "--out", str(via_env))
        assert explicit.read_bytes() == via_env.read_bytes()

    def test_values_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-qubit", "--values", f"0,0.5,{SYM_ALPHA}", "--seed", "2"
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 4  # header + 3 grid points

    def test_domain_violation_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep-qubit", "--values", "0.2,1.4", "--seed", "2")
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize("argv", [
        ["--start", "inf"],
        ["--stop", "nan"],
        ["--start=-1.7e308", "--stop=1.7e308"],
    ])
    def test_non_finite_linear_grid_is_usage_error(self, capsys, argv):
        # Before the check, np.linspace warned here (an error under pytest's filters).
        code, out, err = run_cli(capsys, "sweep-qubit", *argv)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("command", [
        ["sweep-qubit"], ["sweep-cv", "--variable", "kappa"], ["sweep-cv", "--variable", "r"],
    ])
    def test_linear_grid_from_float_max_is_domain_error(self, capsys, command):
        # np.linspace's own last-point product overflowed and warned here (an
        # error under pytest's filters) before the grid reached the domain check.
        code, out, err = run_cli(
            capsys, *command, "--start", "1.7976931348623157e+308", "--stop", "1", "--count", "4",
        )
        assert code == 2 and out == ""
        assert "usage error" in err

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep-qubit", "--count", "3", "--seed", "2",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 1

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-qubit", "--count", "3", "--seed", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["schema"] == "pnbm-qubit-sweep-v1"
        assert len(payload["rows"]) == 3
        assert payload["footer"]["max_abs_cloning_residual"] < 1e-10


    @pytest.mark.parametrize("row,field", [(0, "outcomes"), (2, "outcomes"), (1, "fidelities")])
    def test_disagreement_with_scalar_replay_exits_1(self, capsys, monkeypatch, row, field):
        engine = pnbm.cli.run_pqt_batch

        def skewed(*args, **kwargs):
            batch = engine(*args, **kwargs)
            values = getattr(batch, field).copy()
            values[row] = (values[row] + 1) % 4 if field == "outcomes" else values[row] + 1e-13
            return dataclasses.replace(batch, **{field: values})

        monkeypatch.setattr(pnbm.cli, "run_pqt_batch", skewed)
        code, out, err = run_cli(capsys, "sweep-qubit", "--count", "5", "--seed", "2")
        assert code == 1 and out == ""
        assert f"error: scalar replay row {row} differs from the batch by " in err


class TestSweepMeasurement:
    def test_schema_and_endpoint_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-measurement", "--values", "0,1", "--mc-samples", "2000",
            "--seed", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][-1]
        assert row["alpha"] == 1.0
        assert row["f_op_closed"] == pytest.approx(0.4, abs=1e-12)
        assert row["f_est_closed"] == pytest.approx(0.4, abs=1e-12)
        assert abs(row["f_op_mc"] - 0.4) < 5 * max(row["mc_stderr_op"], 1e-12)
        expected_cols = {
            "alpha", "beta", "f_op_closed", "f_est_closed", "f_op_kraus", "f_est_kraus",
            "f_op_mc", "f_est_mc", "mc_stderr_op", "mc_stderr_est", "tradeoff_residual",
        }
        assert set(row) == expected_cols
        footer = payload["footer"]
        assert list(footer)[-1] == "max_design_delta"
        assert footer["max_design_delta"] <= 1e-12

    def test_json_carries_each_estimator_by_name(self, capsys):
        """Each row's closed, Kraus and Monte-Carlo keys hold the matching columns of
        the estimators' (f_op, f_est) rows exactly, so swapped columns show."""
        code, out, _ = run_cli(
            capsys, "sweep-measurement", "--values", "0,0.3,1", "--mc-samples", "1000",
            "--seed", "7", "--format", "json",
        )
        assert code == 0
        kraus = kraus_set(params_from_alpha(np.array([0.0, 0.3, 1.0])))
        means, stderrs = monte_carlo_mean_fidelities(kraus, 1000, 7)
        estimators = {
            "f_{}_closed": mean_fidelities_closed(kraus.params),
            "f_{}_kraus": mean_fidelities_from_kraus(kraus),
            "f_{}_mc": means,
            "mc_stderr_{}": stderrs,
        }
        rows = json.loads(out)["rows"]
        assert len(rows) == 3
        for index, row in enumerate(rows):
            for key, estimate in estimators.items():
                got = [row[key.format("op")], row[key.format("est")]]
                assert got == estimate[index].tolist(), (key, index)

    def test_design_disagreement_exits_1(self, capsys, monkeypatch):
        oracle = pnbm.acceptance.design_mean_fidelities

        def skewed(kraus):
            return oracle(kraus) - [0.0, 1e-11]  # the f_est column

        monkeypatch.setattr(pnbm.acceptance, "design_mean_fidelities", skewed)
        code, out, err = run_cli(
            capsys, "sweep-measurement", "--values", "0.5", "--mc-samples", "1000",
            "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["footer"]["max_design_delta"] == pytest.approx(1e-11, rel=1e-3)
        assert "design delta 1.000e-11" in err


class TestSweepCv:
    def test_default_r_sweep_reaches_asymptote(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-cv", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        last = payload["rows"][-1]
        assert last["r"] == 20.0 and last["kappa"] == 1.0
        assert abs(last["f_b_sim"] - 2 / 3) < 1e-9
        assert last["deviation"] < 1e-10
        assert set(last) == {
            "kappa", "gamma", "r", "f_a_sim", "f_b_sim",
            "f_a_closed", "f_b_closed", "f_b_optimal", "deviation",
        }

    def test_kappa_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-cv", "--variable", "kappa", "--values", "0.5,1,2",
            "--r", "0", "--format", "json",
        )
        payload = json.loads(out)
        f_a = [row["f_a_sim"] for row in payload["rows"]]
        assert f_a == sorted(f_a, reverse=True)
        assert payload["rows"][1]["f_b_sim"] == pytest.approx(0.4, abs=1e-12)

    def test_full_linear_kappa_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep-cv", "--variable", "kappa", "--start", "0.5", "--stop", "2",
            "--count", "4", "--format", "json",
        )
        assert code == 0
        kappas = [row["kappa"] for row in json.loads(out)["rows"]]
        assert kappas == pytest.approx([0.5, 1.0, 1.5, 2.0], abs=1e-15)

    def test_bad_kappa_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep-cv", "--variable", "kappa", "--values", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--variable", "kappa", "--values", "1", "--kappa", "nan"],
        ["--variable", "kappa", "--values", "1", "--kappa", "1e200"],
        ["--variable", "r", "--values", "1", "--r", "-5"],
        ["--variable", "r", "--values", "1", "--r", "nan"],
    ])
    def test_fixed_flag_of_swept_variable_is_checked(self, capsys, argv):
        code, out, err = run_cli(capsys, "sweep-cv", *argv)
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("variable", ["r", "kappa"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value_is_usage_error(self, capsys, variable, value):
        code, out, err = run_cli(capsys, "sweep-cv", "--variable", variable, "--values", value)
        assert code == 2
        assert "finite" in err
        assert out == ""

    @pytest.mark.parametrize("variable,value,domain", [
        ("kappa", "1e-200", "in [1e-100, 1e100]"),
        ("kappa", "1e200", "in [1e-100, 1e100]"),
        ("r", "701", "at most 700"),
    ])
    def test_out_of_domain_value_is_usage_error(self, capsys, variable, value, domain):
        code, out, err = run_cli(capsys, "sweep-cv", "--variable", variable, "--values", value)
        assert code == 2
        assert domain in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["--variable", "r", "--start", "0", "--stop", "30", "--count", "301", "--kappa", "1"],
        ["--variable", "r", "--start", "0", "--stop", "30", "--count", "301", "--kappa", "1.7"],
        ["--variable", "kappa", "--values", "1e-100,1e100"],
        ["--variable", "r", "--values", "400,700"],
    ])
    def test_large_r_and_domain_edges_pass(self, capsys, argv):
        code, out, _ = run_cli(capsys, "sweep-cv", *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["footer"]["max_deviation"] <= 1e-10
        assert all(math.isfinite(v) for row in payload["rows"] for v in row.values())


_FUZZ_FLOATS = st.floats() | st.sampled_from(
    [0.0, 5e-324, 1e-300, 1e-100, 1.7, 700.0, 400.0, 1e100, 1e300, -1e-300]
)


@settings(max_examples=200, deadline=None)
@given(
    variable=st.sampled_from(["kappa", "r"]),
    values=st.lists(_FUZZ_FLOATS, min_size=1, max_size=3),
    kappa=_FUZZ_FLOATS,
    r=_FUZZ_FLOATS,
)
def test_sweep_cv_fuzzed_floats_exit_cleanly(variable, values, kappa, r):
    """Any float for --values, --kappa or --r: a clean table (exit 0) or a usage error."""
    argv = [
        "sweep-cv", f"--variable={variable}", "--values=" + ",".join(map(repr, values)),
        f"--kappa={kappa!r}", f"--r={r!r}", "--format=json",
    ]
    _assert_clean_exit(*_run_quietly(argv))


def _run_quietly(argv):
    """``(exit code, stdout)`` of ``main(argv)``; a parse-time usage error gives 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _has_nan(value) -> bool:
    if isinstance(value, dict):
        return any(map(_has_nan, value.values()))
    if isinstance(value, list):
        return any(map(_has_nan, value))
    return isinstance(value, float) and math.isnan(value)


def _assert_clean_exit(code, out):
    """Exit 0 with a NaN-free JSON report, or a usage error (exit 2)."""
    assert code in (0, 2)
    if code == 0:
        assert not _has_nan(json.loads(out))


_FUZZ_COMPLEX = st.complex_numbers().map(repr) | st.sampled_from(["", "1+", "j", "1e999"])
_FUZZ_GRID = {
    "start": _FUZZ_FLOATS.map(repr), "stop": _FUZZ_FLOATS.map(repr),
    "count": st.integers(-1, 5).map(str),
    "values": st.lists(_FUZZ_FLOATS, max_size=3).map(lambda v: ",".join(map(repr, v))),
}


@settings(max_examples=60, deadline=None)
@given(
    alpha=_FUZZ_FLOATS | st.sampled_from([0.0, 0.5, 1.0]),
    state_a=_FUZZ_COMPLEX,
    state_b=_FUZZ_COMPLEX,
    outcome=st.sampled_from([None, "00", "01", "10", "11"]),
)
def test_teleport_fuzzed_inputs_exit_cleanly(alpha, state_a, state_b, outcome):
    """Any float alpha, any complex or malformed amplitude: a clean report or a usage error."""
    argv = ["teleport", f"--alpha={alpha!r}", f"--state-a={state_a}", f"--state-b={state_b}"]
    _assert_clean_exit(*_run_quietly(argv + ([f"--outcome={outcome}"] if outcome else [])))


@settings(max_examples=60, deadline=None)
@given(grid=st.fixed_dictionaries({}, optional=_FUZZ_GRID).filter(bool))
def test_sweep_qubit_fuzzed_grid_exits_cleanly(grid):
    """Any mix of the alpha-grid flags: a clean table or a usage error."""
    argv = ["sweep-qubit", "--format=json"] + [f"--{k}={v}" for k, v in grid.items()]
    _assert_clean_exit(*_run_quietly(argv))


@settings(max_examples=30, deadline=None)
@given(
    samples=st.integers(MIN_MC_SAMPLES - 3, MIN_MC_SAMPLES + 3) | st.integers(-2, 2),
    values=_FUZZ_GRID["values"],
)
def test_sweep_measurement_fuzzed_flags_exit_cleanly(samples, values):
    """Sample counts around the minimum and any alpha list: a clean table or a usage error."""
    argv = ["sweep-measurement", f"--mc-samples={samples}", f"--values={values}", "--format=json"]
    _assert_clean_exit(*_run_quietly(argv))


@settings(max_examples=30, deadline=None)
@given(points=st.integers(-2, 40))
def test_bounds_fuzzed_points_exit_cleanly(points):
    """Any small point count: two NaN-free curve files or a usage error."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "b")
        code, _ = _run_quietly(["bounds", f"--points={points}", f"--out={prefix}", "--format=json"])
        assert code in (0, 2)
        if code == 0:
            for name in ("pct", "pqt"):
                with open(f"{prefix}_{name}.json") as stream:
                    assert not _has_nan(json.load(stream))


_TOL_COMMANDS = [
    ["teleport", "--alpha=0.3", "--state-a=0.6", "--state-b=0.8j"],
    ["sweep-qubit", "--values=0.3,0.9", "--format=json"],
    ["sweep-measurement", "--values=0.5", "--mc-samples=1000", "--format=json"],
    ["sweep-cv", "--values=1,30", "--format=json"],
]


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(_TOL_COMMANDS), tol=_FUZZ_FLOATS)
def test_fuzzed_tolerance_is_checked(command, tol):
    """A bad --tol is a usage error; a valid one only gates (exit 1 needs tol < 1e-10)."""
    code, out = _run_quietly(command + [f"--tol={tol!r}"])
    assert (code == 2) == (not 0.0 <= tol < math.inf)
    if code == 1:
        assert tol < 1e-10
    else:
        _assert_clean_exit(code, out)


class TestResidualGate:
    def test_nan_fails_the_gate(self):
        assert not _exceeds(_max_abs(0.0, -1e-12), 1e-10) and _exceeds(1e-9, 1e-10)
        assert _exceeds(_max_abs(0.0, math.nan), 1e-10) and _exceeds(_max_abs(math.nan, 0.0), 1e-10)
        assert _exceeds(0.0, math.nan)

    def test_max_abs_over_columns(self):
        assert _max_abs([0.5, -2.0], [1.0, 0.25]) == 2.0
        assert math.isnan(_max_abs([0.0, 1.0], [math.nan, 0.0]))


def _per_cell_csv_body(columns) -> str:
    """The CSV body one cell at a time: 12 significant digits for a float, str otherwise."""
    rows = zip(*(np.asarray(column).tolist() for column in columns.values()))
    cell = lambda v: f"{v:.12g}" if isinstance(v, float) else str(v)
    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


class TestCsvRenderer:
    """The one-% CSV body of _emit_table against per-cell formatting."""

    EDGE_FLOATS = [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
        0.1 + 0.2, 1 / 3, 2 / 3, 1e16, 1e-5, 123456789012.0,
        # Exact 12-digit rounding ties, which round half to even, and a near tie.
        1000000000005.0, 1000000000015.0, -1234567890125.0, 2.5e-1, 0.1000000000005,
    ]

    @staticmethod
    def emitted_body(capsys, columns, path=None):
        _emit_table(path, "csv", "test", columns, {"max": 0.5})
        text = capsys.readouterr().out if path is None else path.read_text()
        lines = text.splitlines(keepends=True)
        assert lines[0] == "# schema: pnbm-test-v1\n"
        assert lines[1] == ",".join(columns) + "\n"
        assert lines[-1] == "# max = 0.5\n"
        return "".join(lines[2:-1])

    def test_edge_floats_with_string_and_int_columns(self, capsys):
        n = len(self.EDGE_FLOATS)
        columns = {
            "x": self.EDGE_FLOATS,
            "outcome": [("00", "01", "10", "11")[i % 4] for i in range(n)],
            "index": np.arange(n) * 1000000000001,  # 13 digits: "%.12g" would round it
            "neg": [-v for v in self.EDGE_FLOATS],
        }
        body = self.emitted_body(capsys, columns)
        assert body == _per_cell_csv_body(columns)
        assert body.splitlines()[0] == "nan,00,0,nan"
        assert body.splitlines()[3] == "-0,11,3000000000003,0"

    def test_one_row_and_zero_rows(self, capsys):
        one = {"alpha": [0.3], "outcome": ["10"], "p": [0.1 + 0.2]}
        assert self.emitted_body(capsys, one) == "0.3,10,0.3\n" == _per_cell_csv_body(one)
        empty = {"alpha": np.array([]), "outcome": np.array([], dtype=str)}
        assert self.emitted_body(capsys, empty) == "" == _per_cell_csv_body(empty)

    def test_table_written_to_a_file(self, capsys, tmp_path):
        columns = {"a": np.linspace(0.0, 1.0, 7), "b": ["01"] * 7, "c": [math.nan] * 7}
        body = self.emitted_body(capsys, columns, path=tmp_path / "table.csv")
        assert body == _per_cell_csv_body(columns)
        assert capsys.readouterr().out == ""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats(width=32), st.integers()), max_size=20))
    def test_random_cells(self, cells):
        columns = dict(zip("xyz", map(list, zip(*cells)))) or {"x": [], "y": [], "z": []}
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            _emit_table(None, "csv", "test", columns, {})
        body = "".join(buffer.getvalue().splitlines(keepends=True)[2:])
        assert body == _per_cell_csv_body(columns)


class TestNanReachesTheGate:
    """One NaN in one simulated column: exit 1, NaN footer, the gate named."""

    @pytest.mark.parametrize("column", [1, 3], ids=["f_B", "f_a_perp"])
    def test_sweep_qubit(self, capsys, monkeypatch, column):
        """f_B reaches both gates; f_a_perp only the closed-form delta, which covers it."""
        engine = pnbm.cli.run_pqt_batch

        def poisoned(*args, **kwargs):
            batch = engine(*args, **kwargs)
            fidelities = batch.fidelities.copy()
            fidelities[4, column] = math.nan  # past the scalar replay's first rows
            return dataclasses.replace(batch, fidelities=fidelities)

        monkeypatch.setattr(pnbm.cli, "run_pqt_batch", poisoned)
        code, out, err = run_cli(capsys, "sweep-qubit", "--count", "5", "--seed", "2")
        assert code == 1
        assert "# max_closed_sim_delta = nan" in out
        assert "closed-form vs simulated delta nan" in err
        residual = float(out.split("# max_abs_cloning_residual = ")[1].split()[0])
        if column == 1:
            assert math.isnan(residual) and "cloning residual nan" in err
        else:
            assert math.isfinite(residual) and "cloning residual" not in err

    def test_teleport(self, capsys, monkeypatch):
        """teleport gates through sweep-qubit's builder: both gates, by their labels."""
        engine = pnbm.cli.run_pqt

        def poisoned(*args, **kwargs):
            run = engine(*args, **kwargs)
            fidelities = run.fidelities.copy()
            fidelities[0, 1] = math.nan  # f_B
            return dataclasses.replace(run, fidelities=fidelities)

        monkeypatch.setattr(pnbm.cli, "run_pqt", poisoned)
        code, _, err = run_cli(capsys, "teleport", "--alpha", "0.3", "--format", "csv")
        assert code == 1
        assert "cloning residual nan" in err and "closed-form vs simulated delta nan" in err

    def test_sweep_measurement(self, capsys, monkeypatch):
        formula = pnbm.acceptance.mean_fidelities_from_kraus

        def poisoned(kraus):
            row = formula(kraus)  # checked in range, so NaN goes in after the check
            row[..., 0] = math.nan
            return row

        monkeypatch.setattr(pnbm.acceptance, "mean_fidelities_from_kraus", poisoned)
        code, out, err = run_cli(
            capsys, "sweep-measurement", "--values", "0.5", "--mc-samples", "1000",
        )
        assert code == 1
        assert "# max_formula_delta = nan" in out
        assert "formula delta nan" in err

    @pytest.mark.parametrize("column", ["f_a_sim", "f_b_sim"])
    def test_sweep_cv(self, capsys, monkeypatch, column):
        oracle = pnbm.acceptance.cv_fidelities

        def poisoned(config):
            fids = oracle(config)
            poisoned_column = fids[column].copy()
            poisoned_column[1] = math.nan
            return {**fids, column: poisoned_column}

        monkeypatch.setattr(pnbm.acceptance, "cv_fidelities", poisoned)
        code, out, err = run_cli(capsys, "sweep-cv", "--variable", "r", "--values", "0,1,2")
        assert code == 1
        assert "# max_deviation = nan" in out
        assert "simulated vs closed-form deviation nan" in err


class TestBounds:
    def test_curve_files(self, tmp_path, capsys):
        prefix = tmp_path / "bounds"
        code, out, _ = run_cli(capsys, "bounds", "--points", "201", "--out", str(prefix))
        assert code == 0
        pct = (tmp_path / "bounds_pct.csv").read_text().splitlines()
        pqt = (tmp_path / "bounds_pqt.csv").read_text().splitlines()
        pct_rows = [tuple(map(float, l.split(","))) for l in pct[2:] if not l.startswith("#")]
        pqt_rows = [tuple(map(float, l.split(","))) for l in pqt[2:] if not l.startswith("#")]
        assert any(abs(a - 2 / 3) < 1e-10 and abs(b - 2 / 3) < 1e-10 for a, b in pct_rows)
        assert (1.0, 0.5) == pytest.approx(pqt_rows[0], abs=1e-12)
        assert (0.5, 1.0) == pytest.approx(pqt_rows[-1], abs=1e-12)
        assert "margin" in out


class TestSelftest:
    def test_reduced_sample_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "11", "--mc-samples", "4000")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 12
        assert all(l.startswith("PASS") for l in lines)

    def test_timings_append_each_criterions_seconds(self, capsys):
        argv = ("selftest", "--seed", "11", "--mc-samples", "4000")
        _, plain, _ = run_cli(capsys, *argv)
        code, timed, _ = run_cli(capsys, *argv, "--timings")
        assert code == 0
        lines = [l for l in timed.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 12
        for line, plain_line in zip(lines, plain.splitlines()):
            match = re.fullmatch(r"(.*)  \[(\d+\.\d{4}) s\]", line)
            assert match and match[1] == plain_line
        assert timed.splitlines()[-1] == plain.splitlines()[-1]

    def test_registry_holds_twelve_criteria_in_order(self):
        assert [c.id[: len("criterion_01")] for c in CRITERIA] == [
            f"criterion_{n:02d}" for n in range(1, 13)
        ]


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_rejected_argv_leaves_the_next_call_unchanged(self, capsys):
        argv = ("sweep-qubit", "--count", "3", "--seed", "1", "--format", "json")
        before = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-qubit", "--count", "5", "--seed", "2", "--tol", "nan"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *argv) == before


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["teleport"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sweep-measurement", "--mc-samples", "999"],
        ["selftest", "--mc-samples", "999"],
        ["sweep-qubit", "--count", "3", "--seed", "-1"],
        ["sweep-qubit", "--count", "2", "--tol", "nan"],
        ["sweep-qubit", "--count", "2", "--tol", "-1"],
        ["sweep-qubit", "--count", "2", "--tol", "inf"],
        ["bounds", "--points", "3", "--tol", "nan"],
        ["bounds", "--points", "3", "--tol=-1e-10"],
        ["teleport", "--alpha", "0.5", "--tol", "x"],
        ["sweep-cv", "--seed", "1"],  # sweep-cv draws nothing, so it takes no seed
    ])
    def test_rejected_at_parse_time(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["sweep-measurement", "selftest"])
    def test_oversized_sample_count_rejected_before_sampling(self, capsys, monkeypatch, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("ran past the parser")

        monkeypatch.setattr(pnbm.acceptance, "monte_carlo_mean_fidelities", unreachable)
        monkeypatch.setattr(pnbm.cli, "run_criterion", unreachable)
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--mc-samples", str(10**12)])
        assert excinfo.value.code == 2
        assert f"at most {MAX_MC_SAMPLES}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep-qubit", "--count", str(_MAX_GRID_POINTS + 1)],
        ["sweep-cv", "--variable", "kappa", "--start", "0.5", "--stop", "2",
         "--count", str(_MAX_GRID_POINTS + 1)],
        ["bounds", "--points", str(_MAX_GRID_POINTS + 1)],
    ])
    def test_oversized_grid_rejected_before_allocating(self, capsys, monkeypatch, argv):
        def unreachable(*args, **kwargs):
            raise AssertionError("ran past the parser")

        monkeypatch.setattr(pnbm.cli, "_parse_grid", unreachable)
        for name in ("pct_bound_curve", "pqt_bound_curve"):
            monkeypatch.setattr(pnbm.acceptance, name, unreachable)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"at most {_MAX_GRID_POINTS}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sweep-qubit"], ["sweep-measurement"], ["sweep-cv", "--variable", "kappa"],
    ])
    def test_oversized_values_list_rejected_before_the_engine(self, capsys, monkeypatch, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("ran past the grid check")

        monkeypatch.setattr(pnbm.cli, "params_from_alpha", unreachable)
        monkeypatch.setattr(pnbm.acceptance, "cv_fidelities", unreachable)
        values = ",".join(["0.5"] * (_MAX_GRID_POINTS + 1))
        code, out, err = run_cli(capsys, *command, "--values", values)
        assert code == 2 and out == ""
        assert f"at most {_MAX_GRID_POINTS} numbers, got {_MAX_GRID_POINTS + 1}" in err

    def test_values_list_at_the_cap_is_accepted(self):
        args = types.SimpleNamespace(
            start=None, stop=None, count=None, values=",".join(["0.5"] * _MAX_GRID_POINTS)
        )
        assert pnbm.cli._parse_grid(args, "alpha").shape == (_MAX_GRID_POINTS,)

    @pytest.mark.parametrize("argv,missing", [
        (["sweep-cv", "--count", "5"], "--start, --stop"),
        (["sweep-cv", "--variable", "kappa", "--start", "0.5"], "--stop, --count"),
    ])
    def test_partial_grid_without_default(self, capsys, argv, missing):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert missing in err

    def test_values_with_linear_grid_flags(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep-qubit", "--values", "0.5", "--count", "5", "--start", "0", "--stop", "1"
        )
        assert code == 2 and out == ""
        assert "--values cannot be combined with --start, --stop, --count" in err

    def test_negative_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("PNBM_SEED", "-1")
        code, out, err = run_cli(capsys, "sweep-qubit", "--count", "3")
        assert code == 2
        assert "seed must be at least 0" in err
        assert out == ""


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS ``(get, set)``, with the count set to 2 and restored after the test."""
    if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy is not built against OpenBLAS, so there is no thread count to pin")
    controls = pnbm.cli._blas_thread_controls()
    assert controls is not None, "numpy's OpenBLAS thread-count functions were not found"
    get, set_ = controls
    before = get()
    set_(2)
    yield controls
    set_(before)


class TestBlasThreads:
    """main runs every command with BLAS on one thread and restores the caller's count."""

    @staticmethod
    def _wrap_command(monkeypatch, command, get, raises=None):
        """Replace ``command``'s func by one that records the thread count, then runs it."""
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        defaults = subparsers.choices[command]._defaults
        func, seen = defaults["func"], []

        def recording(args):
            seen.append(get())
            if raises is not None:
                raise raises
            return func(args)

        monkeypatch.setitem(defaults, "func", recording)
        return seen

    @pytest.mark.parametrize("flags,code", [
        (["--count", "5", "--seed", "1"], 0),
        (["--count", "5", "--seed", "1", "--tol", "0"], 1),  # a failed gate
        (["--values", "0.5,1.5"], 2),  # a usage error inside the command
    ])
    def test_one_thread_inside_and_the_callers_count_after(
        self, capsys, monkeypatch, blas_threads, flags, code
    ):
        get, _ = blas_threads
        seen = self._wrap_command(monkeypatch, "sweep-qubit", get)
        assert run_cli(capsys, "sweep-qubit", *flags)[0] == code
        assert seen == [1]
        assert get() == 2

    def test_restored_after_a_parse_error(self, capsys, blas_threads):
        get, _ = blas_threads
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-qubit", "--count", "3", "--tol", "nan"])
        assert excinfo.value.code == 2
        assert get() == 2

    def test_restored_after_an_exception(self, monkeypatch, blas_threads):
        get, _ = blas_threads
        seen = self._wrap_command(monkeypatch, "bounds", get, raises=RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            main(["bounds"])
        assert seen == [1]
        assert get() == 2

    def test_main_runs_where_the_lookup_finds_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(pnbm.cli, "_BLAS_THREAD_FUNCTIONS", (("no_such_get", "no_such_set"),))
        lookup = pnbm.cli._blas_thread_controls.__wrapped__  # the uncached lookup
        assert lookup() is None
        monkeypatch.setattr(pnbm.cli, "_blas_thread_controls", lookup)
        code, out, _ = run_cli(capsys, "sweep-qubit", "--count", "3", "--seed", "1")
        assert code == 0 and out.startswith("# schema: pnbm-qubit-sweep-v1")

    def test_the_thread_count_moves_no_number(self, blas_threads):
        """The golden digests were recorded with two BLAS threads; the CLI now runs on one.

        Every threaded product pnbm makes gives the same bits on either count.
        """
        _, set_ = blas_threads
        rng = np.random.default_rng(3)
        params = params_from_alpha(np.linspace(0.0, 1.0, 1001))
        inputs, uniforms = haar_inputs_and_uniforms(1001, rng)
        wide = params_from_alpha(np.linspace(0.0, 1.0, 1100))
        rows = {}
        for dim in (8, 4):
            states = rng.normal(size=(1100, dim)) + 1j * rng.normal(size=(1100, dim))
            rows[dim] = states / np.linalg.norm(states, axis=1, keepdims=True)
        kraus = kraus_set(params_from_alpha(np.linspace(0.0, 1.0, 5)))

        def results():
            batch = run_pqt_batch(inputs, params, uniforms=uniforms)
            return [
                *dataclasses.astuple(batch),
                network_branches(rows[8], ("A", "a", "B"), wide),
                network_branches(rows[4], ("A", "a"), wide),
                *monte_carlo_mean_fidelities(kraus, 20000, 9),
            ]

        two = results()
        set_(1)
        one = results()
        assert len(one) == len(two) == 9
        for a, b in zip(one, two):
            assert np.array_equal(a, b)
