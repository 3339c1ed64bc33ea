"""Protocol runs, marginal fidelities, saturation, and the bound curves."""

import dataclasses
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnbm.acceptance
from pnbm import teleport
from pnbm.acceptance import CRITERIA, run_criterion
from pnbm.ancilla import params_from_alpha
from pnbm.cli import main
from pnbm.qsim import RandomSource, fidelity, haar_random_pure, partial_trace
from pnbm.teleport import (
    InputQubit,
    PqtBatch,
    bound_curve_checks,
    cloning_residual,
    closed_form_fidelities,
    final_state_direct,
    haar_inputs_and_uniforms,
    pct_bound_curve,
    pct_upper_teleportation_fidelity,
    pqt_bound_curve,
    pqt_teleportation_fidelity,
    run_pqt,
    run_pqt_batch,
)

SYM = 1.0 / math.sqrt(3.0)
OUTCOMES = ("00", "01", "10", "11")


def random_input(rng) -> InputQubit:
    state = haar_random_pure(1, rng)
    return InputQubit(state.amplitudes[0], state.amplitudes[1])


def input_basis_coherence(rho, input: InputQubit) -> float:
    """|off-diagonal| of a one-qubit marginal matrix in the {psi, psi_perp} basis.

    The protocol's marginals are statistical mixtures of the input state and
    its orthogonal complement, so this must vanish.
    """
    psi = input.state().amplitudes
    perp = input.orthogonal_state().amplitudes
    return abs(complex(np.vdot(psi, rho @ perp)))


class TestInputQubit:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="expected 1"):
            InputQubit(1.0, 1.0)
        with pytest.raises(ValueError, match="expected 1"):
            InputQubit(math.nan, 1.0)

    def test_normalized_constructor(self):
        inp = InputQubit.normalized(3.0, 4.0j)
        assert abs(inp.a - 0.6) < 1e-15 and abs(inp.b - 0.8j) < 1e-15

    @pytest.mark.parametrize("a,b,expected", [
        (1e300, 1e300, (1 / math.sqrt(2), 1 / math.sqrt(2))),
        (1e-320, 0.0, (1.0, 0.0)),
        (0.0, 5e-324j, (0.0, 1.0j)),
        (1.5e308 + 1.5e308j, 0.0, ((1 + 1j) / math.sqrt(2), 0.0)),
    ])
    def test_normalized_handles_extreme_magnitudes(self, a, b, expected):
        inp = InputQubit.normalized(a, b)
        assert abs(inp.a - expected[0]) < 1e-15 and abs(inp.b - expected[1]) < 1e-15

    def test_normalized_rejects_only_exact_zero_and_non_finite(self):
        with pytest.raises(ValueError, match="both zero"):
            InputQubit.normalized(0.0, 0j)
        with pytest.raises(ValueError, match="non-finite"):
            InputQubit.normalized(math.inf, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            InputQubit.normalized(0.0, complex(0.0, math.nan))

    def test_orthogonal_state(self):
        inp = InputQubit.normalized(0.6, 0.8j)
        assert abs(np.vdot(inp.state("A").amplitudes, inp.orthogonal_state("A").amplitudes)) < 1e-15


class TestRunPqt:
    def test_perfect_teleportation_endpoint(self):
        run = run_pqt(InputQubit.normalized(0.6, 0.8j), params_from_alpha(1.0), forced_outcome="10")
        f_A, f_B, _, _ = run.fidelities[0]
        assert f_B == pytest.approx(1.0, abs=1e-12)
        assert f_A == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("factor", [1.01, math.nan], ids=["off", "nan"])
    def test_spoiled_network_fails_the_quarter_check(self, monkeypatch, factor):
        """A network whose readout probability is off 1/4, or NaN, fails
        ``run_pqt``'s own check, as ``test_internal_checks_fire`` does for the batch."""
        build = teleport.pnbm_network

        def spoiled(params):
            network = build(params)

            def run(*args, **kwargs):
                outcome, probability, post = network.run(*args, **kwargs)
                return outcome, factor * probability, post

            return types.SimpleNamespace(run=run)

        monkeypatch.setattr(teleport, "pnbm_network", spoiled)
        with pytest.raises(ValueError, match="outcome probability vs 1/4 off by"):
            run_pqt(InputQubit(1.0, 0.0), params_from_alpha(0.5), forced_outcome="00")

    def test_no_teleportation_endpoint(self):
        run = run_pqt(InputQubit.normalized(0.6, 0.8j), params_from_alpha(0.0), forced_outcome="01")
        f_A, f_B, _, _ = run.fidelities[0]
        assert f_A == pytest.approx(1.0, abs=1e-12)
        assert f_B == pytest.approx(0.5, abs=1e-12)

    def test_final_state_matches_direct_construction(self):
        rng = RandomSource(41)
        for alpha in (0.2, SYM, 0.9):
            params = params_from_alpha(alpha)
            inp = random_input(rng)
            oracle = final_state_direct(inp, params)
            for outcome in ("00", "01", "10", "11"):
                run = run_pqt(inp, params, forced_outcome=outcome)
                assert abs(np.vdot(oracle.amplitudes, run.final_states[0])) > 1 - 1e-10
                assert run.probabilities[0] == pytest.approx(0.25, abs=1e-12)

    def test_computational_input_at_symmetric_point(self):
        params = params_from_alpha(SYM)
        oracle = final_state_direct(InputQubit(1.0, 0.0), params)
        states = [
            run_pqt(InputQubit(1.0, 0.0), params, forced_outcome=o).final_states[0]
            for o in ("00", "01", "10", "11")
        ]
        for state in states:
            assert abs(np.vdot(oracle.amplitudes, state)) > 1 - 1e-10

    def test_outcome_independence_of_marginals(self):
        """11 alphas x 100 inputs, every forced outcome, on the batched engine."""
        rng = RandomSource(42)
        params = params_from_alpha(np.repeat(np.linspace(0.0, 1.0, 11), 100))
        inputs = np.array([[inp.a, inp.b] for inp in (random_input(rng) for _ in params.alpha)])
        base, *others = [run_pqt_batch(inputs, params, forced_outcome=o) for o in OUTCOMES]
        for other in others:
            overlaps = np.abs(np.einsum("ni,ni->n", base.final_states.conj(), other.final_states))
            assert np.all(overlaps > 1 - 1e-10)
            np.testing.assert_allclose(base.marginals[:, 1], other.marginals[:, 1], atol=1e-10)

    def test_sampled_run_is_reproducible(self):
        inp = InputQubit.normalized(1.0, 1.0j)
        first = run_pqt(inp, params_from_alpha(0.3), rng=RandomSource(77))
        second = run_pqt(inp, params_from_alpha(0.3), rng=RandomSource(77))
        assert first.outcomes[0] == second.outcomes[0]


class TestMarginalFidelities:
    def test_symmetric_point(self):
        run = run_pqt(InputQubit(1.0, 0.0), params_from_alpha(SYM), forced_outcome="00")
        f_A, f_B, _, f_a_perp = run.fidelities[0]
        assert f_A == pytest.approx(5 / 6, abs=1e-10)
        assert f_B == pytest.approx(5 / 6, abs=1e-10)
        assert f_a_perp == pytest.approx(2 / 3, abs=1e-10)

    def test_partial_trace_of_final_state_gives_5_6(self):
        """Direct check on the constructed three-qubit state."""
        state = final_state_direct(InputQubit(1.0, 0.0), params_from_alpha(SYM))
        rho_b = partial_trace(state, {"B"})
        assert fidelity(InputQubit(1.0, 0.0).state("B"), rho_b) == pytest.approx(5 / 6, abs=1e-10)

    def test_half_alpha_values(self):
        run = run_pqt(InputQubit.normalized(0.8, 0.6), params_from_alpha(0.5), forced_outcome="11")
        f_A, f_B, f_a, _ = run.fidelities[0]
        assert f_A == pytest.approx(0.875, abs=1e-10)
        assert f_B == pytest.approx(0.787847, abs=1e-6)
        assert f_a == pytest.approx(0.337153, abs=1e-6)

    def test_simulated_matches_closed_forms_across_grid(self):
        rng = RandomSource(43)
        for alpha in np.linspace(0.0, 1.0, 21):
            params = params_from_alpha(float(alpha))
            f_A, f_B, f_a, _ = run_pqt(random_input(rng), params, forced_outcome="00").fidelities[0]
            closed = closed_form_fidelities(params)
            assert abs(f_A - closed.f_A) < 1e-10
            assert abs(f_B - closed.f_B) < 1e-10
            assert abs(f_a - closed.f_a) < 1e-10

    def test_universality_over_inputs(self):
        """Fidelities carry no dependence on the input amplitudes."""
        rng = RandomSource(44)
        params = params_from_alpha(SYM)
        values = np.array([
            run_pqt(random_input(rng), params, forced_outcome="00").fidelities[0, :3]
            for _ in range(100)
        ])
        assert np.max(values.max(axis=0) - values.min(axis=0)) < 1e-10

    def test_marginals_diagonal_in_input_basis(self):
        rng = RandomSource(45)
        for alpha in (0.1, SYM, 0.9):
            inp = random_input(rng)
            run = run_pqt(inp, params_from_alpha(alpha), forced_outcome="01")
            for rho in run.marginals[0]:
                assert input_basis_coherence(rho, inp) < 1e-10

    def test_two_level_completeness(self):
        rng = RandomSource(46)
        run = run_pqt(random_input(rng), params_from_alpha(0.35), forced_outcome="10")
        _, _, f_a, f_a_perp = run.fidelities[0]
        assert f_a + f_a_perp == pytest.approx(1.0, abs=1e-12)


def _grid_with_special_points() -> np.ndarray:
    """101 alphas: 0, 1/sqrt3 and 1 among 98 evenly spaced interior points."""
    return np.sort(np.append(np.linspace(0.0, 1.0, 100)[1:-1], [0.0, SYM, 1.0]))


class TestBatchedEngine:
    def test_matches_run_pqt_per_row_and_forced_outcome(self):
        rng = RandomSource(47)
        alphas = _grid_with_special_points()
        assert len(alphas) == 101
        inputs = [random_input(rng) for _ in alphas]
        amplitudes = np.array([[inp.a, inp.b] for inp in inputs])
        for outcome in OUTCOMES:
            batch = run_pqt_batch(amplitudes, params_from_alpha(alphas), forced_outcome=outcome)
            for i, (inp, alpha) in enumerate(zip(inputs, alphas.tolist())):
                run = run_pqt(inp, params_from_alpha(alpha), forced_outcome=outcome)
                for field in dataclasses.fields(PqtBatch):
                    got, want = getattr(batch, field.name)[i], getattr(run, field.name)[0]
                    assert np.max(np.abs(got - want)) <= 1e-14, field.name

    @pytest.mark.parametrize("seed", [1, 123456])
    def test_matches_run_pqt_sampled_on_the_same_seed(self, seed):
        """The fidelities do not depend on the outcome, so the outcomes are compared too."""
        alphas = _grid_with_special_points()
        batch_rng = RandomSource(seed)
        inputs, uniforms = haar_inputs_and_uniforms(len(alphas), batch_rng)
        batch = run_pqt_batch(inputs, params_from_alpha(alphas), uniforms=uniforms)
        rng = RandomSource(seed)
        outcomes = []
        for i, alpha in enumerate(alphas.tolist()):
            inp = random_input(rng)
            run = run_pqt(inp, params_from_alpha(alpha), rng=rng)
            outcomes.append(run.outcomes[0])
            assert np.max(np.abs(inputs[i] - [inp.a, inp.b])) <= 1e-15
            assert np.max(np.abs(batch.fidelities[i] - run.fidelities[0])) <= 1e-14
        assert list(batch.outcomes) == outcomes
        assert len(set(outcomes)) == 4
        assert batch_rng.generator.bit_generator.state == rng.generator.bit_generator.state

    def test_rejects_bad_batches(self):
        params = params_from_alpha(np.array([0.3, 0.6]))
        good = np.array([[1.0, 0.0], [0.6, 0.8j]])
        with pytest.raises(ValueError, match="one \\(a, b\\) row"):
            run_pqt_batch(good[:1], params, forced_outcome="00")
        with pytest.raises(ValueError, match="input norm"):
            run_pqt_batch(np.array([[1.0, 0.0], [1.0, 1.0]]), params, forced_outcome="00")
        with pytest.raises(ValueError, match="input norm"):
            run_pqt_batch(np.array([[1.0, 0.0], [math.nan, 0.0]]), params, forced_outcome="00")
        with pytest.raises(ValueError, match="2-bit"):
            run_pqt_batch(good, params, forced_outcome="2")
        with pytest.raises(ValueError, match="rng or uniforms are required"):
            run_pqt_batch(good, params)

    def test_internal_checks_fire(self, monkeypatch):
        """Spoiled network branches or corrections fail the engine's own checks."""
        params = params_from_alpha(np.array([0.3, 0.6]))
        good = np.array([[1.0, 0.0], [0.6, 0.8j]])
        branches = teleport.network_branches

        def spoil(change):
            monkeypatch.setattr(teleport, "network_branches", lambda *a: change(branches(*a)))

        def first_amplitude(value):
            """Row 0's first amplitude for readout 00 set to ``value``."""

            def change(branch):
                branch = branch.copy()
                branch[0, 0, 0] = value
                return branch

            return change

        spoil(lambda branch: 1.01 * branch)
        with pytest.raises(ValueError, match="outcome probability vs 1/4"):
            run_pqt_batch(good, params, forced_outcome="00")
        spoil(first_amplitude(math.inf))
        with pytest.raises(ValueError, match="outcome probability vs 1/4 off by inf"):
            run_pqt_batch(good, params, forced_outcome="00")
        # A NaN never reaches the 1/4 check: the outcome picker refuses it first.
        spoil(first_amplitude(math.nan))
        with pytest.raises(ValueError, match="probability nan; cannot force it"):
            run_pqt_batch(good, params, forced_outcome="00")
        with pytest.raises(ValueError, match="must be finite"):
            run_pqt_batch(good, params, uniforms=np.array([0.1, 0.9]))
        monkeypatch.setattr(teleport, "network_branches", branches)
        monkeypatch.setattr(teleport, "_CORRECTIONS_AAB", 1.01 * teleport._CORRECTIONS_AAB)
        with pytest.raises(ValueError, match="marginal trace"):
            run_pqt_batch(good, params, forced_outcome="00")


def _scalar_sweep_reference(seed: int, grid) -> list[list[float]]:
    """The scalar sweep-qubit rows: one haar_random_pure and one run_pqt per row."""
    rng = RandomSource(seed)
    rows = []
    for alpha in grid:
        params = params_from_alpha(float(alpha))
        state = haar_random_pure(1, rng)
        inp = InputQubit(state.amplitudes[0], state.amplitudes[1])
        sim = run_pqt(inp, params, rng=rng).fidelities[0]
        closed = closed_form_fidelities(params)
        residual = cloning_residual(sim[0], sim[1])
        delta = np.max(np.abs(sim - dataclasses.astuple(closed)))
        rows.append([
            params.alpha, params.beta, *sim, closed.f_A, closed.f_B, closed.f_a, residual, delta,
        ])
    return rows


def test_sweep_qubit_matches_scalar_reference(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    argv = ["sweep-qubit", "--count", "101", "--seed", "3", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    reference = _scalar_sweep_reference(3, np.linspace(0.0, 1.0, 101))
    assert len(rows) == len(reference) == 101
    header = list(rows[0])
    exact = ("alpha", "beta", "f_A_closed", "f_B_closed", "f_a_closed")
    sim = ("f_A_sim", "f_B_sim", "f_a_sim", "f_a_perp_sim")
    residuals = ("cloning_residual", "closed_sim_delta")
    for row, ref in zip(rows, reference):
        ref = dict(zip(header, ref))
        assert all(json.dumps(row[k]) == json.dumps(ref[k]) for k in exact)
        assert all(abs(row[k] - ref[k]) <= 1e-14 for k in sim + residuals)
        # Each residual column is the scalar formula on the row's own fidelities, bit for bit.
        fids = np.array([row[k] for k in sim])
        closed = dataclasses.astuple(closed_form_fidelities(params_from_alpha(row["alpha"])))
        own = (cloning_residual(fids[0], fids[1]), np.max(np.abs(fids - closed)))
        assert [json.dumps(row[k]) for k in residuals] == [json.dumps(float(v)) for v in own]


class TestCloningResidual:
    @pytest.mark.parametrize(
        "f_a,f_b",
        [(5 / 6, 5 / 6), (1.0, 0.5), (0.875, 0.7878469547164995)],
    )
    def test_saturated_pairs(self, f_a, f_b):
        assert abs(cloning_residual(f_a, f_b)) < 1e-10

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_protocol_points_always_saturate(self, alpha):
        closed = closed_form_fidelities(params_from_alpha(alpha))
        assert abs(cloning_residual(closed.f_A, closed.f_B)) < 1e-12

    def test_suboptimal_point_is_positive(self):
        """Interior of the allowed region sits strictly above the equality."""
        assert cloning_residual(0.7, 0.7) > 1e-3

    def test_array_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        f_A, f_B = rng.uniform(size=(2, 10**5))
        stacked = cloning_residual(f_A, f_B)
        scalar = np.array([cloning_residual(a, b) for a, b in zip(f_A.tolist(), f_B.tolist())])
        assert np.array_equal(stacked.view(np.int64), scalar.view(np.int64))


class TestBoundCurves:
    def test_pct_passes_through_corner(self):
        curve = pct_bound_curve(201)
        gaps = np.abs(curve["f_A"] - 2 / 3) + np.abs(curve["f_B"] - 2 / 3)
        assert min(gaps) < 1e-12

    def test_pct_peak_at_half(self):
        curve = pct_bound_curve(201)
        idx = np.argmin(np.abs(curve["f_B"] - 0.5))
        assert curve["f_A"][idx] == pytest.approx(1.0, abs=1e-12)

    def test_pqt_endpoints(self):
        curve = pqt_bound_curve(101)
        np.testing.assert_allclose([curve["f_A"][0], curve["f_B"][0]], [1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose([curve["f_A"][-1], curve["f_B"][-1]], [0.5, 1.0], atol=1e-12)

    def test_quantum_dominates_classical(self):
        for f_a in np.linspace(2 / 3, 1.0, 101)[1:-1]:
            assert pqt_teleportation_fidelity(float(f_a)) > pct_upper_teleportation_fidelity(
                float(f_a)
            )

    def test_shared_checks(self):
        corner, margin = bound_curve_checks(pct_bound_curve(201))
        assert corner < 1e-10 and margin > 0

    def test_dominance_at_5_6(self):
        assert pqt_teleportation_fidelity(5 / 6) == pytest.approx(5 / 6, abs=1e-12)
        assert pct_upper_teleportation_fidelity(5 / 6) < 5 / 6

    @pytest.mark.parametrize("curve, f_A, label", [
        ("pct_bound_curve", [0.9, 0.9, 0.9], "pct frontier equality"),
        ("pct_bound_curve", [math.nan, 1.0, 2 / 3], "pct frontier equality"),
        ("pqt_bound_curve", [0.9, 0.9, 0.9], "pqt cloning residual"),
        ("pqt_bound_curve", [math.nan, 5 / 6, 0.5], "pqt cloning residual"),
    ], ids=["pct-off", "pct-nan", "pqt-off", "pqt-nan"])
    def test_off_frontier_points_fail(self, monkeypatch, tmp_path, capsys, curve, f_A, label):
        """Points off a frontier's defining equality, or NaN, fail ``bounds`` and
        criterion 12 through the same gate, named by its label."""
        f_B = [1 / 3, 0.5, 2 / 3] if curve == "pct_bound_curve" else [0.5, 5 / 6, 1.0]
        columns = {"f_A": np.array(f_A), "f_B": np.array(f_B)}
        monkeypatch.setattr(pnbm.acceptance, curve, lambda points: columns)
        assert main(["bounds", "--points", "3", "--out", str(tmp_path / "bounds")]) == 1
        assert f"error: {label} " in capsys.readouterr().err
        criterion = next(c for c in CRITERIA if c.id == "criterion_12_bound_curves")
        ok, line, _ = run_criterion(criterion, 0, 0)
        assert not ok and line.startswith("FAIL  criterion 12:") and f"({label} " in line

    def test_points_ordered_by_f_b(self):
        for curve in (pct_bound_curve(33), pqt_bound_curve(33)):
            assert np.all(np.diff(curve["f_B"]) >= 0)
        with pytest.raises(ValueError, match="n_points"):
            pct_bound_curve(1)
