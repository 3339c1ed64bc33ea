"""Protocol runs, marginal fidelities, saturation, and the bound curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnbm.ancilla import params_from_alpha
from pnbm.qsim import RandomSource, fidelity, haar_random_pure, partial_trace
from pnbm.teleport import (
    BoundCurve,
    InputQubit,
    bound_curve_checks,
    cloning_residual,
    closed_form_fidelities,
    final_state_direct,
    input_basis_coherence,
    marginal_fidelities,
    pct_bound_curve,
    pct_upper_teleportation_fidelity,
    pqt_bound_curve,
    pqt_teleportation_fidelity,
    run_pqt,
)

SYM = 1.0 / math.sqrt(3.0)


def random_input(rng) -> InputQubit:
    state = haar_random_pure(1, rng)
    return InputQubit(state.amplitudes[0], state.amplitudes[1])


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
        record = run_pqt(InputQubit.normalized(0.6, 0.8j), params_from_alpha(1.0), forced_outcome="10")
        assert record.fidelities.f_B == pytest.approx(1.0, abs=1e-12)
        assert record.fidelities.f_A == pytest.approx(0.5, abs=1e-12)

    def test_no_teleportation_endpoint(self):
        record = run_pqt(InputQubit.normalized(0.6, 0.8j), params_from_alpha(0.0), forced_outcome="01")
        assert record.fidelities.f_A == pytest.approx(1.0, abs=1e-12)
        assert record.fidelities.f_B == pytest.approx(0.5, abs=1e-12)

    def test_final_state_matches_direct_construction(self):
        rng = RandomSource(41)
        for alpha in (0.2, SYM, 0.9):
            params = params_from_alpha(alpha)
            inp = random_input(rng)
            oracle = final_state_direct(inp, params)
            for outcome in ("00", "01", "10", "11"):
                record = run_pqt(inp, params, forced_outcome=outcome)
                assert abs(record.final_state.overlap(oracle)) > 1 - 1e-10
                assert record.probability == pytest.approx(0.25, abs=1e-12)

    def test_computational_input_at_symmetric_point(self):
        params = params_from_alpha(SYM)
        oracle = final_state_direct(InputQubit(1.0, 0.0), params)
        states = [
            run_pqt(InputQubit(1.0, 0.0), params, forced_outcome=o).final_state
            for o in ("00", "01", "10", "11")
        ]
        for state in states:
            assert abs(state.overlap(oracle)) > 1 - 1e-10

    def test_outcome_independence_of_marginals(self):
        rng = RandomSource(42)
        for alpha in np.linspace(0.0, 1.0, 11):
            params = params_from_alpha(float(alpha))
            for _ in range(100):
                inp = random_input(rng)
                records = [run_pqt(inp, params, forced_outcome=o) for o in ("00", "01", "10", "11")]
                base = records[0]
                for other in records[1:]:
                    assert abs(base.final_state.overlap(other.final_state)) > 1 - 1e-10
                    np.testing.assert_allclose(base.rho_B.matrix, other.rho_B.matrix, atol=1e-10)

    def test_sampled_run_is_reproducible(self):
        inp = InputQubit.normalized(1.0, 1.0j)
        first = run_pqt(inp, params_from_alpha(0.3), rng=RandomSource(77))
        second = run_pqt(inp, params_from_alpha(0.3), rng=RandomSource(77))
        assert first.outcome == second.outcome

    def test_record_serializes(self):
        record = run_pqt(InputQubit(1.0, 0.0), params_from_alpha(SYM), forced_outcome="00")
        payload = record.to_json()
        assert payload["outcome"] == "00"
        assert set(payload["fidelities"]) == {"f_A", "f_B", "f_a", "f_a_perp"}
        assert set(payload["marginals"]) == {"A", "B", "a"}


class TestMarginalFidelities:
    def test_symmetric_point(self):
        record = run_pqt(InputQubit(1.0, 0.0), params_from_alpha(SYM), forced_outcome="00")
        assert record.fidelities.f_A == pytest.approx(5 / 6, abs=1e-10)
        assert record.fidelities.f_B == pytest.approx(5 / 6, abs=1e-10)
        assert record.fidelities.f_a_perp == pytest.approx(2 / 3, abs=1e-10)

    def test_partial_trace_of_final_state_gives_5_6(self):
        """Direct check on the constructed three-qubit state."""
        state = final_state_direct(InputQubit(1.0, 0.0), params_from_alpha(SYM))
        rho_b = partial_trace(state, {"B"})
        assert fidelity(InputQubit(1.0, 0.0).state("B"), rho_b) == pytest.approx(5 / 6, abs=1e-10)

    def test_half_alpha_values(self):
        record = run_pqt(InputQubit.normalized(0.8, 0.6), params_from_alpha(0.5), forced_outcome="11")
        assert record.fidelities.f_A == pytest.approx(0.875, abs=1e-10)
        assert record.fidelities.f_B == pytest.approx(0.787847, abs=1e-6)
        assert record.fidelities.f_a == pytest.approx(0.337153, abs=1e-6)

    def test_simulated_matches_closed_forms_across_grid(self):
        rng = RandomSource(43)
        for alpha in np.linspace(0.0, 1.0, 21):
            params = params_from_alpha(float(alpha))
            record = run_pqt(random_input(rng), params, forced_outcome="00")
            closed = closed_form_fidelities(params)
            assert abs(record.fidelities.f_A - closed.f_A) < 1e-10
            assert abs(record.fidelities.f_B - closed.f_B) < 1e-10
            assert abs(record.fidelities.f_a - closed.f_a) < 1e-10

    def test_universality_over_inputs(self):
        """Fidelities carry no dependence on the input amplitudes."""
        rng = RandomSource(44)
        params = params_from_alpha(SYM)
        values = np.array(
            [
                [r.f_A, r.f_B, r.f_a]
                for r in (
                    run_pqt(random_input(rng), params, forced_outcome="00").fidelities
                    for _ in range(100)
                )
            ]
        )
        assert np.max(values.max(axis=0) - values.min(axis=0)) < 1e-10

    def test_marginals_diagonal_in_input_basis(self):
        rng = RandomSource(45)
        for alpha in (0.1, SYM, 0.9):
            inp = random_input(rng)
            record = run_pqt(inp, params_from_alpha(alpha), forced_outcome="01")
            for rho in (record.rho_A, record.rho_B, record.rho_a):
                assert input_basis_coherence(rho, inp) < 1e-10

    def test_two_level_completeness(self):
        rng = RandomSource(46)
        record = run_pqt(random_input(rng), params_from_alpha(0.35), forced_outcome="10")
        assert record.fidelities.f_a + record.fidelities.f_a_perp == pytest.approx(1.0, abs=1e-12)

    def test_marginal_fidelities_recomputes_record(self):
        inp = InputQubit(1.0, 0.0)
        record = run_pqt(inp, params_from_alpha(SYM), forced_outcome="00")
        again = marginal_fidelities(record, inp)
        assert again == record.fidelities


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


class TestBoundCurves:
    def test_pct_passes_through_corner(self):
        curve = pct_bound_curve(201)
        gaps = [abs(a - 2 / 3) + abs(b - 2 / 3) for a, b in curve.points]
        assert min(gaps) < 1e-12

    def test_pct_peak_at_half(self):
        curve = pct_bound_curve(201)
        idx = np.argmin(np.abs(curve.points[:, 1] - 0.5))
        assert curve.points[idx, 0] == pytest.approx(1.0, abs=1e-12)

    def test_pqt_endpoints(self):
        curve = pqt_bound_curve(101)
        np.testing.assert_allclose(curve.points[0], [1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(curve.points[-1], [0.5, 1.0], atol=1e-12)

    def test_quantum_dominates_classical(self):
        for f_a in np.linspace(2 / 3, 1.0, 101)[1:-1]:
            assert pqt_teleportation_fidelity(float(f_a)) > pct_upper_teleportation_fidelity(
                float(f_a)
            )

    def test_shared_checks(self):
        corner, margin = bound_curve_checks(pct_bound_curve(201))
        assert corner < 1e-10 and margin > 0
        with pytest.raises(ValueError, match="pct"):
            bound_curve_checks(pqt_bound_curve(11))

    def test_dominance_at_5_6(self):
        assert pqt_teleportation_fidelity(5 / 6) == pytest.approx(5 / 6, abs=1e-12)
        assert pct_upper_teleportation_fidelity(5 / 6) < 5 / 6

    def test_invalid_points_rejected(self):
        with pytest.raises(ValueError, match="defining equality"):
            BoundCurve(kind="pqt", points=np.array([[0.9, 0.9], [0.95, 0.95]]))
        with pytest.raises(ValueError, match="n_points"):
            pct_bound_curve(1)

    def test_points_ordered_by_f_b(self):
        for curve in (pct_bound_curve(33), pqt_bound_curve(33)):
            assert np.all(np.diff(curve.points[:, 1]) >= 0)
