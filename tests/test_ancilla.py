"""Ancilla resource state, purity diagnostics, and the preparation circuit."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnbm.ancilla import (
    DEFAULT_PREP_CIRCUIT,
    AncillaParams,
    DegenerateAncillaError,
    PrepCircuit,
    WiringError,
    ancilla_purity,
    params_from_alpha,
    prep_matrices,
    run_prep_circuit,
    sigma_state,
)
from pnbm.qsim import TOL_CIRCUIT, partial_trace

SYM = 1.0 / math.sqrt(3.0)
ALPHA_GRID = np.linspace(0.0, 1.0, 101)


def search_prep_wiring(alphas=(0.3, 1 / math.sqrt(3), 0.8), tol: float = TOL_CIRCUIT) -> PrepCircuit:
    """Enumerate placements of U, V, W, H around one CNOT; return the first
    wiring that reproduces sigma_state on every grid point."""
    grid = [params_from_alpha(a) for a in alphas]
    targets = [sigma_state(p) for p in grid]
    slots = list(itertools.product((0, 1), ("pre", "post")))
    for control in (0, 1):
        for order in itertools.permutations(("U", "V", "W", "H")):
            for placement in itertools.product(slots, repeat=4):
                pre = tuple(
                    (g, q) for g, (q, stage) in zip(order, placement) if stage == "pre"
                )
                post = tuple(
                    (g, q) for g, (q, stage) in zip(order, placement) if stage == "post"
                )
                circuit = PrepCircuit(pre=pre, post=post, cnot_control=control)
                ok = True
                for params, target in zip(grid, targets):
                    out = run_prep_circuit(circuit, params, validate=False)
                    if abs(out.overlap(target)) <= 1.0 - tol:
                        ok = False
                        break
                if ok:
                    return circuit
    raise RuntimeError("no valid wiring found in the searched family")


class TestParams:
    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.0, 1.0), (1.0, 0.0), (SYM, SYM), (0.5, 0.6513878188659973)],
    )
    def test_known_points(self, alpha, beta):
        params = params_from_alpha(alpha)
        assert params.beta == pytest.approx(beta, abs=1e-12)

    def test_alpha_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                params_from_alpha(bad)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError, match="normalization"):
            AncillaParams(0.5, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            AncillaParams(-0.3, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_quadratic_residual(self, alpha):
        params = params_from_alpha(alpha)
        residual = params.beta ** 2 + params.alpha * params.beta + params.alpha ** 2 - 1.0
        assert abs(residual) < 1e-12

    def test_product_peaks_at_symmetric_point(self):
        grid = np.append(ALPHA_GRID, SYM)
        products = [params_from_alpha(a).alpha * params_from_alpha(a).beta for a in grid]
        assert max(products) <= 1 / 3 + 1e-12
        assert abs(max(products) - 1 / 3) < 1e-9
        sym = params_from_alpha(SYM)
        assert sym.alpha * sym.beta == pytest.approx(1 / 3, abs=1e-12)


class TestSigmaState:
    def test_perfect_discrimination_endpoint(self):
        np.testing.assert_allclose(
            sigma_state(params_from_alpha(1.0)).amplitudes, [1, 0, 0, 0], atol=1e-15
        )

    def test_no_discrimination_endpoint(self):
        np.testing.assert_allclose(
            sigma_state(params_from_alpha(0.0)).amplitudes, [0.5] * 4, atol=1e-15
        )

    def test_symmetric_point_amplitudes(self):
        np.testing.assert_allclose(
            sigma_state(params_from_alpha(SYM)).amplitudes,
            [0.86603, 0.28868, 0.28868, 0.28868],
            atol=5e-6,
        )

    def test_normalized_across_grid(self):
        for alpha in ALPHA_GRID:
            amps = sigma_state(params_from_alpha(alpha)).amplitudes
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


class TestPurity:
    def test_endpoints_are_separable(self):
        assert ancilla_purity(params_from_alpha(0.0)) == 1.0
        assert ancilla_purity(params_from_alpha(1.0)) == 1.0

    def test_symmetric_point_value(self):
        assert ancilla_purity(params_from_alpha(SYM)) == pytest.approx(17 / 18, abs=1e-12)

    def test_half_alpha_value(self):
        assert ancilla_purity(params_from_alpha(0.5)) == pytest.approx(0.946962, abs=1e-6)

    def test_closed_form_matches_brute_force(self):
        for alpha in ALPHA_GRID:
            params = params_from_alpha(alpha)
            brute = partial_trace(sigma_state(params), {"anc1"}).purity()
            assert abs(ancilla_purity(params) - brute) < 1e-12

    def test_entangled_iff_interior(self):
        for alpha in np.linspace(0.01, 0.99, 25):
            assert ancilla_purity(params_from_alpha(alpha)) < 1.0


class TestPrepMatrices:
    def test_symmetric_point_values(self):
        umat, _, wmat = prep_matrices(params_from_alpha(SYM))
        np.testing.assert_allclose(
            umat, [[0.98560, -0.16910], [0.16910, 0.98560]], atol=5e-6
        )
        np.testing.assert_allclose(
            wmat, [[0.92388, 0.38268], [0.38268, -0.92388]], atol=5e-6
        )

    def test_determinants(self):
        umat, vmat, wmat = prep_matrices(params_from_alpha(SYM))
        assert np.linalg.det(umat) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(vmat) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(wmat) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonality_across_interior_grid(self):
        for alpha in np.linspace(0.02, 0.98, 49):
            for mat in prep_matrices(params_from_alpha(alpha)):
                residual = np.max(np.abs(mat.T @ mat - np.eye(2)))
                assert residual < 1e-10

    def test_degenerate_endpoints_rejected(self):
        for alpha in (0.0, 1.0):
            with pytest.raises(DegenerateAncillaError):
                prep_matrices(params_from_alpha(alpha))


class TestPrepCircuit:
    def test_default_wiring_reproduces_state(self):
        for alpha in np.linspace(0.02, 0.98, 49):
            params = params_from_alpha(alpha)
            out = run_prep_circuit(DEFAULT_PREP_CIRCUIT, params)
            assert abs(out.overlap(sigma_state(params))) > 1 - 1e-10

    def test_swapped_gate_order_is_flagged(self):
        """Putting W before the Hadamard breaks the wiring measurably."""
        bad = PrepCircuit(pre=(("U", 0),), post=(("V", 0), ("W", 1), ("H", 1)), cnot_control=0)
        with pytest.raises(WiringError) as excinfo:
            run_prep_circuit(bad, params_from_alpha(SYM))
        assert excinfo.value.overlap < 1 - 1e-6

    def test_search_finds_valid_wiring(self):
        found = search_prep_wiring()
        for alpha in (0.1, 0.5, SYM, 0.9):
            params = params_from_alpha(alpha)
            out = run_prep_circuit(found, params, validate=False)
            assert abs(out.overlap(sigma_state(params))) > 1 - 1e-10

    def test_bad_gate_name_rejected(self):
        with pytest.raises(ValueError, match="unknown gate"):
            PrepCircuit(pre=(("Q", 0),), post=(), cnot_control=0)
