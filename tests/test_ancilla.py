"""Ancilla resource state, its purity, and the preparation circuit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pnbm.ancilla
from pnbm.ancilla import (
    AncillaParams,
    params_from_alpha,
    prep_matrices,
    run_prep_circuit,
    sigma_amplitudes,
    sigma_state,
)
from pnbm.qsim import partial_trace

SYM = 1.0 / math.sqrt(3.0)
ALPHA_GRID = np.linspace(0.0, 1.0, 101)


def ancilla_purity(params) -> float:
    """Closed-form purity of either reduced ancilla qubit: 1 - alpha^2 beta^2 / 2."""
    return 1.0 - (params.alpha ** 2) * (params.beta ** 2) / 2.0


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

    def test_nan_rejected(self):
        for alpha, beta in ((math.nan, 0.5), (0.5, math.nan)):
            with pytest.raises(ValueError, match="nonnegative"):
                AncillaParams(alpha, beta)

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
            rho = partial_trace(sigma_state(params), "anc1").matrix
            brute = float(np.trace(rho @ rho).real)
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
            with pytest.raises(ValueError, match="indeterminate"):
                prep_matrices(params_from_alpha(alpha))

    def test_stacked_rows_match_the_scalar_matrices(self):
        alphas = np.linspace(0.02, 0.98, 49)
        stacked = prep_matrices(params_from_alpha(alphas))
        for row, alpha in enumerate(alphas.tolist()):
            for got, want in zip(stacked, prep_matrices(params_from_alpha(alpha))):
                np.testing.assert_array_equal(got[row], want)

    @pytest.mark.parametrize("alpha", [1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9])
    def test_orthogonal_to_rounding_near_the_endpoints(self, alpha):
        for mat in prep_matrices(params_from_alpha(alpha)):
            assert np.max(np.abs(mat.T @ mat - np.eye(2))) < 1e-15


# 51 alphas: the interior grid and two points next to the endpoints.
STACK = np.concatenate([[1e-6], np.linspace(0.02, 0.98, 49), [1 - 1e-6]])


class TestPrepCircuit:
    def test_default_wiring_reproduces_state(self):
        for alpha in np.linspace(0.02, 0.98, 49):
            params = params_from_alpha(alpha)
            out = run_prep_circuit(params)
            assert out.shape == (4,)
            assert abs(np.vdot(out, sigma_state(params).amplitudes)) > 1 - 1e-10

    def test_stack_matches_the_direct_amplitudes(self):
        params = params_from_alpha(STACK)
        out = run_prep_circuit(params)
        assert out.shape == (len(STACK), 4)
        direct = sigma_amplitudes(params.alpha, params.beta)
        assert np.max(np.abs(out - direct)) < 1e-15

    @pytest.mark.parametrize("alphas,row", [([0.3, 0.0, 0.5], 1), ([0.3, 0.5, 1.0], 2)])
    def test_degenerate_entry_named_by_its_row(self, alphas, row):
        with pytest.raises(ValueError, match=rf"indeterminate.*\(row {row}\)$"):
            run_prep_circuit(params_from_alpha(np.array(alphas)))

    def test_non_unitary_gate_rejected_by_its_row(self, monkeypatch):
        umat, vmat, wmat = prep_matrices(params_from_alpha(STACK))
        umat[7] *= 1.0 + 1e-9
        monkeypatch.setattr(pnbm.ancilla, "prep_matrices", lambda params: (umat, vmat, wmat))
        with pytest.raises(ValueError, match=r"prep gate U is not unitary .*\(row 7\)$"):
            run_prep_circuit(params_from_alpha(STACK))
