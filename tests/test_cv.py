"""Heisenberg frame, Gaussian variances, fidelities, conditioning oracle."""

import dataclasses
import math

import numpy as np
import pytest

from pnbm.cv import (
    CvConfig,
    CvInputModel,
    _index,
    added_noise_photons,
    build_cv_protocol,
    covariance_conditioning_check,
    cv_fidelities,
    qnd_gate,
)

KAPPA_GRID = (0.5, 1.0, 2.0)
R_GRID = (0.0, 0.5, 1.0, 2.0, 20.0)
# Symplectic form in _index order: [x_m, p_m] = i on each mode.
J5 = np.kron(np.eye(5), [[0.0, 1.0], [-1.0, 0.0]])
J3 = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
OUTPUT_ROWS = [_index(m, q) for m in ("A", "a", "B") for q in ("x", "p")]


def row(**coefficients):
    """Coefficient row over the initial quadratures, e.g. row(Ax=1.0, p1=-2.0)."""
    vector = np.zeros(10)
    for name, value in coefficients.items():
        vector[_index(name[1:], name[0])] = value
    return vector


def frame_row(protocol, mode, quad):
    return protocol.frame[_index(mode, quad)]


class TestQndGate:
    def test_zero_coupling_is_identity(self):
        assert np.array_equal(qnd_gate("A", "1", 0.0), np.eye(10))

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            qnd_gate("A", "A", 1.0)

    def test_update_rule(self):
        gate = qnd_gate("A", "1", 0.7)
        assert gate[_index("1", "x"), _index("A", "x")] == 0.7
        assert gate[_index("1", "x"), _index("1", "x")] == 1.0
        assert gate[_index("A", "p"), _index("1", "p")] == -0.7
        assert gate[_index("A", "x"), _index("A", "x")] == 1.0
        assert gate[_index("1", "p"), _index("1", "p")] == 1.0
        assert np.count_nonzero(gate) == 12

    def test_target_variance_after_one_gate(self):
        """Vacuum target picks up kappa^2/2; at kappa=1 the variance is 1."""
        gate = qnd_gate("A", "1", 1.0)
        model = CvInputModel(r=0.0)
        assert model.variance(gate[_index("1", "x")]) == pytest.approx(1.0, abs=1e-15)

    def test_cross_commutator_cancels(self):
        for kappa in (0.3, 1.0, 2.5):
            gate = qnd_gate("A", "1", kappa)
            assert gate[_index("1", "x")] @ J5 @ gate[_index("A", "p")] == 0.0

    def test_symplectic_form_preserved_through_protocol(self):
        out = build_cv_protocol(CvConfig(kappa=1.7, r=0.4)).frame[OUTPUT_ROWS]
        assert np.max(np.abs(out @ J5 @ out.T - J3)) < 1e-12


class TestConfigAndModel:
    def test_derived_parameters(self):
        config = CvConfig(kappa=2.0, r=1.5)
        assert config.gamma == pytest.approx(math.log(2.0), abs=1e-14)
        assert config.lam == pytest.approx(math.tanh(1.5), abs=1e-14)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="positive"):
            CvConfig(kappa=0.0, r=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            CvConfig(kappa=1.0, r=-0.1)

    def test_domain_limits(self):
        for kappa in (1e-100, 1e100):
            for r in (0.0, 700.0):
                CvConfig(kappa=kappa, r=r)
        for kappa in (0.99e-100, 1.01e100, 1e-200, 1e200, math.nan):
            with pytest.raises(ValueError, match=r"in \[1e-100, 1e100\]"):
                CvConfig(kappa=kappa, r=1.0)
        for r in (700.0000000001, 800.0, math.inf):
            with pytest.raises(ValueError, match="at most 700"):
                CvConfig(kappa=1.0, r=r)

    def test_vacuum_variance_is_half(self):
        model = CvInputModel(r=0.0)
        assert model.variance(row(x1=1.0)) == 0.5

    def test_squeezed_difference_variance(self):
        model = CvInputModel(r=1.0)
        diff = row(xa=1.0, xB=-1.0)
        summ = row(pa=1.0, pB=1.0)
        assert model.variance(diff) == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert model.variance(summ) == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_single_mode_variance_is_cosh(self):
        model = CvInputModel(r=0.8)
        assert model.variance(row(xa=1.0)) == pytest.approx(math.cosh(1.6) / 2, abs=1e-12)

    @pytest.mark.parametrize("r", (0.0, 0.3, 1.0, 5.0))
    def test_factor_reproduces_covariance(self, r):
        model = CvInputModel(r=r)
        factor = model.factor()
        np.testing.assert_allclose(factor @ factor.T, model.covariance(), rtol=1e-14, atol=0)


class TestProtocolConstruction:
    def test_output_coefficients_at_unit_coupling(self):
        protocol = build_cv_protocol(CvConfig(kappa=1.0, r=0.0))
        assert np.array_equal(frame_row(protocol, "B", "x"), row(xA=1.0, xa=-1.0, xB=1.0, x1=-1.0))
        assert np.array_equal(frame_row(protocol, "B", "p"), row(pA=1.0, pa=1.0, pB=1.0, p2=1.0))

    def test_general_coupling_coefficients(self):
        kappa = 1.7
        frame = build_cv_protocol(CvConfig(kappa=kappa, r=0.3)).frame
        assert frame[_index("a", "x"), _index("1", "x")] == pytest.approx(-1 / kappa)
        assert frame[_index("A", "x"), _index("2", "x")] == -kappa
        assert frame[_index("A", "p"), _index("1", "p")] == kappa
        assert frame[_index("a", "p"), _index("A", "p")] == -1.0

    def test_measured_combinations(self):
        """The undisplaced meter rows 1x and 2p are the measured combinations."""
        kappa = 0.9
        protocol = build_cv_protocol(CvConfig(kappa=kappa, r=0.0))
        assert np.array_equal(frame_row(protocol, "1", "x"), row(x1=1.0, xA=-kappa, xa=kappa))
        assert np.array_equal(frame_row(protocol, "2", "p"), row(p2=1.0, pA=kappa, pa=kappa))

    def test_offsets_cancel_after_displacement(self):
        """The feed-forward adds the meter rows over kappa, and the displaced
        rows carry no antisqueezed x_a + x_B or p_a - p_B component."""
        for kappa in (0.5, 1.0, 3.0, 1.7, 0.3, 1e-100, 1e100):
            protocol = build_cv_protocol(CvConfig(kappa=kappa, r=0.0))
            meter_x, meter_p = frame_row(protocol, "1", "x"), frame_row(protocol, "2", "p")
            assert np.array_equal(frame_row(protocol, "B", "x"), row(xB=1.0) - meter_x / kappa)
            assert np.array_equal(frame_row(protocol, "B", "p"), row(pB=1.0) + meter_p / kappa)
            bx, bp = frame_row(protocol, "B", "x"), frame_row(protocol, "B", "p")
            assert bx[_index("a", "x")] + bx[_index("B", "x")] == 0.0
            assert bp[_index("a", "p")] - bp[_index("B", "p")] == 0.0
            assert frame_row(protocol, "a", "x")[_index("a", "x")] == 0.0
            assert frame_row(protocol, "a", "p")[_index("a", "p")] == 0.0

    def test_mean_teleportation(self):
        """The receiver inherits the input amplitude; A keeps it; a conjugates it."""
        protocol = build_cv_protocol(CvConfig(kappa=1.3, r=0.7))
        model = CvInputModel(r=0.7, amplitude=(0.4, -1.1))
        assert model.mean(frame_row(protocol, "B", "x")) == pytest.approx(0.4, abs=1e-14)
        assert model.mean(frame_row(protocol, "B", "p")) == pytest.approx(-1.1, abs=1e-14)
        assert model.mean(frame_row(protocol, "A", "x")) == pytest.approx(0.4, abs=1e-14)
        assert model.mean(frame_row(protocol, "a", "p")) == pytest.approx(+1.1, abs=1e-14)


class TestVariances:
    def test_receiver_variance_at_unit_coupling(self):
        protocol = build_cv_protocol(CvConfig(kappa=1.0, r=0.0))
        model = CvInputModel(r=0.0)
        assert model.variance(frame_row(protocol, "B", "x")) == pytest.approx(2.0, abs=1e-14)


class TestFidelities:
    def test_unsqueezed_unit_coupling(self):
        fids = cv_fidelities(CvConfig(kappa=1.0, r=0.0))
        assert fids.f_a_sim == pytest.approx(2 / 3, abs=1e-12)
        assert fids.f_b_sim == pytest.approx(2 / 5, abs=1e-12)

    def test_moderate_squeezing_value(self):
        fids = cv_fidelities(CvConfig(kappa=1.0, r=1.0))
        expected = 2.0 / (2.0 * (1.0 + math.exp(-2.0)) + 1.0)
        assert fids.f_b_sim == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.611496, abs=1e-6)

    def test_simulated_matches_closed_on_grid(self):
        for kappa in KAPPA_GRID:
            for r in R_GRID:
                fids = cv_fidelities(CvConfig(kappa=kappa, r=r))
                assert abs(fids.f_a_sim - fids.f_a_closed) < 1e-10
                assert abs(fids.f_b_sim - fids.f_b_closed) < 1e-10

    @pytest.mark.parametrize("kappa", (1.7, 0.3))
    def test_simulated_matches_closed_at_large_squeezing(self, kappa):
        """Non-dyadic kappa, r where cosh(2r)/2 and sinh(2r)/2 coincide in doubles."""
        for r in np.linspace(5.0, 30.0, 251):
            fids = cv_fidelities(CvConfig(kappa=kappa, r=float(r)))
            assert abs(fids.f_a_sim - fids.f_a_closed) < 1e-10
            assert abs(fids.f_b_sim - fids.f_b_closed) < 1e-10

    def test_operation_fidelity_is_exact_on_grid(self):
        """The sender-side fidelity never touches r, so sim == closed exactly."""
        for kappa in KAPPA_GRID:
            fids = cv_fidelities(CvConfig(kappa=kappa, r=1.0))
            assert fids.f_a_sim == fids.f_a_closed

    def test_infinite_squeezing_limit(self):
        fids = cv_fidelities(CvConfig(kappa=1.0, r=20.0))
        assert abs(fids.f_a_sim - 2 / 3) < 1e-9
        assert abs(fids.f_b_sim - 2 / 3) < 1e-9
        assert abs(fids.f_b_optimal - 2 / 3) < 1e-15

    def test_gap_to_optimum_shrinks_with_squeezing(self):
        for kappa in KAPPA_GRID:
            gaps = []
            for r in R_GRID:
                fids = cv_fidelities(CvConfig(kappa=kappa, r=r))
                gaps.append(fids.f_b_optimal - fids.f_b_sim)
            assert all(g > 0 for g in gaps[:-1])
            assert gaps[-1] >= 0
            assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_asymmetric_noise_is_rejected(self):
        protocol = build_cv_protocol(CvConfig(kappa=1.0, r=0.0))
        frame = protocol.frame.copy()
        frame[_index("B", "x")] = row(xB=1.0)
        broken = dataclasses.replace(protocol, frame=frame)
        with pytest.raises(ValueError, match="asymmetric"):
            added_noise_photons(broken, CvInputModel(r=0.0), "B")


class TestConditioningOracle:
    @pytest.mark.parametrize("kappa", KAPPA_GRID)
    @pytest.mark.parametrize("r", (0.0, 0.5, 1.0, 2.0))
    def test_oracle_agrees_with_pipeline(self, kappa, r):
        assert covariance_conditioning_check(CvConfig(kappa=kappa, r=r)) < 1e-9

    def test_asymmetric_coupling_point(self):
        assert covariance_conditioning_check(CvConfig(kappa=2.0, r=0.5)) < 1e-9

    @pytest.mark.parametrize("kappa", (1e-3, 1e3))
    @pytest.mark.parametrize("r", (0.0, 8.0))
    def test_domain_corners(self, kappa, r):
        assert covariance_conditioning_check(CvConfig(kappa=kappa, r=r)) < 1e-9

    @pytest.mark.parametrize("kappa,r", [
        (np.nextafter(1e-3, 0.0), 1.0),
        (np.nextafter(1e3, np.inf), 1.0),
        (1.0, np.nextafter(8.0, np.inf)),
        (1e-100, 1.0),
        (1e100, 1.0),
        (1.0, 30.0),
        (1.0, 400.0),
    ])
    def test_outside_domain_raises(self, kappa, r):
        with pytest.raises(ValueError, match="conditioning oracle"):
            covariance_conditioning_check(CvConfig(kappa=kappa, r=r))

    def test_skipping_displacement_is_flagged(self):
        deviation = covariance_conditioning_check(
            CvConfig(kappa=1.0, r=0.0), apply_displacement=False
        )
        assert deviation > 1e-3
