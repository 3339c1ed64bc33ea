"""Heisenberg frame, Gaussian variances, fidelities, conditioning oracle."""

import math

import numpy as np
import pytest

from pnbm.cv import (
    _CHUNK,
    _NOISE_ROWS,
    CvConfig,
    _index,
    _input_covariance,
    _input_factors,
    _symmetric_noise,
    _variances,
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


def frame_row(frame, mode, quad):
    return frame[_index(mode, quad)]


def input_factor(r):
    """The factor L of the input covariance: L @ L.T == _input_covariance(r)."""
    return _input_factors([r])[0]


def variance(r, row):
    """Variance of one coefficient row over the initial quadratures at squeezing r."""
    return float(_variances(row[None], input_factor(r))[0])


def added_noise_photons(frame, factor):
    """Added photons of output modes A and B, as cv_fidelities computes them."""
    return _symmetric_noise(_variances(frame[..., _NOISE_ROWS, :], factor))


def _dense_variances(rows, factor):
    """_variances as it was before zero terms were skipped: the dense
    (..., rows, 10, 10) product summed in order over its second-last axis,
    squared, and each row of squares fsummed."""
    squares = (rows[..., :, :, None] * factor[..., None, :, :]).sum(axis=-2) ** 2
    fsums = [math.fsum(s) for s in squares.reshape(-1, squares.shape[-1]).tolist()]
    return np.array(fsums).reshape(squares.shape[:-1])


def _scalar_frame(kappa):
    """One frame the per-configuration way: the four qnd_gate matrices
    multiplied into the identity, each product rounded before the sum (no
    BLAS, so no fused multiply-add), then the feed-forward."""
    frame = np.eye(10)
    for control, target, coupling in (("A", "1", -kappa), ("a", "1", +kappa),
                                      ("2", "A", -kappa), ("2", "a", -kappa)):
        frame = (qnd_gate(control, target, coupling)[:, :, None] * frame).sum(axis=1)
    xu, pv = frame[_index("1", "x")], frame[_index("2", "p")]
    frame[_index("a", "x")] -= xu / kappa
    frame[_index("a", "p")] -= pv / kappa
    frame[_index("B", "x")] -= xu / kappa
    frame[_index("B", "p")] += pv / kappa
    return frame


def _scalar_cv_reference(config):
    """cv_fidelities for one configuration, one row and one variance at a time."""
    frame = _scalar_frame(config.kappa)
    factor = input_factor(config.r)

    def added_noise(mode):
        excess_x = math.fsum((frame[_index(mode, "x")] @ factor) ** 2) - 0.5
        excess_p = math.fsum((frame[_index(mode, "p")] @ factor) ** 2) - 0.5
        assert abs(excess_x - excess_p) <= 1e-10
        return (excess_x + excess_p) / 2.0

    k2 = config.kappa ** 2
    e2r = math.exp(-2.0 * config.r)
    return {
        "f_a_sim": 1.0 / (1.0 + added_noise("A")),
        "f_b_sim": 1.0 / (1.0 + added_noise("B")),
        "f_a_closed": 2.0 / (2.0 + k2),
        "f_b_closed": 2.0 / (2.0 * (1.0 + e2r) + 1.0 / k2),
        "f_b_optimal": 2.0 / (2.0 + 1.0 / k2),
    }


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
        assert variance(0.0, gate[_index("1", "x")]) == pytest.approx(1.0, abs=1e-15)

    def test_cross_commutator_cancels(self):
        for kappa in (0.3, 1.0, 2.5):
            gate = qnd_gate("A", "1", kappa)
            assert gate[_index("1", "x")] @ J5 @ gate[_index("A", "p")] == 0.0

    def test_symplectic_form_preserved_through_protocol(self):
        out = build_cv_protocol(CvConfig(kappa=1.7, r=0.4))[OUTPUT_ROWS]
        assert np.max(np.abs(out @ J5 @ out.T - J3)) < 1e-12


class TestConfigAndModel:
    def test_derived_parameters(self):
        config = CvConfig(kappa=2.0, r=1.5)
        assert config.gamma == pytest.approx(math.log(2.0), abs=1e-14)

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
        assert variance(0.0, row(x1=1.0)) == 0.5

    def test_squeezed_difference_variance(self):
        diff = row(xa=1.0, xB=-1.0)
        summ = row(pa=1.0, pB=1.0)
        assert variance(1.0, diff) == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert variance(1.0, summ) == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_single_mode_variance_is_cosh(self):
        assert variance(0.8, row(xa=1.0)) == pytest.approx(math.cosh(1.6) / 2, abs=1e-12)

    @pytest.mark.parametrize("r", (0.0, 0.3, 1.0, 5.0))
    def test_factor_reproduces_covariance(self, r):
        factor = input_factor(r)
        np.testing.assert_allclose(factor @ factor.T, _input_covariance(r), rtol=1e-14, atol=0)


class TestProtocolConstruction:
    def test_output_coefficients_at_unit_coupling(self):
        protocol = build_cv_protocol(CvConfig(kappa=1.0, r=0.0))
        assert np.array_equal(frame_row(protocol, "B", "x"), row(xA=1.0, xa=-1.0, xB=1.0, x1=-1.0))
        assert np.array_equal(frame_row(protocol, "B", "p"), row(pA=1.0, pa=1.0, pB=1.0, p2=1.0))

    def test_general_coupling_coefficients(self):
        kappa = 1.7
        frame = build_cv_protocol(CvConfig(kappa=kappa, r=0.3))
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
        mean = np.zeros(10)
        mean[[_index("A", "x"), _index("A", "p")]] = (0.4, -1.1)
        assert frame_row(protocol, "B", "x") @ mean == pytest.approx(0.4, abs=1e-14)
        assert frame_row(protocol, "B", "p") @ mean == pytest.approx(-1.1, abs=1e-14)
        assert frame_row(protocol, "A", "x") @ mean == pytest.approx(0.4, abs=1e-14)
        assert frame_row(protocol, "a", "p") @ mean == pytest.approx(+1.1, abs=1e-14)


class TestVariances:
    def test_receiver_variance_at_unit_coupling(self):
        protocol = build_cv_protocol(CvConfig(kappa=1.0, r=0.0))
        assert variance(0.0, frame_row(protocol, "B", "x")) == pytest.approx(2.0, abs=1e-14)


class TestVarianceKernel:
    """_variances skips products that are zero on every row, bit for bit."""

    @staticmethod
    def assert_equals_dense(rows, factor):
        got, want = _variances(rows, factor), _dense_variances(rows, factor)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("r", (0.0, 8.0, 30.0, 700.0))
    def test_protocol_stacks(self, r):
        kappas = np.array([1e-100, 0.3, 1.0, 1.7, 1e100])
        frames = build_cv_protocol(CvConfig(kappa=kappas, r=r))
        factors = _input_factors(np.full(kappas.size, r))
        self.assert_equals_dense(frames[:, _NOISE_ROWS], factors)
        # The meter rows overflow to inf (and inf - inf) at r = 700, kappa = 1e100.
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_equals_dense(frames, factors)

    def test_mixed_stack(self):
        rng = np.random.default_rng(21)
        kappas = 10.0 ** rng.uniform(-100.0, 100.0, 300)
        rs = rng.uniform(0.0, 700.0, 300)
        frames = build_cv_protocol(CvConfig(kappa=kappas, r=rs))
        self.assert_equals_dense(frames[:, _NOISE_ROWS], _input_factors(rs))

    def test_coefficient_zero_on_some_rows_only(self):
        rng = np.random.default_rng(22)
        rows = rng.normal(size=(64, 4, 10)) * 10.0 ** rng.integers(-8, 9, size=(64, 4, 10))
        # Column m of noise row i is zero on every stack row where m < i + 3,
        # and on the first stack row entirely, so no row-0 mask sees it.
        for i in range(4):
            rows[: 8 * (i + 1), i, : i + 3] = 0.0
        rows[0] = 0.0
        rows[1, :, 9] = -0.0
        self.assert_equals_dense(rows, _input_factors(rng.uniform(0.0, 10.0, 64)))
        # A dense factor sums up to ten products per entry, so the order of
        # the adds shows in the rounding.
        self.assert_equals_dense(rows, rng.normal(size=(64, 10, 10)))
        self.assert_equals_dense(rows, rng.normal(size=(10, 10)))

    def test_single_row_through_the_input_model(self):
        frame = build_cv_protocol(CvConfig(kappa=1.7, r=0.0))
        for quadrature in frame:
            want = float(_dense_variances(quadrature[None], input_factor(0.9))[0])
            assert variance(0.9, quadrature) == want

    def test_row_zero_everywhere(self):
        factors = _input_factors([0.0, 1.0, 700.0])
        self.assert_equals_dense(np.zeros((3, 4, 10)), factors)
        assert not _variances(np.zeros((3, 4, 10)), factors).any()
        assert variance(2.0, np.zeros(10)) == 0.0


class TestFidelities:
    def test_unsqueezed_unit_coupling(self):
        fids = cv_fidelities(CvConfig(kappa=1.0, r=0.0))
        assert fids["f_a_sim"] == pytest.approx(2 / 3, abs=1e-12)
        assert fids["f_b_sim"] == pytest.approx(2 / 5, abs=1e-12)

    def test_moderate_squeezing_value(self):
        fids = cv_fidelities(CvConfig(kappa=1.0, r=1.0))
        expected = 2.0 / (2.0 * (1.0 + math.exp(-2.0)) + 1.0)
        assert fids["f_b_sim"] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.611496, abs=1e-6)

    def test_simulated_matches_closed_on_grid(self):
        for kappa in KAPPA_GRID:
            for r in R_GRID:
                fids = cv_fidelities(CvConfig(kappa=kappa, r=r))
                assert abs(fids["f_a_sim"] - fids["f_a_closed"]) < 1e-10
                assert abs(fids["f_b_sim"] - fids["f_b_closed"]) < 1e-10

    @pytest.mark.parametrize("kappa", (1.7, 0.3))
    def test_simulated_matches_closed_at_large_squeezing(self, kappa):
        """Non-dyadic kappa, r where cosh(2r)/2 and sinh(2r)/2 coincide in doubles."""
        for r in np.linspace(5.0, 30.0, 251):
            fids = cv_fidelities(CvConfig(kappa=kappa, r=float(r)))
            assert abs(fids["f_a_sim"] - fids["f_a_closed"]) < 1e-10
            assert abs(fids["f_b_sim"] - fids["f_b_closed"]) < 1e-10

    def test_operation_fidelity_is_exact_on_grid(self):
        """The sender-side fidelity never touches r, so sim == closed exactly."""
        for kappa in KAPPA_GRID:
            fids = cv_fidelities(CvConfig(kappa=kappa, r=1.0))
            assert fids["f_a_sim"] == fids["f_a_closed"]

    def test_infinite_squeezing_limit(self):
        fids = cv_fidelities(CvConfig(kappa=1.0, r=20.0))
        assert abs(fids["f_a_sim"] - 2 / 3) < 1e-9
        assert abs(fids["f_b_sim"] - 2 / 3) < 1e-9
        assert abs(fids["f_b_optimal"] - 2 / 3) < 1e-15

    def test_gap_to_optimum_shrinks_with_squeezing(self):
        for kappa in KAPPA_GRID:
            gaps = []
            for r in R_GRID:
                fids = cv_fidelities(CvConfig(kappa=kappa, r=r))
                gaps.append(fids["f_b_optimal"] - fids["f_b_sim"])
            assert all(g > 0 for g in gaps[:-1])
            assert gaps[-1] >= 0
            assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_asymmetric_noise_is_rejected(self):
        frame = build_cv_protocol(CvConfig(kappa=1.0, r=0.0))
        factor = input_factor(0.0)
        broken = frame.copy()
        broken[_index("B", "x")] = row(xB=1.0)
        with pytest.raises(ValueError, match="asymmetric excess noise on mode B:"):
            added_noise_photons(broken, factor)
        # A NaN variance fails the gate instead of passing it.
        nan_row = frame.copy()
        nan_row[_index("B", "x"), _index("B", "x")] = math.nan
        with pytest.raises(ValueError, match="asymmetric excess noise on mode B:"):
            added_noise_photons(nan_row, factor)
        # In a batch, only the broken row is reported.
        batch = np.stack([frame, broken, frame])
        with pytest.raises(ValueError, match="mode B, row 1:"):
            added_noise_photons(batch, np.stack([factor] * 3))
        noise = added_noise_photons(batch[[0, 2]], factor)
        assert noise.shape == (2, 2) and np.array_equal(noise[0], noise[1])


class TestCloningFrontier:
    """Gaussian cloning bound n_A n_B >= 1/4 (Cerf, Ipe and Rottenberg, PRL 85,
    1754 (2000)). The protocol adds n_A = kappa^2/2 and n_B = 1/(2 kappa^2) +
    e^{-2r}, so 4 n_A n_B = 1 + 2 kappa^2 e^{-2r}: on the frontier only at
    infinite squeezing."""

    @staticmethod
    def four_n_a_n_b(kappas, rs):
        """4 n_A n_B from the propagated variances, and its closed form. Not
        from 1/F - 1, which cancels when F is near 1."""
        frames = build_cv_protocol(CvConfig(kappa=kappas, r=rs))
        n_a, n_b = added_noise_photons(frames, _input_factors(rs)).T
        rows = zip(kappas.tolist(), rs.tolist())
        return 4.0 * n_a * n_b, np.array([1.0 + 2.0 * k ** 2 * math.exp(-2.0 * r) for k, r in rows])

    def test_criterion_grid(self):
        kappas, rs = np.meshgrid(KAPPA_GRID, R_GRID, indexing="ij")
        got, want = self.four_n_a_n_b(kappas.ravel(), rs.ravel())
        assert np.max(np.abs(got - want) / want) <= 1e-15

    def test_log_uniform_points(self):
        """Looser: variances - 1/2 cancels in the excess noise at small kappa."""
        rng = np.random.default_rng(29)
        kappas = 10.0 ** rng.uniform(-3.0, 3.0, 2000)
        got, want = self.four_n_a_n_b(kappas, rng.uniform(0.0, 8.0, 2000))
        assert np.max(np.abs(got - want) / want) <= 1e-9

    def test_optimal_receiver_is_on_the_frontier(self):
        kappa, r = np.meshgrid(KAPPA_GRID, R_GRID, indexing="ij")
        fids = cv_fidelities(CvConfig(kappa=kappa.ravel(), r=r.ravel()))
        n_a, n_b = 1.0 / fids["f_a_closed"] - 1.0, 1.0 / fids["f_b_optimal"] - 1.0
        assert (4.0 * n_a * n_b).tolist() == [1.0] * kappa.size


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


class TestStackedAgainstScalarReference:
    """The stacked build and fidelities against the per-configuration path."""

    @staticmethod
    def assert_matches_reference(kappas, rs):
        kappas, rs = np.broadcast_arrays(np.asarray(kappas, float), np.asarray(rs, float))
        stacked = cv_fidelities(CvConfig(kappa=kappas, r=rs))
        for i, (kappa, r) in enumerate(zip(kappas.tolist(), rs.tolist())):
            reference = _scalar_cv_reference(CvConfig(kappa=kappa, r=r))
            assert list(stacked) == list(reference)
            for name, want in reference.items():
                got = stacked[name][i]
                assert abs(got - want) <= 1e-15, (kappa, r, name, got, want)

    @pytest.mark.parametrize("kappa", (1e-100, 0.3, 1.0, 1.7, 1e100))
    def test_row_operations_equal_gate_product(self, kappa):
        assert np.array_equal(build_cv_protocol(CvConfig(kappa=kappa, r=0.0)), _scalar_frame(kappa))

    def test_stacked_frames_equal_gate_products(self):
        kappas = (1e-100, 0.3, 1.0, 1.7, 1e100)
        frames = build_cv_protocol(CvConfig(kappa=np.array(kappas), r=0.5))
        assert frames.shape == (5, 10, 10)
        for frame, kappa in zip(frames, kappas):
            assert np.array_equal(frame, _scalar_frame(kappa))

    @pytest.mark.parametrize("r", (0.0, 1.0, 8.0, 30.0, 700.0))
    def test_log_uniform_kappa(self, r):
        kappas = 10.0 ** np.random.default_rng(11).uniform(-100.0, 100.0, 200)
        self.assert_matches_reference(kappas, r)

    @pytest.mark.parametrize("r", (0.0, 8.0, 30.0, 700.0))
    def test_uniform_kappa(self, r):
        kappas = np.random.default_rng(12).uniform(0.25, 4.0, 200)
        self.assert_matches_reference(kappas, r)

    def test_mixed_squeezing_in_one_batch(self):
        rng = np.random.default_rng(13)
        rs = [0.0, 8.0, 30.0, 700.0, *rng.uniform(0.0, 700.0, 100), *rng.uniform(0.0, 10.0, 100)]
        kappas = 10.0 ** rng.uniform(-3.0, 3.0, len(rs))
        self.assert_matches_reference(kappas, rs)

    @pytest.mark.parametrize("n", (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7))
    def test_chunk_boundaries(self, n):
        rng = np.random.default_rng(n)
        self.assert_matches_reference(rng.uniform(0.25, 4.0, n), rng.uniform(0.0, 30.0, n))

    def test_one_config_is_a_batch_of_one(self):
        config = CvConfig(kappa=1.7, r=0.4)
        stack = CvConfig(kappa=np.array([1.7]), r=np.array([0.4]))
        assert build_cv_protocol(config).shape == (10, 10)
        assert np.array_equal(build_cv_protocol(stack)[0], build_cv_protocol(config))
        one, column = cv_fidelities(config), cv_fidelities(stack)
        assert one == _scalar_cv_reference(config)
        for name in one:
            assert column[name].tolist() == [one[name]]
        empty = cv_fidelities(CvConfig(kappa=np.array([]), r=1.0))
        assert all(value.shape == (0,) for value in empty.values())
