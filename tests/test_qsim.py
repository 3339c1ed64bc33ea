"""Core statevector engine: gates, composition, traces, measurement, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnbm.qsim import (
    BELL_MATRIX,
    CNOT_MATRIX,
    ID2,
    DensityMatrix,
    GateOp,
    PureState,
    RandomSource,
    apply_unitary,
    bell_state,
    cnot,
    computational_state,
    fidelity,
    hadamard,
    haar_random_pure,
    measure_computational,
    partial_trace,
    tensor,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def haar_unitary(dim, rng):
    """Haar unitary via QR of a complex Ginibre matrix with phase fix."""
    g = rng.generator
    z = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState([1.0, 1.0], ("q0",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            PureState([1, 0, 0, 0], ("q0", "q0"))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            PureState([float("nan"), 0.0], ("q0",))

    def test_immutable(self):
        state = computational_state("0", ("q0",))
        with pytest.raises(AttributeError):
            state.labels = ("q1",)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 2.0

    def test_permuted_reorders_amplitudes(self):
        state = computational_state("10", ("q0", "q1"))
        flipped = state.permuted(("q1", "q0"))
        assert flipped.labels == ("q1", "q0")
        np.testing.assert_allclose(flipped.amplitudes, [0, 1, 0, 0])

    def test_overlap_handles_label_order(self):
        rng = RandomSource(3)
        state = haar_random_pure(2, rng)
        assert state.overlap(state.permuted(("q1", "q0"))) == pytest.approx(1.0)

class TestGateOp:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="residual"):
            GateOp(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]]), ("q0",))

    def test_rejects_target_mismatch(self):
        with pytest.raises(ValueError, match="targets"):
            GateOp(CNOT_MATRIX, ("q0",))


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        state = haar_random_pure(3, RandomSource(1))
        out = apply_unitary(state, GateOp(ID2, ("q1",)))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_hadamard_on_zero(self):
        out = apply_unitary(computational_state("0", ("q0",)), hadamard("q0"))
        np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_cnot_truth_table(self):
        out = apply_unitary(computational_state("10", ("q1", "q2")), cnot("q1", "q2"))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError, match="unknown qubit label"):
            apply_unitary(computational_state("0", ("q0",)), hadamard("nope"))

    def test_two_qubit_gate_on_nonadjacent_qubits(self):
        """Gate application must agree with the explicitly kronned unitary."""
        rng = RandomSource(11)
        state = haar_random_pure(3, rng, labels=("x", "y", "z"))
        gate = haar_unitary(4, rng)
        out = apply_unitary(state, GateOp(gate, ("z", "x")))
        # Build the full 8x8 operator for targets (z, x) given order (x, y, z):
        # amplitude index bit order x,y,z; gate index bit order z,x.
        full = np.zeros((8, 8), dtype=complex)
        for col in range(8):
            x, y, z = (col >> 2) & 1, (col >> 1) & 1, col & 1
            vec = gate[:, (z << 1) | x]
            for gi in range(4):
                zz, xx = (gi >> 1) & 1, gi & 1
                full[(xx << 2) | (y << 1) | zz, col] = vec[gi]
        np.testing.assert_allclose(out.amplitudes, full @ state.amplitudes, atol=1e-12)

    def test_norm_preserved_over_random_circuits(self):
        rng = RandomSource(2026)
        for _ in range(1000):
            n = int(rng.generator.integers(1, 4))
            state = haar_random_pure(n, rng)
            k = 2 if (n >= 2 and rng.generator.random() < 0.5) else 1
            targets = tuple(
                np.array(state.labels)[rng.generator.choice(n, size=k, replace=False)]
            )
            out = apply_unitary(state, GateOp(haar_unitary(2 ** k, rng), targets))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


class TestTensor:
    def test_zero_zero(self):
        out = tensor(computational_state("0", ("q0",)), computational_state("0", ("q1",)))
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_plus_one(self):
        plus = PureState([INV_SQRT2, INV_SQRT2], ("q0",))
        out = tensor(plus, computational_state("1", ("q1",)))
        np.testing.assert_allclose(out.amplitudes, [0, INV_SQRT2, 0, INV_SQRT2], atol=1e-15)

    def test_input_with_singlet_amplitudes(self):
        """|0>_A x singlet_aB has +1/sqrt2 on |001> and -1/sqrt2 on |010>."""
        out = tensor(computational_state("0", ("A",)), bell_state(4, labels=("a", "B")))
        expected = np.zeros(8)
        expected[0b001] = INV_SQRT2
        expected[0b010] = -INV_SQRT2
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_label_collision(self):
        with pytest.raises(ValueError, match="collision"):
            tensor(computational_state("0", ("q0",)), computational_state("0", ("q0",)))


class TestPartialTrace:
    def test_singlet_marginal_is_maximally_mixed(self):
        rho = partial_trace(bell_state(4), {"q0"})
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_product_state_marginal_is_projector(self):
        left = haar_random_pure(1, RandomSource(8), labels=("u",))
        right = haar_random_pure(2, RandomSource(9), labels=("v", "w"))
        rho = partial_trace(tensor(left, right), {"u"})
        np.testing.assert_allclose(
            rho.matrix, np.outer(left.amplitudes, left.amplitudes.conj()), atol=1e-13
        )

    def test_tensor_then_trace_recovers_factor(self):
        rng = RandomSource(10)
        s1 = haar_random_pure(2, rng, labels=("a1", "a2"))
        s2 = haar_random_pure(2, rng, labels=("b1", "b2"))
        rho = partial_trace(tensor(s1, s2), set(s1.labels))
        np.testing.assert_allclose(
            rho.matrix, np.outer(s1.amplitudes, s1.amplitudes.conj()), atol=1e-12
        )

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            partial_trace(bell_state(1), set())


class TestFidelity:
    def test_self_fidelity_is_one(self):
        state = haar_random_pure(2, RandomSource(4))
        rho = DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), state.labels)
        assert fidelity(state, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        zero = computational_state("0", ("q0",))
        one = DensityMatrix(np.diag([0.0, 1.0]), ("q0",))
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-15)

    def test_maximally_mixed_gives_half(self):
        state = haar_random_pure(1, RandomSource(6), labels=("q0",))
        rho = DensityMatrix(np.eye(2) / 2, ("q0",))
        assert fidelity(state, rho) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(bell_state(1), DensityMatrix(np.eye(2) / 2, ("q0",)))


class TestMeasurement:
    def test_plus_state_is_unbiased(self):
        plus = PureState([INV_SQRT2, INV_SQRT2], ("q0",))
        for forced, expected in (("0", 0.5), ("1", 0.5)):
            _, p, collapsed = measure_computational(plus, ("q0",), forced_outcome=forced)
            assert p == pytest.approx(expected, abs=1e-12)
            assert collapsed is None  # nothing remains

    def test_deterministic_measurement(self):
        outcome, p, _ = measure_computational(
            computational_state("00", ("q0", "q1")), ("q0", "q1"), forced_outcome="00"
        )
        assert outcome == "00" and p == pytest.approx(1.0, abs=1e-15)

    def test_forcing_zero_probability_outcome(self):
        with pytest.raises(ValueError, match="cannot force"):
            measure_computational(
                computational_state("00", ("q0", "q1")), ("q0",), forced_outcome="1"
            )

    def test_measured_qubits_removed(self):
        state = haar_random_pure(3, RandomSource(13), labels=("x", "y", "z"))
        _, _, collapsed = measure_computational(state, ("y",), rng=RandomSource(14))
        assert collapsed.labels == ("x", "z")

    def test_branch_probabilities_sum_to_one(self):
        rng = RandomSource(15)
        for _ in range(50):
            state = haar_random_pure(3, rng)
            total = sum(
                measure_computational(state, ("q0", "q2"), forced_outcome=f"{k:02b}")[1]
                for k in range(4)
                if _branch_probability(state, f"{k:02b}") > 0
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sampling_matches_exact_distribution(self):
        """Sampled frequencies within 4 sigma of exact probabilities at N=1e5."""
        state = haar_random_pure(2, RandomSource(16))
        exact = np.abs(state.amplitudes) ** 2
        rng = RandomSource(17)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            outcome, _, _ = measure_computational(state, ("q0", "q1"), rng=rng)
            counts[int(outcome, 2)] += 1
        freq = counts / n
        sigma = np.sqrt(exact * (1 - exact) / n)
        assert np.all(np.abs(freq - exact) < 4 * sigma + 1e-12)


def _branch_probability(state, bits):
    axes = [state.axis(q) for q in ("q0", "q2")]
    moved = np.moveaxis(state.tensor_view(), axes, [0, 1]).reshape(4, -1)
    return float((np.abs(moved[int(bits, 2)]) ** 2).sum())


class TestHaarSampling:
    def test_norm_and_determinism(self):
        one = haar_random_pure(3, RandomSource(123))
        two = haar_random_pure(3, RandomSource(123))
        assert abs(np.linalg.norm(one.amplitudes) - 1) < 1e-12
        np.testing.assert_array_equal(one.amplitudes, two.amplitudes)

    def test_first_moment(self):
        """E|<phi|psi>|^2 = 1/4 for two qubits, within 3 standard errors at N=1e5."""
        rng = RandomSource(2127)
        phi = haar_random_pure(2, rng)
        n = 100_000
        samples = np.empty(n)
        for i in range(n):
            samples[i] = abs(np.vdot(phi.amplitudes, haar_random_pure(2, rng).amplitudes)) ** 2
        stderr = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - 0.25) < 3 * stderr

    def test_unitary_invariance(self):
        """Fidelity-to-fixed-state distribution is unchanged by a fixed unitary."""
        from scipy.stats import ks_2samp

        rng = RandomSource(515)
        u = haar_unitary(4, rng)
        phi = haar_random_pure(2, rng)
        n = 10_000
        raw = np.empty(n)
        rotated = np.empty(n)
        for i in range(n):
            raw[i] = abs(np.vdot(phi.amplitudes, haar_random_pure(2, rng).amplitudes)) ** 2
        for i in range(n):
            psi = haar_random_pure(2, rng).amplitudes
            rotated[i] = abs(np.vdot(phi.amplitudes, u @ psi)) ** 2
        assert ks_2samp(raw, rotated).pvalue > 0.01


class TestBellStates:
    def test_first_bell_state(self):
        np.testing.assert_allclose(
            bell_state(1).amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15
        )

    def test_orthonormal_family(self):
        gram = BELL_MATRIX.conj().T @ BELL_MATRIX
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="1..4"):
            bell_state(5)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 63 - 1))
def test_haar_norm_for_any_seed(seed):
    state = haar_random_pure(2, RandomSource(seed))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
