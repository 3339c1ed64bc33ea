"""Core statevector engine: gates, composition, traces, measurement, sampling."""

import itertools
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
    apply_unitary,
    bell_state,
    cnot,
    compose,
    fidelity,
    hadamard,
    haar_random_pure,
    haar_rows,
    measure_computational,
    partial_trace,
    pick_outcome,
    tensor,
)
from pnbm import qsim
from pnbm.qsim import _apply_matrix

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def haar_unitary(dim, rng):
    """Haar unitary via QR of a complex Ginibre matrix with phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
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
        state = PureState([1, 0], ("q0",))
        with pytest.raises(AttributeError):
            state.labels = ("q1",)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 2.0

    def test_comparisons_reject_another_label(self):
        """expectation and fidelity compare states over one label tuple."""
        state = haar_random_pure(2, np.random.default_rng(3), labels=("q0", "q1"))
        rho = partial_trace(state, "q1")
        assert rho.labels == ("q1",)
        for compare in (rho.expectation, lambda s: fidelity(s, rho)):
            with pytest.raises(ValueError, match="label mismatch"):
                compare(PureState([1, 0], ("q0",)))


class TestGateOp:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="residual"):
            GateOp(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]]), ("q0",))

    def test_rejects_target_mismatch(self):
        with pytest.raises(ValueError, match="targets"):
            GateOp(CNOT_MATRIX, ("q0",))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not unitary"):
            GateOp(np.full((2, 2), math.nan), ("q0",))


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        state = haar_random_pure(3, np.random.default_rng(1))
        out = apply_unitary(state, GateOp(ID2, ("q1",)))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_hadamard_on_zero(self):
        out = apply_unitary(PureState([1, 0], ("q0",)), hadamard("q0"))
        np.testing.assert_allclose(out.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_cnot_truth_table(self):
        out = apply_unitary(PureState([0, 0, 1, 0], ("q1", "q2")), cnot("q1", "q2"))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError, match="unknown qubit label"):
            apply_unitary(PureState([1, 0], ("q0",)), hadamard("nope"))

    def test_two_qubit_gate_on_nonadjacent_qubits(self):
        """Gate application must agree with the explicitly kronned unitary."""
        rng = np.random.default_rng(11)
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
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            state = haar_random_pure(n, rng)
            k = 2 if (n >= 2 and rng.random() < 0.5) else 1
            targets = tuple(
                np.array(state.labels)[rng.choice(n, size=k, replace=False)]
            )
            out = apply_unitary(state, GateOp(haar_unitary(2 ** k, rng), targets))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


class TestTensor:
    def test_zero_zero(self):
        out = tensor(PureState([1, 0], ("q0",)), PureState([1, 0], ("q1",)))
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_plus_one(self):
        plus = PureState([INV_SQRT2, INV_SQRT2], ("q0",))
        out = tensor(plus, PureState([0, 1], ("q1",)))
        np.testing.assert_allclose(out.amplitudes, [0, INV_SQRT2, 0, INV_SQRT2], atol=1e-15)

    def test_input_with_singlet_amplitudes(self):
        """|0>_A x singlet_aB has +1/sqrt2 on |001> and -1/sqrt2 on |010>."""
        out = tensor(PureState([1, 0], ("A",)), bell_state(4, labels=("a", "B")))
        expected = np.zeros(8)
        expected[0b001] = INV_SQRT2
        expected[0b010] = -INV_SQRT2
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_label_collision(self):
        with pytest.raises(ValueError, match="collision"):
            tensor(PureState([1, 0], ("q0",)), PureState([1, 0], ("q0",)))


class TestPartialTrace:
    def test_singlet_marginal_is_maximally_mixed(self):
        rho = partial_trace(bell_state(4), "q0")
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_product_state_marginal_is_projector(self):
        left = haar_random_pure(1, np.random.default_rng(8), labels=("u",))
        right = haar_random_pure(2, np.random.default_rng(9), labels=("v", "w"))
        rho = partial_trace(tensor(left, right), "u")
        np.testing.assert_allclose(
            rho.matrix, np.outer(left.amplitudes, left.amplitudes.conj()), atol=1e-13
        )

    def test_tensor_then_trace_recovers_factor(self):
        """The low-order factor, between and after other qubits, is recovered too."""
        rng = np.random.default_rng(10)
        s1 = haar_random_pure(2, rng, labels=("a1", "a2"))
        s2 = haar_random_pure(1, rng, labels=("b1",))
        s3 = haar_random_pure(1, rng, labels=("c1",))
        rho = partial_trace(tensor(tensor(s1, s2), s3), "b1")
        assert rho.labels == ("b1",)
        np.testing.assert_allclose(
            rho.matrix, np.outer(s2.amplitudes, s2.amplitudes.conj()), atol=1e-12
        )

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError, match="unknown qubit label 'q2'"):
            partial_trace(bell_state(1), "q2")


class TestFidelity:
    def test_self_fidelity_is_one(self):
        state = haar_random_pure(1, np.random.default_rng(4))
        rho = DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), state.labels)
        assert fidelity(state, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        zero = PureState([1, 0], ("q0",))
        one = DensityMatrix(np.diag([0.0, 1.0]), ("q0",))
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-15)

    def test_maximally_mixed_gives_half(self):
        state = haar_random_pure(1, np.random.default_rng(6), labels=("q0",))
        rho = DensityMatrix(np.eye(2) / 2, ("q0",))
        assert fidelity(state, rho) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(bell_state(1), DensityMatrix(np.eye(2) / 2, ("q0",)))

    def test_rejects_nan(self, monkeypatch):
        # The constructor rejects a NaN matrix, so the NaN comes from the product.
        monkeypatch.setattr(DensityMatrix, "expectation", lambda self, state: math.nan)
        with pytest.raises(ValueError, match="outside"):
            fidelity(PureState([1, 0], ("q0",)), DensityMatrix(np.eye(2) / 2, ("q0",)))


class TestDensityMatrix:
    @pytest.mark.parametrize("matrix, match", [
        (np.full((2, 2), math.nan), "Hermitian"),
        (np.diag([math.nan, 1.0]), "Hermitian"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
        (np.eye(2), "trace"),
        (np.array([[0.5, 0.6j], [-0.6j, 0.5]]), "negative eigenvalue"),  # -0.1, from the coherence
    ])
    def test_rejects(self, matrix, match):
        with pytest.raises(ValueError, match=match):
            DensityMatrix(matrix, ("q0",))

    def test_holds_exactly_one_qubit(self):
        with pytest.raises(ValueError, match="holds one qubit, got 2 labels"):
            DensityMatrix(np.eye(4) / 4, ("q0", "q1"))

    def test_density_check_rejects_any_shape_but_2x2(self):
        qsim.require_density(np.stack([np.eye(2) / 2] * 3), "stack")  # a stack of 2x2s passes
        with pytest.raises(ValueError, match=r"rho has shape \(4, 4\); need 2x2 matrices"):
            qsim.require_density(np.eye(4) / 4, "rho")  # a two-qubit density matrix
        with pytest.raises(ValueError, match=r"rho has shape \(3, 2, 3\)"):
            qsim.require_density(np.zeros((3, 2, 3)), "rho")


class TestMeasurement:
    def test_plus_state_is_unbiased(self):
        plus = PureState([INV_SQRT2, INV_SQRT2], ("q0",))
        state = tensor(plus, PureState([1, 0], ("q1",)))
        for forced, expected in (("0", 0.5), ("1", 0.5)):
            _, p, _ = measure_computational(state, ("q0",), forced_outcome=forced)
            assert p == pytest.approx(expected, abs=1e-12)
            with pytest.raises(ValueError, match="at least one qubit label"):
                measure_computational(plus, ("q0",), forced_outcome=forced)  # nothing would remain

    def test_deterministic_measurement(self):
        outcome, p, _ = measure_computational(
            PureState(np.eye(8)[0], ("q0", "q1", "q2")), ("q0", "q1"), forced_outcome="00"
        )
        assert outcome == "00" and p == pytest.approx(1.0, abs=1e-15)

    def test_forcing_zero_probability_outcome(self):
        with pytest.raises(ValueError, match="cannot force"):
            measure_computational(
                PureState([1, 0, 0, 0], ("q0", "q1")), ("q0",), forced_outcome="1"
            )

    def test_sampled_outcome_draws_one_double(self):
        """A sampled measurement leaves its generator where one random() leaves a twin,
        the stream contract the sweep-qubit replay relies on, and picks as choice does."""
        state = haar_random_pure(3, np.random.default_rng(18))
        _, probs = qsim.branches(state, ("q0", "q2"))
        for seed in range(20):
            rng, drawer, chooser = (np.random.default_rng(seed) for _ in range(3))
            outcome, _, _ = measure_computational(state, ("q0", "q2"), rng=rng)
            drawer.random()
            assert rng.bit_generator.state == drawer.bit_generator.state
            assert int(outcome, 2) == chooser.choice(4, p=probs / probs.sum())

    def test_measured_qubits_removed(self):
        state = haar_random_pure(3, np.random.default_rng(13), labels=("x", "y", "z"))
        _, _, collapsed = measure_computational(state, ("y",), rng=np.random.default_rng(14))
        assert collapsed.labels == ("x", "z")

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
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
        measured = haar_random_pure(2, np.random.default_rng(16))
        exact = np.abs(measured.amplitudes) ** 2
        state = tensor(measured, PureState([1, 0], ("q2",)))  # one qubit stays unmeasured
        rng = np.random.default_rng(17)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            outcome, _, _ = measure_computational(state, ("q0", "q1"), rng=rng)
            counts[int(outcome, 2)] += 1
        freq = counts / n
        sigma = np.sqrt(exact * (1 - exact) / n)
        assert np.all(np.abs(freq - exact) < 4 * sigma + 1e-12)


def _random_distributions(count: int, seed: int):
    """Probability vectors of 1..8 entries, about a third of them exact zeros."""
    src = np.random.default_rng(seed)
    for _ in range(count):
        n = int(src.integers(1, 9))
        probs = src.random(n) * (src.random(n) > 0.3)
        if probs.sum() == 0.0:
            probs[int(src.integers(n))] = 1.0
        yield probs


class TestPickOutcome:
    def test_matches_generator_choice(self):
        """Same index per row, and same generator state, as one Generator.choice per row
        on a twin, when the uniforms are the twin's draws."""
        for k, probs in enumerate(_random_distributions(2000, seed=5)):
            ours, twin = np.random.default_rng(1000 + k), np.random.default_rng(1000 + k)
            rows = np.stack([probs, probs[::-1], np.roll(probs, 1)])
            index = pick_outcome(rows, None, uniforms=ours.random(len(rows)))
            expected = [twin.choice(len(row), p=row / row.sum()) for row in rows]
            assert index.shape == (3,) and index.dtype.kind == "i" and list(index) == expected
            assert np.all(rows[np.arange(3), index] > 0.0)
            assert ours.bit_generator.state == twin.bit_generator.state

    def test_rows_match_one_choice_per_row(self):
        """Also on rows scaled to subnormal or huge entries with finite sums: each
        normalised row still sums to 1 closely enough for Generator.choice."""
        src = np.random.default_rng(6)
        for rows in (1, 2, 7, 50):
            unscaled = src.random((rows, 4)) * (src.random((rows, 4)) > 0.3)
            unscaled[unscaled.sum(axis=1) == 0.0, 0] = 1.0
            for scale in (1.0, 5e-324, 1e-300, 1e300):
                probs = unscaled * scale
                probs[probs.sum(axis=1) == 0.0, 0] = scale
                ours, twin = np.random.default_rng(rows), np.random.default_rng(rows)
                picked = pick_outcome(probs, None, ours.random(rows))
                expected = [twin.choice(4, p=p / p.sum()) for p in probs]
                assert picked.shape == (rows,) and list(picked) == expected
                assert ours.bit_generator.state == twin.bit_generator.state

    def test_given_uniforms_stand_in_for_the_draws(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25], [0.0, 0.5, 0.0, 0.5]])
        assert list(pick_outcome(probs, uniforms=np.array([0.0, 0.0]))) == [0, 1]
        assert list(pick_outcome(probs, uniforms=np.array([0.75, 0.5]))) == [3, 3]
        with pytest.raises(ValueError, match="one uniform per row"):
            pick_outcome(probs, uniforms=np.array([0.5]))

    @pytest.mark.parametrize("uniforms, match", [
        ([math.nan, 0.2], r"uniform nan outside \[0, 1\) \(row 0\)"),
        ([0.2, -3.0], r"uniform -3\.0 outside \[0, 1\) \(row 1\)"),
        ([1.0, 0.2], r"uniform 1\.0 outside \[0, 1\) \(row 0\)"),
    ])
    def test_rejects_uniforms_outside_the_unit_interval(self, uniforms, match):
        """A uniform of 1 would pick the index past the last outcome, and NaN or a
        negative one would silently pick outcome 0."""
        probs = np.full((2, 4), 0.25)
        with pytest.raises(ValueError, match=match):
            pick_outcome(probs, uniforms=np.array(uniforms))

    def test_forced_index_is_kept_on_every_row(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert list(pick_outcome(probs, 1)) == [1, 1]
        assert list(pick_outcome(probs[:1], 0)) == [0]
        with pytest.raises(ValueError, match="'0' has probability 0.000e\\+00; cannot force"):
            pick_outcome(np.array([[0.5, 0.5], [0.0, 1.0]]), 0)

    def test_takes_rows_only(self):
        for probs in (np.array([0.5, 0.5]), np.full((1, 2, 2), 0.5)):
            for forced, uniforms in ((0, None), (None, np.array([0.5]))):
                with pytest.raises(ValueError, match="must be \\(rows, n\\), got shape"):
                    pick_outcome(probs, forced, uniforms)

    @pytest.mark.parametrize("probs,match", [
        ([0.5, math.nan], "finite"),
        ([0.5, math.inf], "finite"),
        ([0.0, 0.0], "finite"),
        ([1.5, -0.5], "nonnegative"),
    ])
    def test_rejects_what_choice_rejects(self, probs, match):
        probs = np.array(probs)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            np.random.default_rng(3).choice(2, p=probs / probs.sum())
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=match):
            pick_outcome(probs[None], None, uniforms=np.array([0.5]))

    @pytest.mark.parametrize("bad_row,match", [
        ([math.inf, 0.0, 0.0, 0.0], "finite"),
        ([0.0, 0.0, 0.0, 0.0], "finite, positive sum"),
    ])
    def test_bad_row_raises_before_dividing(self, bad_row, match):
        """Checked before the division, so no RuntimeWarning comes first."""
        probs = np.array([[0.25, 0.25, 0.25, 0.25], bad_row])
        with pytest.raises(ValueError, match=match):
            pick_outcome(probs, uniforms=np.array([0.5, 0.5]))

    def test_needs_an_rng_or_uniforms(self):
        """Unforced, the picker needs uniforms and the measurement an rng to draw them."""
        with pytest.raises(ValueError, match="one uniform per row, got shape \\(\\)"):
            pick_outcome(np.array([[0.5, 0.5]]))
        state = tensor(PureState([INV_SQRT2, INV_SQRT2], ("q0",)), PureState([1, 0], ("q1",)))
        with pytest.raises(ValueError, match="an rng is required when no outcome is forced"):
            measure_computational(state, ("q0",))


class TestCompose:
    def test_matches_gate_by_gate_application(self):
        labels = ("x", "y", "z")
        gates = [hadamard("y"), cnot("y", "x"), GateOp(np.diag([1, 1j]), ("z",)), cnot("z", "y")]
        matrix = compose(gates, labels)
        rng = np.random.default_rng(8)
        for _ in range(5):
            state = haar_random_pure(3, rng, labels=labels)
            stepped = state
            for gate in gates:
                stepped = apply_unitary(stepped, gate)
            assert np.max(np.abs(matrix @ state.amplitudes - stepped.amplitudes)) < 1e-14

    def test_rejects_non_unitary_product(self):
        class Scaled:
            matrix = 2.0 * ID2
            targets = ("x",)

        with pytest.raises(ValueError, match="not unitary"):
            compose([Scaled()], ("x", "y"))


def _tensordot_reference(tensor, matrix, axes):
    """The gate contraction as written with ``np.tensordot`` and ``np.moveaxis``."""
    k = len(axes)
    gate = matrix.reshape((2,) * (2 * k))
    out = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


class TestContractionPlan:
    """``_apply_matrix`` gives the bytes of ``np.moveaxis(np.tensordot(...))``."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_ordered_axis_tuple_on_a_state(self, n):
        rng = np.random.default_rng(40 + n)
        state = haar_random_pure(n, rng).tensor_view()
        for k in (1, 2):
            for axes in itertools.permutations(range(n), k):
                matrix = haar_unitary(2 ** k, rng)
                got = _apply_matrix(state, matrix, axes)
                assert np.array_equal(got, _tensordot_reference(state, matrix, axes)), axes

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_ordered_axis_tuple_on_compose_columns(self, n):
        """compose's (2,)*n + (dim,) tensor, fed back as the strided view each gate returns."""
        rng = np.random.default_rng(50 + n)
        dim = 2 ** n
        columns = np.eye(dim, dtype=np.complex128).reshape((2,) * n + (dim,))
        for k in (1, 2):
            for axes in itertools.permutations(range(n), k):
                matrix = haar_unitary(2 ** k, rng)
                got = _apply_matrix(columns, matrix, axes)
                assert np.array_equal(got, _tensordot_reference(columns, matrix, axes)), axes
                columns = got


def _branch_probability(state, bits):
    axes = [state.axis(q) for q in ("q0", "q2")]
    moved = np.moveaxis(state.tensor_view(), axes, [0, 1]).reshape(4, -1)
    return float((np.abs(moved[int(bits, 2)]) ** 2).sum())


class TestHaarSampling:
    def test_norm_and_determinism(self):
        one = haar_random_pure(3, np.random.default_rng(123))
        two = haar_random_pure(3, np.random.default_rng(123))
        assert abs(np.linalg.norm(one.amplitudes) - 1) < 1e-12
        np.testing.assert_array_equal(one.amplitudes, two.amplitudes)

    def test_first_moment(self):
        """E|<phi|psi>|^2 = 1/4 for two qubits, within 3 standard errors at N=1e5."""
        rng = np.random.default_rng(2127)
        phi = haar_random_pure(2, rng)
        n = 100_000
        # haar_rows draws what n haar_random_pure calls draw (TestHaarRows pins it).
        samples = np.abs(haar_rows(n, 2, rng) @ phi.amplitudes.conj()) ** 2
        stderr = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - 0.25) < 3 * stderr

    def test_unitary_invariance(self):
        """Fidelity-to-fixed-state distribution is unchanged by a fixed unitary."""
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(515)
        u = haar_unitary(4, rng)
        phi = haar_random_pure(2, rng)
        n = 10_000
        raw = np.abs(haar_rows(n, 2, rng) @ phi.amplitudes.conj()) ** 2
        # Row i of rows @ u.T is u @ psi_i.
        rotated = np.abs((haar_rows(n, 2, rng) @ u.T) @ phi.amplitudes.conj()) ** 2
        assert ks_2samp(raw, rotated).pvalue > 0.01


class TestHaarRows:
    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_matches_scalar_draws(self, n_qubits):
        rows_rng, scalar_rng = np.random.default_rng(77), np.random.default_rng(77)
        rows = haar_rows(500, n_qubits, rows_rng)
        scalar = [haar_random_pure(n_qubits, scalar_rng).amplitudes for _ in range(500)]
        assert rows.shape == (500, 2 ** n_qubits)
        assert np.array_equal(rows, scalar)
        assert rows_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(ValueError, match="n_qubits"):
            haar_rows(3, 0, np.random.default_rng(1))


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


@pytest.mark.parametrize(
    "name", ["ID2", "PAULI_X", "PAULI_Y", "PAULI_Z", "HADAMARD", "CNOT_MATRIX", "BELL_MATRIX"]
)
def test_shared_matrices_are_read_only(name):
    with pytest.raises(ValueError, match="read-only"):
        getattr(qsim, name)[0, 0] = 2.0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 63 - 1))
def test_haar_norm_for_any_seed(seed):
    state = haar_random_pure(2, np.random.default_rng(seed))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
