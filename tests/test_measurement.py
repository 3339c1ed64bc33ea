"""Kraus representation, correction table, circuit realization, and equivalence."""

import math

import numpy as np
import pytest

from pnbm.ancilla import params_from_alpha
from pnbm.measurement import (
    ALL_OUTCOMES,
    OutcomeLabel,
    apply_pnbm_kraus,
    completeness_residual,
    correction_unitaries,
    kraus_set,
    pnbm_network,
)
from pnbm.qsim import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    GateOp,
    PureState,
    RandomSource,
    apply_unitary,
    bell_state,
    haar_random_pure,
    tensor,
)

SYM = 1.0 / math.sqrt(3.0)


class TestOutcomeLabel:
    def test_bijection_with_kraus_index(self):
        for k in (1, 2, 3, 4):
            label = OutcomeLabel.from_kraus_index(k)
            assert label.kraus_index == k
            assert OutcomeLabel.from_bits(label.bits) == label

    def test_expected_identification(self):
        assert OutcomeLabel(0, 0).kraus_index == 1
        assert OutcomeLabel(0, 1).kraus_index == 2
        assert OutcomeLabel(1, 0).kraus_index == 3
        assert OutcomeLabel(1, 1).kraus_index == 4

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            OutcomeLabel(2, 0)
        with pytest.raises(ValueError):
            OutcomeLabel.from_bits("012")


class TestKrausSet:
    def test_projective_endpoint(self):
        """At alpha=1 each operator is the projector onto one Bell state."""
        ks = kraus_set(params_from_alpha(1.0))
        for k in (1, 2, 3, 4):
            bell = bell_state(k).amplitudes
            np.testing.assert_allclose(
                ks.operators[k - 1], np.outer(bell, bell.conj()), atol=1e-14
            )

    def test_identity_endpoint(self):
        ks = kraus_set(params_from_alpha(0.0))
        for op in ks.operators:
            np.testing.assert_allclose(op, np.eye(4) / 2, atol=1e-14)

    def test_symmetric_point_diagonal(self):
        ks = kraus_set(params_from_alpha(SYM))
        np.testing.assert_allclose(
            ks.bell_diagonals[0], [0.86603, 0.28868, 0.28868, 0.28868], atol=5e-6
        )
        assert completeness_residual(ks) < 1e-12

    def test_completeness_across_grid(self):
        for alpha in np.linspace(0.0, 1.0, 101):
            assert kraus_set(params_from_alpha(alpha)).completeness_residual() < 1e-12

    def test_exact_symmetric_point_residual(self):
        assert kraus_set(params_from_alpha(SYM)).completeness_residual() < 1e-14

    def test_perturbed_set_is_flagged(self):
        """Breaking the normalization by 1e-3 shows up at the same order."""
        params = params_from_alpha(SYM)
        good = kraus_set(params)
        bad_diag = good.bell_diagonals.copy()
        bad_diag[bad_diag == params.beta / 2.0] += 1e-3
        bad_ops = [np.diag(d).astype(complex) for d in bad_diag]
        residual = completeness_residual(bad_ops)
        assert 1e-4 < residual < 1e-2

class TestCorrections:
    def test_table_entries(self):
        np.testing.assert_array_equal(correction_unitaries(OutcomeLabel(0, 1))[0], PAULI_X)
        np.testing.assert_array_equal(correction_unitaries(OutcomeLabel(0, 1))[1], PAULI_X)
        ua, ub = correction_unitaries(OutcomeLabel(1, 1))
        np.testing.assert_array_equal(ua, -ID2)
        np.testing.assert_array_equal(ub, ID2)
        np.testing.assert_array_equal(correction_unitaries(OutcomeLabel(0, 0))[0], PAULI_Y)
        np.testing.assert_array_equal(correction_unitaries(OutcomeLabel(1, 0))[1], PAULI_Z)

    def test_self_inverse(self):
        for outcome in ALL_OUTCOMES:
            for mat in correction_unitaries(outcome):
                np.testing.assert_allclose(mat @ mat, np.eye(2), atol=1e-15)

    def test_pair_action_on_singlet(self):
        """U_ij (x) U_ij flips the singlet's sign for every outcome."""
        singlet = bell_state(4)
        for outcome in ALL_OUTCOMES:
            ua, ub = correction_unitaries(outcome)
            out = apply_unitary(singlet, GateOp(ua, ("q0",)))
            out = apply_unitary(out, GateOp(ub, ("q1",)))
            np.testing.assert_allclose(out.amplitudes, -singlet.amplitudes, atol=1e-15)


class TestKrausApplication:
    def test_bell_states_preserved(self):
        for alpha in np.linspace(0.0, 1.0, 11):
            ks = kraus_set(params_from_alpha(alpha))
            for k in (1, 2, 3, 4):
                bell = bell_state(k, labels=("A", "a"))
                probs = ks.probabilities(bell.amplitudes)
                for outcome in ALL_OUTCOMES:
                    if probs[outcome.kraus_index - 1] < 1e-14:
                        continue
                    _, _, post = apply_pnbm_kraus(bell, ("A", "a"), ks, forced_outcome=outcome)
                    assert abs(post.overlap(bell)) > 1 - 1e-10

    def test_symmetric_point_probabilities_on_bell_input(self):
        ks = kraus_set(params_from_alpha(SYM))
        probs = ks.probabilities(bell_state(1).amplitudes)
        np.testing.assert_allclose(probs, [0.75, 1 / 12, 1 / 12, 1 / 12], atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_teleport_input_is_uniform(self):
        """On |psi>_A x singlet_aB every outcome has probability 1/4."""
        rng = RandomSource(21)
        for alpha in (0.0, 0.3, SYM, 1.0):
            ks = kraus_set(params_from_alpha(alpha))
            for _ in range(10):
                psi = haar_random_pure(1, rng, labels=("A",))
                state = tensor(psi, bell_state(4, labels=("a", "B")))
                for outcome in ALL_OUTCOMES:
                    _, p, _ = apply_pnbm_kraus(state, ("A", "a"), ks, forced_outcome=outcome)
                    assert p == pytest.approx(0.25, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = RandomSource(22)
        for _ in range(1000):
            state = haar_random_pure(2, rng)
            ks = kraus_set(params_from_alpha(float(rng.generator.random())))
            assert ks.probabilities(state.amplitudes).sum() == pytest.approx(1.0, abs=1e-12)

    def test_forcing_zero_probability(self):
        ks = kraus_set(params_from_alpha(1.0))
        with pytest.raises(ValueError, match="probability"):
            apply_pnbm_kraus(bell_state(1), ("q0", "q1"), ks, forced_outcome="01")

    def test_sampled_outcome_is_deterministic_given_seed(self):
        state = haar_random_pure(2, RandomSource(24))
        ks = kraus_set(params_from_alpha(0.4))
        first = apply_pnbm_kraus(state, ("q0", "q1"), ks, rng=RandomSource(99))
        second = apply_pnbm_kraus(state, ("q0", "q1"), ks, rng=RandomSource(99))
        assert first[0] == second[0]


class TestNetwork:
    def test_gate_budget(self):
        """Four CNOTs and four Hadamards, nothing else."""
        network = pnbm_network(params_from_alpha(SYM))
        two_qubit = [g for g in network.gates if len(g.targets) == 2]
        single = [g for g in network.gates if len(g.targets) == 1]
        assert len(two_qubit) == 4 and len(single) == 4

    def test_perfect_endpoint_discriminates(self):
        network = pnbm_network(params_from_alpha(1.0), targets=("A", "a"))
        for k, outcome in enumerate(ALL_OUTCOMES, start=1):
            probs = network.outcome_probabilities(bell_state(k, labels=("A", "a")))
            expected = np.zeros(4)
            expected[outcome.kraus_index - 1] = 1.0
            np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_blind_endpoint_is_identity_channel(self):
        network = pnbm_network(params_from_alpha(0.0), targets=("A", "a"))
        state = haar_random_pure(2, RandomSource(31), labels=("A", "a"))
        probs = network.outcome_probabilities(state)
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-12)
        for outcome in ALL_OUTCOMES:
            _, _, post = network.run(state, forced_outcome=outcome)
            assert abs(post.overlap(state)) > 1 - 1e-10

    def test_matches_kraus_action(self):
        """Full statevector circuit vs two-qubit Kraus algebra, per outcome."""
        rng = RandomSource(32)
        for alpha in (0.0, 0.3, 0.7, SYM, 1.0):
            params = params_from_alpha(alpha)
            ks = kraus_set(params)
            network = pnbm_network(params, targets=("A", "a"))
            for _ in range(20):
                state = haar_random_pure(2, rng, labels=("A", "a"))
                probs = ks.probabilities(state.amplitudes)
                for outcome in ALL_OUTCOMES:
                    if probs[outcome.kraus_index - 1] < 1e-14:
                        continue
                    _, p_net, post_net = network.run(state, forced_outcome=outcome)
                    _, p_kraus, post_kraus = apply_pnbm_kraus(
                        state, ("A", "a"), ks, forced_outcome=outcome
                    )
                    assert abs(p_net - p_kraus) < 1e-10
                    assert abs(post_net.overlap(post_kraus)) > 1 - 1e-10

    def test_spectator_qubit_untouched(self):
        """A third qubit rides through the network/readout unchanged."""
        rng = RandomSource(33)
        psi = haar_random_pure(1, rng, labels=("A",))
        state = tensor(psi, bell_state(4, labels=("a", "B")))
        network = pnbm_network(params_from_alpha(0.6), targets=("A", "a"))
        _, _, post = network.run(state, forced_outcome=OutcomeLabel(0, 0))
        assert post.labels == ("A", "a", "B")

    def test_pre_correction_branch_structure(self):
        """Each readout branch is the coherent superposition of the
        corrected-teleport term (with that outcome's pair of unitaries
        still attached) and the untouched-input term, weighted alpha/beta."""
        rng = RandomSource(34)
        for alpha in (0.3, SYM, 0.9):
            params = params_from_alpha(alpha)
            network = pnbm_network(params, targets=("A", "a"))
            psi = haar_random_pure(1, rng, labels=("B",))
            inp_on_a = psi.permuted(("B",)).amplitudes  # same amplitudes, relabeled below
            state = tensor(
                PureState(inp_on_a, ("A",)), bell_state(4, labels=("a", "B"))
            )
            for outcome in ALL_OUTCOMES:
                _, _, branch = network.run(state, forced_outcome=outcome)
                ua, ub = correction_unitaries(outcome)
                teleported = tensor(bell_state(4, labels=("A", "a")), psi)
                teleported = apply_unitary(teleported, GateOp(ua, ("a",)))
                teleported = apply_unitary(teleported, GateOp(ub, ("B",)))
                kept = tensor(PureState(inp_on_a, ("A",)), bell_state(4, labels=("a", "B")))
                expected = PureState.normalized(
                    params.alpha * teleported.permuted(("A", "a", "B")).amplitudes
                    + params.beta * kept.amplitudes,
                    ("A", "a", "B"),
                )
                assert abs(branch.overlap(expected)) > 1 - 1e-10
