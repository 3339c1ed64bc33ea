"""Kraus representation, circuit realization, and equivalence."""

import math

import numpy as np
import pytest

from pnbm.ancilla import params_from_alpha
from pnbm.measurement import (
    ALL_OUTCOMES,
    apply_pnbm_kraus,
    completeness_residual,
    kraus_set,
    network_branches,
    pnbm_network,
)
from pnbm.qsim import (
    GateOp,
    PureState,
    apply_unitary,
    bell_state,
    haar_random_pure,
    haar_rows,
    measure_computational,
    tensor,
)
from pnbm.teleport import _CORRECTIONS, run_pqt, run_pqt_batch

SYM = 1.0 / math.sqrt(3.0)


def kraus_probabilities(ks, state_vector):
    """<A_k^dag A_k> for a two-qubit amplitude vector, one per Kraus slot."""
    return (np.abs(ks.operators @ state_vector) ** 2).sum(-1)


# Each entry point that forces a readout, as a function of the forced bits.
FORCED_ENTRY_POINTS = {
    "measure_computational": lambda bits: measure_computational(
        bell_state(1), ("q0", "q1"), forced_outcome=bits
    ),
    "PnbmNetwork.run": lambda bits: pnbm_network(params_from_alpha(SYM)).run(
        bell_state(1, labels=("A", "a")), forced_outcome=bits
    ),
    "apply_pnbm_kraus": lambda bits: apply_pnbm_kraus(
        bell_state(1, labels=("A", "a")), kraus_set(params_from_alpha(SYM)), forced_outcome=bits
    ),
    "run_pqt": lambda bits: run_pqt((1.0, 0.0), params_from_alpha(SYM), forced_outcome=bits),
    "run_pqt_batch": lambda bits: run_pqt_batch(
        np.array([[1.0, 0.0]]), params_from_alpha(np.array([SYM])), forced_outcome=bits
    ),
}


@pytest.mark.parametrize("entry", FORCED_ENTRY_POINTS)
@pytest.mark.parametrize("bits", ["2", "012", "0a"])
def test_forced_outcome_must_be_two_bits(entry, bits):
    with pytest.raises(ValueError, match="2-bit string"):
        FORCED_ENTRY_POINTS[entry](bits)


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
        assert completeness_residual(ks.operators) < 1e-12

    def test_completeness_across_grid(self):
        for alpha in np.linspace(0.0, 1.0, 101):
            assert completeness_residual(kraus_set(params_from_alpha(alpha)).operators) < 1e-12

    def test_exact_symmetric_point_residual(self):
        assert completeness_residual(kraus_set(params_from_alpha(SYM)).operators) < 1e-14

    def test_perturbed_set_is_flagged(self):
        """Breaking the normalization by 1e-3 shows up at the same order."""
        params = params_from_alpha(SYM)
        good = kraus_set(params)
        bad_diag = good.bell_diagonals.copy()
        bad_diag[bad_diag == params.beta / 2.0] += 1e-3
        bad_ops = [np.diag(d).astype(complex) for d in bad_diag]
        residual = completeness_residual(bad_ops)
        assert 1e-4 < residual < 1e-2


class TestKrausApplication:
    def test_bell_states_preserved(self):
        for alpha in np.linspace(0.0, 1.0, 11):
            ks = kraus_set(params_from_alpha(alpha))
            for k in (1, 2, 3, 4):
                bell = bell_state(k, labels=("A", "a"))
                probs = kraus_probabilities(ks, bell.amplitudes)
                for slot, outcome in enumerate(ALL_OUTCOMES):
                    if probs[slot] < 1e-14:
                        continue
                    _, _, post = apply_pnbm_kraus(bell, ks, forced_outcome=outcome)
                    assert abs(np.vdot(post.amplitudes, bell.amplitudes)) > 1 - 1e-10

    def test_symmetric_point_probabilities_on_bell_input(self):
        ks = kraus_set(params_from_alpha(SYM))
        probs = kraus_probabilities(ks, bell_state(1).amplitudes)
        np.testing.assert_allclose(probs, [0.75, 1 / 12, 1 / 12, 1 / 12], atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_teleport_input_is_uniform(self):
        """On |psi>_A x singlet_aB every outcome has probability 1/4."""
        rng = np.random.default_rng(21)
        for alpha in (0.0, 0.3, SYM, 1.0):
            ks = kraus_set(params_from_alpha(alpha))
            for _ in range(10):
                psi = haar_random_pure(1, rng, labels=("A",))
                state = tensor(psi, bell_state(4, labels=("a", "B")))
                for outcome in ALL_OUTCOMES:
                    _, p, _ = apply_pnbm_kraus(state, ks, forced_outcome=outcome)
                    assert p == pytest.approx(0.25, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            state = haar_random_pure(2, rng)
            ks = kraus_set(params_from_alpha(float(rng.random())))
            assert kraus_probabilities(ks, state.amplitudes).sum() == pytest.approx(1.0, abs=1e-12)

    def test_forcing_zero_probability(self):
        ks = kraus_set(params_from_alpha(1.0))
        with pytest.raises(ValueError, match="probability"):
            apply_pnbm_kraus(bell_state(1, labels=("A", "a")), ks, forced_outcome="01")

    def test_stacked_set_rejected(self):
        stack = kraus_set(params_from_alpha(np.array([0.0, 0.5])))
        with pytest.raises(ValueError, match="not a stack"):
            apply_pnbm_kraus(bell_state(1, labels=("A", "a")), stack, forced_outcome="00")


class TestNetwork:
    def test_gates_are_built_once(self, monkeypatch):
        """The wiring does not depend on alpha: building a network, reading its
        probabilities and batching rows construct no gate, and every network
        shares one gate list."""
        built = []
        post_init = GateOp.__post_init__

        def counting(gate):
            built.append(gate)
            post_init(gate)

        monkeypatch.setattr(GateOp, "__post_init__", counting)
        network = pnbm_network(params_from_alpha(0.3))
        network.outcome_probabilities(bell_state(1, labels=("A", "a")))
        rows = haar_rows(2, 2, np.random.default_rng(37))
        network_branches(rows, ("A", "a"), params_from_alpha(np.array([0.3, 0.8])))
        assert built == []
        assert network.gates is pnbm_network(params_from_alpha(0.8)).gates

    def test_gate_budget(self):
        """Four CNOTs and four Hadamards, nothing else."""
        network = pnbm_network(params_from_alpha(SYM))
        two_qubit = [g for g in network.gates if len(g.targets) == 2]
        single = [g for g in network.gates if len(g.targets) == 1]
        assert len(two_qubit) == 4 and len(single) == 4

    def test_perfect_endpoint_discriminates(self):
        network = pnbm_network(params_from_alpha(1.0))
        for k, outcome in enumerate(ALL_OUTCOMES, start=1):
            probs = network.outcome_probabilities(bell_state(k, labels=("A", "a")))
            expected = np.zeros(4)
            expected[int(outcome, 2)] = 1.0
            np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_blind_endpoint_is_identity_channel(self):
        network = pnbm_network(params_from_alpha(0.0))
        state = haar_random_pure(2, np.random.default_rng(31), labels=("A", "a"))
        probs = network.outcome_probabilities(state)
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-12)
        for outcome in ALL_OUTCOMES:
            _, _, post = network.run(state, forced_outcome=outcome)
            assert abs(np.vdot(post.amplitudes, state.amplitudes)) > 1 - 1e-10

    def test_matches_kraus_action(self):
        """Full statevector circuit vs two-qubit Kraus algebra, per outcome."""
        rng = np.random.default_rng(32)
        for alpha in (0.0, 0.3, 0.7, SYM, 1.0):
            params = params_from_alpha(alpha)
            ks = kraus_set(params)
            network = pnbm_network(params)
            for _ in range(20):
                state = haar_random_pure(2, rng, labels=("A", "a"))
                probs = kraus_probabilities(ks, state.amplitudes)
                for k, outcome in enumerate(ALL_OUTCOMES):
                    if probs[k] < 1e-14:
                        continue
                    got_net, p_net, post_net = network.run(state, forced_outcome=outcome)
                    got_kraus, p_kraus, post_kraus = apply_pnbm_kraus(
                        state, ks, forced_outcome=outcome
                    )
                    assert got_net == got_kraus == outcome
                    assert abs(p_net - p_kraus) < 1e-10
                    assert abs(np.vdot(post_net.amplitudes, post_kraus.amplitudes)) > 1 - 1e-10

    def test_spectator_qubit_untouched(self):
        """A third qubit rides through the network/readout unchanged."""
        rng = np.random.default_rng(33)
        psi = haar_random_pure(1, rng, labels=("A",))
        state = tensor(psi, bell_state(4, labels=("a", "B")))
        network = pnbm_network(params_from_alpha(0.6))
        _, _, post = network.run(state, forced_outcome="00")
        assert post.labels == ("A", "a", "B")

    def test_pre_correction_branch_structure(self):
        """Each readout branch is the coherent superposition of the
        corrected-teleport term (with that outcome's pair of unitaries
        still attached) and the untouched-input term, weighted alpha/beta."""
        rng = np.random.default_rng(34)
        for alpha in (0.3, SYM, 0.9):
            params = params_from_alpha(alpha)
            network = pnbm_network(params)
            psi = haar_random_pure(1, rng, labels=("B",))
            inp_on_a = psi.amplitudes  # same amplitudes, relabeled below
            state = tensor(
                PureState(inp_on_a, ("A",)), bell_state(4, labels=("a", "B"))
            )
            for outcome in ALL_OUTCOMES:
                _, _, branch = network.run(state, forced_outcome=outcome)
                ua, ub = _CORRECTIONS[outcome]
                teleported = tensor(bell_state(4, labels=("A", "a")), psi)
                teleported = apply_unitary(teleported, GateOp(ua, ("a",)))
                teleported = apply_unitary(teleported, GateOp(ub, ("B",)))
                kept = tensor(PureState(inp_on_a, ("A",)), bell_state(4, labels=("a", "B")))
                amps = params.alpha * teleported.amplitudes + params.beta * kept.amplitudes
                expected = PureState(amps / np.linalg.norm(amps), ("A", "a", "B"))
                assert abs(np.vdot(branch.amplitudes, expected.amplitudes)) > 1 - 1e-10


class TestNetworkBranches:
    @pytest.mark.parametrize("labels", [("A", "a"), ("A", "a", "B")])
    def test_matches_scalar_network(self, labels):
        """Per row and readout: probability and post state of ``run``, and
        ``outcome_probabilities``, within 1e-14."""
        alphas = [0.0, 0.2, 0.45, SYM, 0.8, 1.0]
        rows = np.repeat(alphas, 10)
        states = haar_rows(len(rows), len(labels), np.random.default_rng(35))
        branch = network_branches(states, labels, params_from_alpha(rows))
        assert branch.shape == (len(rows), 2 ** len(labels), 4)
        probs = (np.abs(branch) ** 2).sum(axis=1)
        for i, alpha in enumerate(rows.tolist()):
            network = pnbm_network(params_from_alpha(alpha))
            state = PureState(states[i], labels)
            assert np.max(np.abs(probs[i] - network.outcome_probabilities(state))) <= 1e-14
            for k, outcome in enumerate(ALL_OUTCOMES):
                if probs[i, k] <= 1e-14:
                    continue
                _, p, post = network.run(state, forced_outcome=outcome)
                assert abs(probs[i, k] - p) <= 1e-14
                assert np.max(np.abs(branch[i, :, k] / np.sqrt(probs[i, k]) - post.amplitudes)) <= 1e-14

    def test_rejects_bad_rows(self):
        params = params_from_alpha(np.array([0.3, 0.6]))
        good = haar_rows(2, 2, np.random.default_rng(36))
        with pytest.raises(ValueError, match="4-amplitude row"):
            network_branches(good[:1], ("A", "a"), params)
        for bad in (2 * good, np.where([[True], [False]], good, math.nan)):
            with pytest.raises(ValueError, match="input norm"):
                network_branches(bad, ("A", "a"), params)
        with pytest.raises(ValueError, match="duplicate"):
            network_branches(good, ("A", "anc1"), params)
