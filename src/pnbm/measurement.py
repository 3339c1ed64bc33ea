"""The partial non-demolition Bell measurement on a qubit pair.

Three equivalent faces of the same operation live here: the four Kraus
operators (diagonal in the Bell basis, with entry ``alpha + beta/2`` on
the detected slot and ``beta/2`` elsewhere), the four-CNOT/four-Hadamard
circuit realization with the two prepared ancillas, and the table of
self-inverse correction unitaries keyed by the two readout bits. The
circuit's parity bit is read from the first ancilla and the phase bit
from the second; that readout order makes the outcome -> Kraus-slot map
the identity, so the two readout bits are the outcome itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ancilla import ANCILLAS, AncillaParams, sigma_amplitudes, sigma_state
from .qsim import (
    BELL_MATRIX,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    apply_linear,
    apply_unitary,
    branches,
    cnot,
    compose,
    hadamard,
    measure_computational,
    pick_outcome,
    readout_index,
    require_within,
    tensor,
)


# The two readout bits; index k is Kraus slot k+1.
ALL_OUTCOMES = ("00", "01", "10", "11")
# The measured pair: the input qubit and the sender's half of the singlet.
_PAIR = ("A", "a")


class KrausSet:
    """The four measurement operators, in both the Bell and computational bases.

    ``params`` holds one setting or a 1-D stack of them; every array carries
    the stack's shape in front: ``bell_diagonals[..., k, :]`` is the
    Bell-basis diagonal of A_{k+1}, and ``operators[..., k, :, :]`` is that
    operator as a 4x4 matrix in the computational basis.
    """

    def __init__(self, params: AncillaParams):
        self.params = params
        a, b = np.asarray(params.alpha)[..., None, None], np.asarray(params.beta)[..., None, None]
        self.bell_diagonals = np.where(np.eye(4, dtype=bool), a + b / 2.0, b / 2.0)
        self.operators = (BELL_MATRIX * self.bell_diagonals[..., None, :]) @ BELL_MATRIX.conj().T


def kraus_set(params: AncillaParams) -> KrausSet:
    return KrausSet(params)


def completeness_residual(operators):
    """Max-norm of sum_k A_k^dag A_k - I per set of operators.

    ``operators`` has shape ``(..., k, d, d)`` or is a list of matrices; the
    result has the leading axes' shape, 0-d for one set.
    """
    ops = np.asarray(operators, dtype=complex)
    acc = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=-3)
    return np.abs(acc - np.eye(ops.shape[-1])).max(axis=(-2, -1))


# Correction unitaries per readout, acting on the pair qubit and the
# receiver qubit; every entry is self-inverse.
_CORRECTIONS = {
    "00": (PAULI_Y, PAULI_Y),
    "01": (PAULI_X, PAULI_X),
    "10": (PAULI_Z, PAULI_Z),
    "11": (-ID2, ID2),
}
_CORRECTIONS["11"][0].flags.writeable = False  # the qsim constants are read-only already


def correction_unitaries(bits: str):
    return _CORRECTIONS[bits]


def apply_pnbm_kraus(state: PureState, kraus: KrausSet, forced_outcome: str):
    """Apply the measurement superoperator directly via its Kraus operators.

    Works on a PureState holding at least the pair ("A", "a"); spectator
    qubits ride along untouched. ``kraus`` is one set, not a stack. The
    readout is forced: this is the reference the network's branches are
    checked against. Returns ``(outcome, probability, post_state)`` with the
    outcome's readout bits.
    """
    if np.ndim(kraus.params.alpha):
        raise ValueError("the Kraus action takes one Kraus set, not a stack")
    kets = [apply_linear(state, op, _PAIR) for op in kraus.operators]
    probs = np.array([float(np.vdot(v, v).real) for v in kets])
    k = pick_outcome(probs, readout_index(forced_outcome))
    p = float(probs[k])
    post = PureState(kets[k] / np.sqrt(p), state.labels)
    return ALL_OUTCOMES[k], p, post


@dataclass(frozen=True, eq=False)
class PnbmNetwork:
    """The measurement on ("A", "a") as a circuit: one gate list shared by
    every setting, and the ``params`` that prepare the ancillas.

    Two CNOTs write the bit parity of the measured pair onto anc1; a
    Hadamard sandwich plus two CNOTs write the phase parity onto anc2.
    Reading both ancillas in the computational basis induces exactly the
    Kraus action of :func:`kraus_set` on the pair.
    """

    params: AncillaParams
    # Only the ancillas' state depends on the parameters, so the gates are
    # built once, as a class attribute rather than a field.
    gates = (
        *[cnot(q, ANCILLAS[0]) for q in _PAIR],
        *map(hadamard, _PAIR),
        *[cnot(q, ANCILLAS[1]) for q in _PAIR],
        *map(hadamard, _PAIR),
    )

    def _evolve(self, state: PureState) -> PureState:
        """Attach the ancillas and run the gates; nothing is read out yet."""
        full = tensor(state, sigma_state(self.params))
        for gate in self.gates:
            full = apply_unitary(full, gate)
        return full

    def run(
        self,
        state: PureState,
        forced_outcome: str | None = None,
        rng: np.random.Generator | None = None,
    ):
        """Attach the ancillas, run the circuit, read the ancillas out.

        Returns ``(outcome, probability, post_state)`` where the outcome is
        the readout bits and the post state keeps the original qubits only.
        """
        return measure_computational(
            self._evolve(state), ANCILLAS, forced_outcome=forced_outcome, rng=rng
        )

    def outcome_probabilities(self, state: PureState) -> np.ndarray:
        """Exact readout distribution, ordered 00, 01, 10, 11."""
        return branches(self._evolve(state), ANCILLAS)[1]


def pnbm_network(params: AncillaParams) -> PnbmNetwork:
    """The measurement circuit on the pair ("A", "a") and ANCILLAS for ``params``."""
    return PnbmNetwork(params)


def network_branches(amplitudes, labels, params: AncillaParams) -> np.ndarray:
    """The measurement network on every row at once, up to the readout.

    Row i of ``amplitudes``, shape ``(n, 2**m)``, is a normalised state over
    the ``m`` qubits ``labels``, which include the measured pair ("A", "a");
    entry i of the stacked ``params`` prepares that row's ancillas. The
    gates are composed once into one unitary over ``labels + ANCILLAS`` and
    applied to all rows in one matmul. Returns the ``(n, 2**m, 4)``
    unnormalised amplitudes of ``labels`` per readout 00, 01, 10, 11:
    ``[i, :, k]`` is the post state ``PnbmNetwork.run`` gives row i for
    readout k, times the square root of its probability, and the squared
    norms over axis 1 are ``outcome_probabilities``.
    """
    labels = tuple(labels)
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    n, dim = np.size(params.alpha), 2 ** len(labels)
    if n == 0 or amplitudes.shape != (n, dim):
        raise ValueError(
            f"need one {dim}-amplitude row per params entry, got {amplitudes.shape} for {n}"
        )
    require_within((np.abs(amplitudes) ** 2).sum(axis=1) - 1.0, "input norm")
    # Right-multiplying by a contiguous transpose keeps the matmul on BLAS.
    unitary_t = np.ascontiguousarray(compose(PnbmNetwork.gates, labels + ANCILLAS).T)
    sigma = sigma_amplitudes(params.alpha, params.beta).reshape(n, 4)
    # The ancillas are the low bits, so the readout is the last axis.
    joint = np.einsum("ni,nk->nik", amplitudes, sigma).reshape(n, 4 * dim)
    return (joint @ unitary_t).reshape(n, dim, 4)
