"""The partial non-demolition Bell measurement on a qubit pair.

Three equivalent faces of the same operation live here: the four Kraus
operators (diagonal in the Bell basis, with entry ``alpha + beta/2`` on
the detected slot and ``beta/2`` elsewhere), the four-CNOT/four-Hadamard
circuit realization with the two prepared ancillas, and the table of
self-inverse correction unitaries keyed by the two readout bits. The
circuit's parity bit is read from the first ancilla and the phase bit
from the second; that readout order makes the outcome -> Kraus-slot map
the identity, so the two readout bits are the outcome label itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ancilla import AncillaParams, sigma_state
from .qsim import (
    BELL_MATRIX,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    GateOp,
    PureState,
    RandomSource,
    apply_linear,
    apply_unitary,
    branches,
    cnot,
    hadamard,
    measure_computational,
    pick_outcome,
    tensor,
)


@dataclass(frozen=True)
class OutcomeLabel:
    """Two readout bits (i, j); Kraus slots 1..4 correspond to 00,01,10,11."""

    i: int
    j: int

    def __post_init__(self):
        if self.i not in (0, 1) or self.j not in (0, 1):
            raise ValueError(f"outcome bits must be 0/1, got ({self.i}, {self.j})")

    @property
    def bits(self) -> str:
        return f"{self.i}{self.j}"

    @property
    def kraus_index(self) -> int:
        return 1 + 2 * self.i + self.j

    @classmethod
    def from_bits(cls, bits: str) -> "OutcomeLabel":
        if len(bits) != 2 or set(bits) - {"0", "1"}:
            raise ValueError(f"expected a 2-bit string, got {bits!r}")
        return cls(int(bits[0]), int(bits[1]))

    @classmethod
    def from_kraus_index(cls, k: int) -> "OutcomeLabel":
        if k not in (1, 2, 3, 4):
            raise ValueError(f"Kraus index must be 1..4, got {k}")
        return cls((k - 1) // 2, (k - 1) % 2)


ALL_OUTCOMES = tuple(OutcomeLabel.from_kraus_index(k) for k in (1, 2, 3, 4))


class KrausSet:
    """The four measurement operators, in both the Bell and computational bases."""

    def __init__(self, params: AncillaParams):
        self.params = params
        a, b = params.alpha, params.beta
        diags = np.full((4, 4), b / 2.0)
        np.fill_diagonal(diags, a + b / 2.0)
        self.bell_diagonals = diags  # row k-1 holds the Bell-basis diagonal of A_k
        self.operators = [
            (BELL_MATRIX * d) @ BELL_MATRIX.conj().T for d in diags
        ]

    def completeness_residual(self) -> float:
        acc = sum(op.conj().T @ op for op in self.operators)
        return float(np.max(np.abs(acc - np.eye(4))))

    def probabilities(self, state_vector: np.ndarray) -> np.ndarray:
        """<A_k^dag A_k> for a two-qubit amplitude vector."""
        return np.array(
            [float(np.linalg.norm(op @ state_vector) ** 2) for op in self.operators]
        )


def kraus_set(params: AncillaParams) -> KrausSet:
    return KrausSet(params)


def completeness_residual(kraus) -> float:
    """Max-norm of sum_k A_k^dag A_k - I for a KrausSet or a list of matrices."""
    if isinstance(kraus, KrausSet):
        return kraus.completeness_residual()
    operators = [np.asarray(op, dtype=complex) for op in kraus]
    acc = sum(op.conj().T @ op for op in operators)
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


# Correction unitaries per readout, acting on the pair qubit and the
# receiver qubit; every entry is self-inverse.
_CORRECTIONS = {
    "00": (PAULI_Y, PAULI_Y),
    "01": (PAULI_X, PAULI_X),
    "10": (PAULI_Z, PAULI_Z),
    "11": (-ID2, ID2),
}


def correction_unitaries(outcome: OutcomeLabel):
    ua, ub = _CORRECTIONS[outcome.bits]
    return ua.copy(), ub.copy()


def _normalize_outcome(forced_outcome) -> OutcomeLabel | None:
    if forced_outcome is None:
        return None
    if isinstance(forced_outcome, OutcomeLabel):
        return forced_outcome
    return OutcomeLabel.from_bits(str(forced_outcome))


def apply_pnbm_kraus(
    state: PureState,
    targets,
    kraus: KrausSet,
    forced_outcome=None,
    rng: RandomSource | None = None,
):
    """Apply the measurement superoperator directly via its Kraus operators.

    Works on a PureState holding at least the two target qubits; spectator
    qubits ride along untouched. Returns ``(outcome, probability, post_state)``.
    """
    targets = tuple(targets)
    if len(targets) != 2:
        raise ValueError("the measurement acts on exactly two qubits")
    forced = _normalize_outcome(forced_outcome)
    kets = [apply_linear(state, op, targets) for op in kraus.operators]
    probs = np.array([float(np.vdot(v, v).real) for v in kets])
    k = pick_outcome(probs, None if forced is None else forced.kraus_index - 1, rng)
    p = float(probs[k])
    post = PureState(kets[k] / np.sqrt(p), state.labels)
    return OutcomeLabel.from_kraus_index(k + 1), p, post


@dataclass(frozen=True, eq=False)
class PnbmNetwork:
    """Gate list plus readout plan realizing the measurement as a circuit.

    Two CNOTs write the bit parity of the measured pair onto the first
    ancilla; a Hadamard sandwich plus two CNOTs write the phase parity onto
    the second. Reading both ancillas in the computational basis induces
    exactly the Kraus action of :func:`kraus_set` on the pair.
    """

    params: AncillaParams
    targets: tuple[str, str]
    ancillas: tuple[str, str]
    gates: tuple[GateOp, ...]

    def _evolve(self, state: PureState) -> PureState:
        """Attach the ancillas and run the gates; nothing is read out yet."""
        full = tensor(state, sigma_state(self.params, self.ancillas))
        for gate in self.gates:
            full = apply_unitary(full, gate)
        return full

    def run(self, state: PureState, forced_outcome=None, rng: RandomSource | None = None):
        """Attach the ancillas, run the circuit, read the ancillas out.

        Returns ``(outcome, probability, post_state)`` where the post state
        keeps the original qubits only.
        """
        forced = _normalize_outcome(forced_outcome)
        bits, prob, collapsed = measure_computational(
            self._evolve(state),
            self.ancillas,
            forced_outcome=None if forced is None else forced.bits,
            rng=rng,
        )
        return OutcomeLabel.from_bits(bits), prob, collapsed

    def outcome_probabilities(self, state: PureState) -> np.ndarray:
        """Exact readout distribution, ordered 00, 01, 10, 11."""
        return branches(self._evolve(state), self.ancillas)[1]


def pnbm_network(
    params: AncillaParams,
    targets=("A", "a"),
    ancillas=("anc1", "anc2"),
) -> PnbmNetwork:
    """Build the measurement circuit for the given pair and ancilla labels."""
    qa, qb = targets
    anc_parity, anc_phase = ancillas
    gates = (
        cnot(qa, anc_parity),
        cnot(qb, anc_parity),
        hadamard(qa),
        hadamard(qb),
        cnot(qa, anc_phase),
        cnot(qb, anc_phase),
        hadamard(qa),
        hadamard(qb),
    )
    return PnbmNetwork(params=params, targets=(qa, qb), ancillas=(anc_parity, anc_phase), gates=gates)
