"""Exact complex statevector simulation for few-qubit systems.

States carry an ordered tuple of qubit labels; the leftmost label is the
most significant bit of the amplitude index, so ``|q0 q1>`` with amplitudes
``(a0, a1, a2, a3)`` assigns ``a2`` to ``|10>``. All values are immutable
after construction and all operations are pure functions; the only mutable
object is :class:`RandomSource`, which is single-owner by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for single algebraic identities (norms, unitarity, traces).
TOL_ALGEBRA = 1e-12
# Tolerance for chained circuits and equality up to global phase.
TOL_CIRCUIT = 1e-10

MAX_QUBITS = 5

class RandomSource:
    """Named, explicitly seeded PCG64 stream.

    The same seed yields a bit-identical stream, which is what makes every
    Monte-Carlo number in the test suite reproducible.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self):
        return f"RandomSource(seed={self.seed})"


def _check_labels(labels) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise ValueError("at least one qubit label is required")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate qubit labels in {labels}")
    if len(labels) > MAX_QUBITS:
        raise ValueError(f"at most {MAX_QUBITS} qubits supported, got {len(labels)}")
    return labels


class PureState:
    """Normalized complex amplitude vector over labeled qubits."""

    __slots__ = ("amplitudes", "labels")

    def __init__(self, amplitudes, labels):
        labels = _check_labels(labels)
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (2 ** len(labels),):
            raise ValueError(
                f"amplitude vector of length {amps.shape} does not match {len(labels)} qubits"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("non-finite amplitude")
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > TOL_ALGEBRA:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm2!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @classmethod
    def normalized(cls, amplitudes, labels) -> "PureState":
        """Build a state from a raw (unnormalized) amplitude vector."""
        amps = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(amps))
        if norm < 1e-300:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / norm, labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown qubit label {label!r}; state has {self.labels}") from None

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def permuted(self, labels) -> "PureState":
        """Same state with qubit axes reordered to ``labels``."""
        labels = tuple(labels)
        if set(labels) != set(self.labels):
            raise ValueError(f"label sets differ: {labels} vs {self.labels}")
        if labels == self.labels:
            return self
        src = [self.axis(l) for l in labels]
        amps = np.moveaxis(self.tensor_view(), src, range(self.n_qubits)).reshape(-1)
        return PureState(amps, labels)

    def overlap(self, other: "PureState") -> complex:
        """<self|other>, permuting axes if the label orders differ."""
        return complex(np.vdot(self.amplitudes, other.permuted(self.labels).amplitudes))

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    def __repr__(self):
        return f"PureState(n_qubits={self.n_qubits}, labels={self.labels})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over labeled qubits."""

    __slots__ = ("matrix", "labels")

    def __init__(self, matrix, labels):
        labels = _check_labels(labels)
        mat = np.array(matrix, dtype=np.complex128)
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {len(labels)} qubits")
        if np.max(np.abs(mat - mat.conj().T)) > TOL_ALGEBRA:
            raise ValueError("matrix is not Hermitian")
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > TOL_ALGEBRA:
            raise ValueError(f"trace is {tr!r}, expected 1")
        if float(np.linalg.eigvalsh(mat)[0]) < -1e-10:
            raise ValueError("matrix has a significantly negative eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def permuted(self, labels) -> "DensityMatrix":
        labels = tuple(labels)
        if set(labels) != set(self.labels):
            raise ValueError(f"label sets differ: {labels} vs {self.labels}")
        if labels == self.labels:
            return self
        n = self.n_qubits
        src = [self.labels.index(l) for l in labels]
        t = self.matrix.reshape((2,) * (2 * n))
        t = np.moveaxis(t, src + [n + s for s in src], list(range(2 * n)))
        return DensityMatrix(t.reshape(2 ** n, 2 ** n), labels)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def expectation(self, state: PureState) -> float:
        """<psi|rho|psi> for a pure state on the same qubits."""
        rho = self.permuted(state.labels)
        v = state.amplitudes
        return float(np.vdot(v, rho.matrix @ v).real)

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in self.matrix],
        }

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits}, labels={self.labels})"


# -- gates --------------------------------------------------------------------

ID2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
# Control is the first (most significant) target label.
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)

@dataclass(frozen=True, eq=False)
class GateOp:
    """Unitary acting on one or two labeled qubits."""

    matrix: np.ndarray
    targets: tuple[str, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        targets = tuple(self.targets)
        if mat.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate matrix must be 2x2 or 4x4, got {mat.shape}")
        if 2 ** len(targets) != mat.shape[0]:
            raise ValueError(f"{len(targets)} targets do not match a {mat.shape[0]}-dim gate")
        residual = float(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))))
        if residual > TOL_ALGEBRA:
            raise ValueError(f"gate matrix is not unitary (residual {residual:.3e})")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "targets", targets)


def hadamard(qubit: str) -> GateOp:
    return GateOp(HADAMARD, (qubit,))


def cnot(control: str, target: str) -> GateOp:
    return GateOp(CNOT_MATRIX, (control, target))


def _apply_matrix(tensor: np.ndarray, matrix: np.ndarray, axes: list[int]) -> np.ndarray:
    """Contract a (2^k x 2^k) matrix into the given axes of a [2]*n tensor."""
    k = len(axes)
    gate = matrix.reshape((2,) * (2 * k))
    out = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def apply_linear(state: PureState, matrix: np.ndarray, targets) -> np.ndarray:
    """Apply an arbitrary (not necessarily unitary) operator on ``targets``.

    Returns the raw, generally unnormalized amplitude vector.
    """
    axes = [state.axis(q) for q in targets]
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2 ** len(axes),) * 2:
        raise ValueError(f"operator shape {matrix.shape} does not match {len(axes)} targets")
    return _apply_matrix(state.tensor_view(), matrix, axes).reshape(-1)


def apply_unitary(state: PureState, gate: GateOp) -> PureState:
    """Apply a validated unitary gate; untouched qubits are left alone."""
    return PureState(apply_linear(state, gate.matrix, gate.targets), state.labels)


def tensor(s1: PureState, s2: PureState) -> PureState:
    """Kronecker product; s1's labels become the high-order bits."""
    common = set(s1.labels) & set(s2.labels)
    if common:
        raise ValueError(f"label collision in tensor product: {sorted(common)}")
    return PureState(np.kron(s1.amplitudes, s2.amplitudes), s1.labels + s2.labels)


def branches(state: PureState, qubits) -> tuple[np.ndarray, np.ndarray]:
    """Branch rows and weights of ``state`` over the computational basis of ``qubits``.

    Row ``i`` holds the amplitudes of the other qubits (in state order) when
    ``qubits`` read ``format(i, "0mb")``; weight ``i`` is its squared norm.
    """
    axes = [state.axis(q) for q in qubits]
    m = len(axes)
    rows = np.moveaxis(state.tensor_view(), axes, range(m)).reshape(2 ** m, -1)
    return rows, (np.abs(rows) ** 2).sum(axis=1)


def pick_outcome(probs: np.ndarray, forced_index: int | None, rng: RandomSource | None) -> int:
    """Index of the outcome to keep: ``forced_index``, or a draw from ``probs``.

    A forced outcome must have probability above 1e-14; a draw needs an rng.
    """
    n = len(probs)
    if forced_index is not None:
        p = probs[forced_index]
        if p <= 1e-14:
            bits = format(forced_index, f"0{(n - 1).bit_length()}b")
            raise ValueError(f"outcome {bits!r} has probability {p:.3e}; cannot force it")
        return forced_index
    if rng is None:
        raise ValueError("an rng is required when no outcome is forced")
    return int(rng.generator.choice(n, p=probs / probs.sum()))


def partial_trace(state: PureState, keep) -> DensityMatrix:
    """Reduced density matrix on ``keep`` (ordered as in the parent state)."""
    keep = set(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    missing = keep - set(state.labels)
    if missing:
        raise KeyError(f"unknown labels in keep set: {sorted(missing)}")
    kept_labels = tuple(l for l in state.labels if l in keep)
    rows, _ = branches(state, kept_labels)
    return DensityMatrix(rows @ rows.conj().T, kept_labels)


def fidelity(reference: PureState, rho: DensityMatrix) -> float:
    """<psi|rho|psi> between a pure reference and a mixed state."""
    if set(reference.labels) != set(rho.labels):
        raise ValueError(
            f"dimension/label mismatch: {reference.labels} vs {rho.labels}"
        )
    value = rho.expectation(reference)
    if value < -TOL_ALGEBRA or value > 1.0 + TOL_ALGEBRA:
        raise ValueError(f"fidelity {value!r} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def measure_computational(
    state: PureState,
    qubits,
    forced_outcome: str | None = None,
    rng: RandomSource | None = None,
):
    """Projective measurement in the computational basis.

    Returns ``(outcome, probability, collapsed)``. The outcome is a bit
    string ordered like ``qubits``; measured qubits are removed from the
    collapsed state. Outcomes are sampled from the exact distribution
    unless ``forced_outcome`` is given.
    """
    qubits = tuple(qubits)
    if not qubits:
        raise ValueError("measure at least one qubit")
    m = len(qubits)
    rows, probs = branches(state, qubits)
    index = None
    if forced_outcome is not None:
        if len(forced_outcome) != m or set(forced_outcome) - {"0", "1"}:
            raise ValueError(f"outcome {forced_outcome!r} is not a {m}-bit string")
        index = int(forced_outcome, 2)
    index = pick_outcome(probs, index, rng)
    probability = float(probs[index])
    remaining = tuple(l for l in state.labels if l not in qubits)
    collapsed_amps = rows[index] / np.sqrt(probability)
    if remaining:
        collapsed = PureState(collapsed_amps, remaining)
    else:
        collapsed = None
    outcome = format(index, f"0{m}b")
    return outcome, probability, collapsed


def haar_random_pure(n_qubits: int, rng: RandomSource, labels=None) -> PureState:
    """Haar-distributed pure state via normalized complex Gaussians."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
    if labels is None:
        labels = tuple(f"q{i}" for i in range(n_qubits))
    g = rng.generator
    z = g.standard_normal(2 ** n_qubits) + 1j * g.standard_normal(2 ** n_qubits)
    return PureState.normalized(z, labels)


# Bell basis: columns are the four Bell vectors over |00>,|01>,|10>,|11>.
# Index 4 is the singlet, which is the entanglement resource throughout.
BELL_MATRIX = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
        [1, -1, 0, 0],
    ],
    dtype=np.complex128,
) / np.sqrt(2.0)


def bell_state(index: int, labels=("q0", "q1")) -> PureState:
    """The four Bell states: 1,2 = (|00> +- |11>)/sqrt2; 3,4 = (|01> +- |10>)/sqrt2."""
    if index not in (1, 2, 3, 4):
        raise ValueError(f"Bell index must be 1..4, got {index}")
    return PureState(BELL_MATRIX[:, index - 1].copy(), labels)


def computational_state(bits: str, labels) -> PureState:
    """|bits> in the fixed ordering convention."""
    labels = tuple(labels)
    if len(bits) != len(labels):
        raise ValueError("bit string length must match label count")
    amps = np.zeros(2 ** len(labels), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return PureState(amps, labels)
