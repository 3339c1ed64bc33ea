"""Exact complex statevector simulation for few-qubit systems.

States carry an ordered tuple of qubit labels; the leftmost label is the
most significant bit of the amplitude index, so ``|q0 q1>`` with amplitudes
``(a0, a1, a2, a3)`` assigns ``a2`` to ``|10>``. All values are immutable
after construction and all operations are pure functions; the only mutable
object is :class:`RandomSource`, which is single-owner by convention.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Tolerance for single algebraic identities (norms, unitarity, traces).
TOL_ALGEBRA = 1e-12

# A forced outcome needs a probability above this floor.
MIN_FORCED_PROBABILITY = 1e-14

MAX_QUBITS = 5


def require_entries(ok, values, message: str) -> None:
    """Raise ``ValueError(message.format(value))`` at the first entry where ``ok`` fails.

    ``ok`` and ``values`` are a bool and a float, or 1-D arrays whose message
    also names the row; NaN must fail ``ok``. A passing scalar returns on an
    identity test: even a numpy bool's ``.all()`` costs microseconds.
    """
    if ok is True or ok is np.True_:
        return
    if np.ndim(ok) == 0:
        raise ValueError(message.format(values))
    if not ok.all():
        row = int(np.argmin(ok))
        raise ValueError(message.format(values[row].item()) + f" (row {row})")

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


# Label tuples that passed _check_labels: tuples of str, so no other tuple equals one.
_CHECKED_LABELS: set[tuple[str, ...]] = set()


def _check_labels(labels) -> tuple[str, ...]:
    if labels.__class__ is tuple and labels in _CHECKED_LABELS:
        return labels
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise ValueError("at least one qubit label is required")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate qubit labels in {labels}")
    if len(labels) > MAX_QUBITS:
        raise ValueError(f"at most {MAX_QUBITS} qubits supported, got {len(labels)}")
    _CHECKED_LABELS.add(labels)
    return labels


def _require_same_labels(ours, theirs) -> None:
    """States are compared in one label order; any other pair of labels raises."""
    if ours != theirs:
        raise ValueError(f"label mismatch: {theirs} vs {ours}")


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
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= TOL_ALGEBRA:  # a NaN or infinite amplitude fails too
            if not np.isfinite(amps.view(np.float64)).all():
                raise ValueError("non-finite amplitude")
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

    def overlap(self, other: "PureState") -> complex:
        """<self|other> for a state over the same labels in the same order."""
        _require_same_labels(self.labels, other.labels)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

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
        # Each check is written so that NaN fails it.
        if not abs(mat - mat.conj().T).max() <= TOL_ALGEBRA:
            raise ValueError("matrix is not Hermitian")
        tr = float(np.trace(mat).real)
        if not abs(tr - 1.0) <= TOL_ALGEBRA:
            raise ValueError(f"trace is {tr!r}, expected 1")
        if not float(np.linalg.eigvalsh(mat)[0]) >= -1e-10:
            raise ValueError("matrix has a significantly negative eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def expectation(self, state: PureState) -> float:
        """<psi|rho|psi> for a pure state over the same labels in the same order."""
        _require_same_labels(self.labels, state.labels)
        v = state.amplitudes
        return float(np.vdot(v, self.matrix @ v).real)

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
# The identity each gate's unitarity is measured against, by gate dimension.
_GATE_EYE = {2: np.eye(2), 4: np.eye(4)}

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
        residual = float(abs(mat @ mat.conj().T - _GATE_EYE[mat.shape[0]]).max())
        if not residual <= TOL_ALGEBRA:  # NaN fails too
            raise ValueError(f"gate matrix is not unitary (residual {residual:.3e})")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "targets", targets)


def hadamard(qubit: str) -> GateOp:
    return GateOp(HADAMARD, (qubit,))


def cnot(control: str, target: str) -> GateOp:
    return GateOp(CNOT_MATRIX, (control, target))


@functools.lru_cache(maxsize=None)  # keys are few: at most MAX_QUBITS axes of size 2
def _contraction_plan(shape: tuple[int, ...], axes: tuple[int, ...]):
    """``(into, out_shape, back)`` for a gate on ``axes`` of a tensor of ``shape``.

    ``into`` moves the target axes to the front, ``out_shape`` is the product's
    shape before the move back, and ``back`` is the inverse of ``into``: the
    transposes that ``np.tensordot`` and then ``np.moveaxis`` would make.
    """
    rest = tuple(i for i in range(len(shape)) if i not in axes)
    into = axes + rest
    out_shape = (2,) * len(axes) + tuple(shape[i] for i in rest)
    back = tuple(into.index(i) for i in range(len(into)))
    return into, out_shape, back


def _apply_matrix(tensor: np.ndarray, matrix: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract a (2^k x 2^k) matrix into the given axes of a [2]*n tensor.

    The axes may be followed by other ones (``compose``'s column axis). The
    result is ``np.moveaxis(np.tensordot(gate, tensor, ...), ...)`` bit for bit:
    the same ``np.dot`` on the same operands, then the same transpose.
    """
    into, out_shape, back = _contraction_plan(tensor.shape, axes)
    out = np.dot(matrix, tensor.transpose(into).reshape(matrix.shape[1], -1))
    return out.reshape(out_shape).transpose(back)


def apply_linear(state: PureState, matrix: np.ndarray, targets) -> np.ndarray:
    """Apply an arbitrary (not necessarily unitary) operator on ``targets``.

    Returns the raw, generally unnormalized amplitude vector.
    """
    axes = tuple(state.axis(q) for q in targets)
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2 ** len(axes),) * 2:
        raise ValueError(f"operator shape {matrix.shape} does not match {len(axes)} targets")
    return _apply_matrix(state.tensor_view(), matrix, axes).reshape(-1)


def apply_unitary(state: PureState, gate: GateOp) -> PureState:
    """Apply a validated unitary gate; untouched qubits are left alone."""
    return PureState(apply_linear(state, gate.matrix, gate.targets), state.labels)


def compose(gates, labels) -> np.ndarray:
    """The gates, applied in order, as one unitary matrix over ``labels``.

    Checked unitary once, at ``TOL_ALGEBRA``.
    """
    labels = _check_labels(labels)
    dim = 2 ** len(labels)
    columns = np.eye(dim, dtype=np.complex128).reshape((2,) * len(labels) + (dim,))
    for gate in gates:
        columns = _apply_matrix(columns, gate.matrix, tuple(map(labels.index, gate.targets)))
    matrix = columns.reshape(dim, dim)
    residual = float(np.max(np.abs(matrix @ matrix.conj().T - np.eye(dim))))
    if not residual <= TOL_ALGEBRA:
        raise ValueError(f"composed circuit is not unitary (residual {residual:.3e})")
    return matrix


def tensor(s1: PureState, s2: PureState) -> PureState:
    """Kronecker product; s1's labels become the high-order bits."""
    common = set(s1.labels) & set(s2.labels)
    if common:
        raise ValueError(f"label collision in tensor product: {sorted(common)}")
    amplitudes = np.multiply.outer(s1.amplitudes, s2.amplitudes).reshape(-1)  # np.kron's products
    return PureState(amplitudes, s1.labels + s2.labels)


def branches(state: PureState, qubits) -> tuple[np.ndarray, np.ndarray]:
    """Branch rows and weights of ``state`` over the computational basis of ``qubits``.

    Row ``i`` holds the amplitudes of the other qubits (in state order) when
    ``qubits`` read ``format(i, "0mb")``; weight ``i`` is its squared norm.
    """
    axes = tuple(state.axis(q) for q in qubits)
    view = state.tensor_view()
    into, _, _ = _contraction_plan(view.shape, axes)  # np.moveaxis(view, axes, range(m))
    rows = view.transpose(into).reshape(2 ** len(axes), -1)
    return rows, (np.abs(rows) ** 2).sum(axis=1)


# Generator.choice's tolerance on the sum of the normalised probabilities.
_CHOICE_SUM_TOL = float(np.sqrt(np.finfo(np.float64).eps))


def pick_outcome(
    probs: np.ndarray,
    forced_index: int | None = None,
    rng: RandomSource | None = None,
    uniforms: np.ndarray | None = None,
):
    """Index of the outcome to keep for ``probs`` of shape ``(n,)`` or ``(rows, n)``.

    A forced index must have probability above ``MIN_FORCED_PROBABILITY`` (on
    every row) and is kept as is. Otherwise each row takes one uniform ``u``,
    drawn in row order by ``rng.generator.random()`` unless ``uniforms`` holds
    them already, and picks the first index whose normalised cumulative
    probability exceeds ``u``. That is the draw
    ``Generator.choice(n, p=probs / probs.sum())`` makes, so the index and the
    generator state after the call are the same.
    Returns an int for one distribution and an int array for rows of them.
    """
    # ndarray methods, not np.all/np.any: this runs once per scalar measurement.
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[-1]
    if forced_index is not None:
        p = probs[..., forced_index]
        lowest = p if probs.ndim == 1 else p.min()
        if not lowest > MIN_FORCED_PROBABILITY:
            bits = format(forced_index, f"0{(n - 1).bit_length()}b")
            raise ValueError(f"outcome {bits!r} has probability {lowest:.3e}; cannot force it")
        return forced_index if probs.ndim == 1 else np.full(probs.shape[0], forced_index)
    if rng is None and uniforms is None:
        raise ValueError("an rng or uniforms are required when no outcome is forced")
    # Every check before the division, so a bad row raises instead of warning.
    if not (probs.min() >= 0.0 and probs.max() < np.inf):  # NaN fails too
        what = "nonnegative" if np.isfinite(probs).all() else "finite"
        raise ValueError(f"outcome probabilities must be {what}")
    sums = probs.sum(axis=-1, keepdims=True)
    if not (sums.min() > 0.0 and sums.max() < np.inf):
        raise ValueError("outcome probabilities must have a finite, positive sum on every row")
    cdf = (probs / sums).cumsum(axis=-1)
    total = cdf[..., -1:]
    if not abs(total - 1.0).max() <= _CHOICE_SUM_TOL:
        raise ValueError("outcome probabilities do not sum to 1")
    cdf /= total
    if uniforms is None:
        uniforms = rng.generator.random(probs.shape[:-1] or None)
    elif np.shape(uniforms) != probs.shape[:-1]:
        raise ValueError(f"need one uniform per row, got shape {np.shape(uniforms)}")
    # The count of cdf entries <= u is searchsorted(cdf, u, side="right").
    index = (cdf <= np.asarray(uniforms)[..., None]).sum(axis=-1)
    return int(index) if probs.ndim == 1 else index


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
    """<psi|rho|psi> between a pure reference and a mixed state over the same labels."""
    value = rho.expectation(reference)
    if not -TOL_ALGEBRA <= value <= 1.0 + TOL_ALGEBRA:  # NaN fails too
        raise ValueError(f"fidelity {value!r} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def readout_index(bits: str, width: int = 2) -> int:
    """``int(bits, 2)`` for a ``width``-bit readout string; anything else raises ValueError."""
    if not isinstance(bits, str) or len(bits) != width or set(bits) - {"0", "1"}:
        raise ValueError(f"outcome {bits!r} is not a {width}-bit string")
    return int(bits, 2)


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
    index = None if forced_outcome is None else readout_index(forced_outcome, m)
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


def haar_rows(n: int, n_qubits: int, rng: RandomSource) -> np.ndarray:
    """``(n, 2**n_qubits)`` amplitudes of ``n`` calls to ``haar_random_pure(n_qubits, rng)``.

    One draw of ``(n, 2, 2**n_qubits)`` normals takes each row's real then
    imaginary parts in the scalar order, so the rows (up to the rounding of
    the norm) and the generator state afterwards are those of the loop.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
    normals = rng.generator.standard_normal((n, 2, 2 ** n_qubits))
    z = normals[:, 0] + 1j * normals[:, 1]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


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
