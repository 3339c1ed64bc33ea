"""Exact complex statevector simulation for few-qubit systems.

States carry an ordered tuple of qubit labels; the leftmost label is the
most significant bit of the amplitude index, so ``|q0 q1>`` with amplitudes
``(a0, a1, a2, a3)`` assigns ``a2`` to ``|10>``. All values are immutable
after construction and all operations are pure functions. The mutable
objects are the ``np.random.Generator`` that a caller passes in and two
process-wide caches that only grow: ``_CHECKED_LABELS``, the label tuples
already checked, and ``_contraction_plan``'s ``lru_cache``.
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

    ``ok`` and ``values`` are a bool and a float, or arrays of one shape whose
    message also names the row (first axis); NaN must fail ``ok``. A passing scalar
    returns on an identity test: even a numpy bool's ``.all()`` costs microseconds.
    """
    if ok is True or ok is np.True_:
        return
    if np.ndim(ok) == 0:
        raise ValueError(message.format(values))
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), ok.shape)
        raise ValueError(message.format(values[first].item()) + f" (row {first[0]})")


def require_within(deviation, what: str) -> None:
    """Each entry of ``deviation`` (a number or an array) is within ``TOL_ALGEBRA`` of 0."""
    worst = abs(deviation)  # a numpy scalar's .max() costs microseconds, so arrays only
    worst = float(worst.max() if isinstance(worst, np.ndarray) else worst)
    if not worst <= TOL_ALGEBRA:
        raise ValueError(f"{what} off by {worst!r} (tolerance {TOL_ALGEBRA})")


def require_unitary(matrices, what: str) -> None:
    """Each ``(d, d)`` matrix of ``matrices``, one or a stack, is unitary at ``TOL_ALGEBRA``."""
    product = matrices @ matrices.conj().swapaxes(-1, -2)
    product.reshape(product.shape[:-2] + (-1,))[..., :: matrices.shape[-1] + 1] -= 1.0  # minus I
    residual = abs(product).max(axis=(-2, -1))
    require_entries(residual <= TOL_ALGEBRA, residual, f"{what} is not unitary (residual {{:.3e}})")


def require_density(matrices, what: str) -> None:
    """Each 2x2 matrix of ``matrices``, one or a stack, is a one-qubit density matrix.

    Hermitian and of unit trace at ``TOL_ALGEBRA``, with no eigenvalue below
    -1e-10; NaN fails. Every marginal either engine builds is one qubit's, so
    the lowest eigenvalue is taken in closed form; any other shape raises.
    """
    if matrices.shape[-2:] != (2, 2):
        raise ValueError(f"{what} has shape {matrices.shape}; need 2x2 matrices")
    require_within(matrices - matrices.conj().swapaxes(-1, -2), f"{what} - its Hermitian conjugate")
    require_within(matrices.trace(axis1=-2, axis2=-1) - 1.0, f"{what} trace")
    p, q = matrices[..., 0, 0].real, matrices[..., 1, 1].real  # [[p, c], [c*, q]]
    lowest = (p + q) / 2.0 - np.hypot((p - q) / 2.0, abs(matrices[..., 0, 1]))
    require_entries(lowest >= -1e-10, lowest, f"{what} has a negative eigenvalue {{:.3e}}")


def clamp_fidelities(values):
    """``values``, a float or an array of fidelities, clipped to [0, 1] once each
    is checked within ``TOL_ALGEBRA`` of that range; NaN fails."""
    ok = (values >= -TOL_ALGEBRA) & (values <= 1.0 + TOL_ALGEBRA)
    require_entries(ok, values, "fidelity {!r} outside [0, 1]")
    if isinstance(values, float):  # np.clip costs microseconds on one float
        return min(max(values, 0.0), 1.0)
    return values.clip(0.0, 1.0)


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


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite 2x2 matrix of one labeled qubit."""

    __slots__ = ("matrix", "labels")

    def __init__(self, matrix, labels):
        labels = _check_labels(labels)
        if len(labels) != 1:
            raise ValueError(f"a density matrix holds one qubit, got {len(labels)} labels")
        mat = np.array(matrix, dtype=np.complex128)
        require_density(mat, "density matrix")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    def expectation(self, state: PureState) -> float:
        """<psi|rho|psi> for a pure state over the same labels in the same order."""
        if state.labels != self.labels:  # states are compared in one label order
            raise ValueError(f"label mismatch: {state.labels} vs {self.labels}")
        v = state.amplitudes
        return float(np.vdot(v, self.matrix @ v).real)


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
        require_unitary(mat, "gate matrix")
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
    require_unitary(matrix, "composed circuit")
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


def pick_outcome(probs: np.ndarray, forced_index: int | None = None, uniforms=None) -> np.ndarray:
    """Index of the outcome to keep on each row of ``probs``, of shape ``(rows, n)``.

    A forced index must have probability above ``MIN_FORCED_PROBABILITY`` on
    every row and is kept as is. Otherwise row i takes ``uniforms[i]``, a
    value ``u`` in [0, 1), and picks the first index whose normalised
    cumulative probability exceeds ``u``. With ``u = rng.random()`` that is
    the draw ``Generator.choice(n, p=probs[i] / probs[i].sum())`` makes, so
    the index and the generator state after it are the same.
    Returns an int array, one index per row.
    """
    # ndarray methods, not np.all/np.any: this runs once per scalar measurement.
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError(f"outcome probabilities must be (rows, n), got shape {probs.shape}")
    rows, n = probs.shape
    if forced_index is not None:
        lowest = probs[:, forced_index].min()
        if not lowest > MIN_FORCED_PROBABILITY:
            bits = format(forced_index, f"0{(n - 1).bit_length()}b")
            raise ValueError(f"outcome {bits!r} has probability {lowest:.3e}; cannot force it")
        return np.full(rows, forced_index)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    if uniforms.shape != (rows,):
        raise ValueError(f"need one uniform per row, got shape {uniforms.shape}")
    require_entries((uniforms >= 0.0) & (uniforms < 1.0), uniforms, "uniform {!r} outside [0, 1)")
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
    # The count of cdf entries <= u is searchsorted(cdf, u, side="right").
    return (cdf <= uniforms[:, None]).sum(axis=-1)


def partial_trace(state: PureState, label: str) -> DensityMatrix:
    """Reduced density matrix of the one qubit ``label``."""
    rows, _ = branches(state, (label,))
    return DensityMatrix(rows @ rows.conj().T, (label,))


def fidelity(reference: PureState, rho: DensityMatrix) -> float:
    """<psi|rho|psi> between a pure reference and a mixed state over the same labels."""
    return clamp_fidelities(rho.expectation(reference))


def readout_index(bits: str, width: int = 2) -> int:
    """``int(bits, 2)`` for a ``width``-bit readout string; anything else raises ValueError."""
    if not isinstance(bits, str) or len(bits) != width or set(bits) - {"0", "1"}:
        raise ValueError(f"outcome {bits!r} is not a {width}-bit string")
    return int(bits, 2)


def measure_computational(
    state: PureState,
    qubits,
    forced_outcome: str | None = None,
    rng: np.random.Generator | None = None,
):
    """Projective measurement in the computational basis.

    Returns ``(outcome, probability, collapsed)``. The outcome is a bit
    string ordered like ``qubits``; the collapsed state keeps the other
    qubits, at least one. Outcomes are sampled from the exact distribution
    unless ``forced_outcome`` is given.
    """
    qubits = tuple(qubits)
    if not qubits:
        raise ValueError("measure at least one qubit")
    m = len(qubits)
    rows, probs = branches(state, qubits)
    index = None if forced_outcome is None else readout_index(forced_outcome, m)
    if index is None and rng is None:
        raise ValueError("an rng is required when no outcome is forced")
    uniforms = None if index is not None else [rng.random()]  # the one double choice draws
    index = int(pick_outcome(probs[None], index, uniforms)[0])
    probability = float(probs[index])
    remaining = tuple(l for l in state.labels if l not in qubits)
    collapsed = PureState(rows[index] / np.sqrt(probability), remaining)
    return format(index, f"0{m}b"), probability, collapsed


def haar_random_pure(n_qubits: int, rng: np.random.Generator, labels=None) -> PureState:
    """Haar-distributed pure state: the one row of ``haar_rows(1, n_qubits, rng)``."""
    if labels is None:
        labels = tuple(f"q{i}" for i in range(n_qubits))
    return PureState(haar_rows(1, n_qubits, rng)[0], labels)


def haar_rows(n: int, n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """``(n, 2**n_qubits)`` amplitudes of ``n`` Haar-distributed pure states.

    Each row is a normalised complex Gaussian, its real then its imaginary
    parts drawn in turn, so the rows and the generator state afterwards are
    those of ``n`` calls to ``haar_random_pure(n_qubits, rng)``.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}")
    normals = rng.standard_normal((n, 2, 2 ** n_qubits))
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
for _matrix in (ID2, PAULI_X, PAULI_Y, PAULI_Z, HADAMARD, CNOT_MATRIX, BELL_MATRIX):
    _matrix.flags.writeable = False  # every module shares them, so none may change


def bell_state(index: int, labels=("q0", "q1")) -> PureState:
    """The four Bell states: 1,2 = (|00> +- |11>)/sqrt2; 3,4 = (|01> +- |10>)/sqrt2."""
    if index not in (1, 2, 3, 4):
        raise ValueError(f"Bell index must be 1..4, got {index}")
    return PureState(BELL_MATRIX[:, index - 1], labels)

