"""Information-disturbance analysis of the measurement as a two-qubit operation.

For Haar-random pure two-qubit inputs the mean operation fidelity and the
mean estimation fidelity of the measurement come out of the Kraus set as

    F_op  = (4 + sum_k |Tr A_k|^2) / 20
    F_est = (4 + sum_k lambda_k) / 20,   lambda_k = max eig of A_k^dag A_k,

which reduce to the closed forms ``(1 + (alpha + 2 beta)^2)/5`` and
``(1 + (alpha + beta/2)^2)/5``. The pair saturates the two-qubit
disturbance/gain trade-off; a Haar Monte-Carlo estimator serves as the
independent oracle for both numbers, and the mean over the 60 two-qubit
stabilizer states (a complex projective 3-design, so its plain mean equals
the Haar mean exactly) as an oracle that does not sample.
"""

from __future__ import annotations

import functools
import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .ancilla import AncillaParams
from .measurement import KrausSet, completeness_residual
from .qsim import BELL_MATRIX, RandomSource, require_entries

MIN_MC_SAMPLES = 1000
# The estimator holds about 80 bytes per sample (two rows' real halves and the
# two sample arrays); the CLI rejects larger counts at parse time.
MAX_MC_SAMPLES = 10**7


@dataclass(frozen=True)
class MeanFidelityPair:
    """Mean (operation, estimation) fidelities, floats or 1-D stacks; Monte Carlo adds stderrs."""

    f_op: float | np.ndarray
    f_est: float | np.ndarray
    stderr_op: float | np.ndarray | None = None
    stderr_est: float | np.ndarray | None = None

    def __post_init__(self):
        for value in (self.f_op, self.f_est):
            ok = (0.0 <= value) & (value <= 1.0)
            require_entries(ok, value, "mean fidelity {!r} outside [0, 1]")


def _entries(values):
    """A float for one set, the array of per-entry values for a stack."""
    return values if np.ndim(values) else float(values)


def mean_fidelities_from_kraus(kraus: KrausSet) -> MeanFidelityPair:
    """Evaluate the trace/eigenvalue formulas on the operator matrices, per entry of a stack."""
    residual = completeness_residual(kraus.operators)
    require_entries(residual <= 1e-10, residual, "Kraus set is not complete (residual {:.3e})")
    traces = np.trace(kraus.operators, axis1=-2, axis2=-1)
    # float_power is libm pow, as float ** is: a stack matches its floats bit for bit.
    trace_sum = np.float_power(np.abs(traces), 2.0).sum(axis=-1)
    # A_k^dag A_k is diagonal in the Bell basis; its top eigenvalue is the
    # largest squared diagonal entry (a dense eigensolver cross-checks this
    # in the tests).
    lambda_sum = (kraus.bell_diagonals ** 2).max(axis=-1).sum(axis=-1)
    return MeanFidelityPair(
        f_op=_entries((4.0 + trace_sum) / 20.0),
        f_est=_entries((4.0 + lambda_sum) / 20.0),
    )


def mean_fidelities_closed(params: AncillaParams) -> MeanFidelityPair:
    a, b = params.alpha, params.beta
    # float_power is libm pow, as float ** is: a stack matches its floats bit for bit.
    return MeanFidelityPair(
        f_op=(1.0 + np.float_power(a + 2.0 * b, 2.0)) / 5.0,
        f_est=(1.0 + np.float_power(a + b / 2.0, 2.0)) / 5.0,
    )


def tradeoff_residual(f_op, f_est, d: int):
    """Slack in Banaszek's trade-off (quant-ph/0008123) for a d-dimensional input,
    sqrt(F_op - 1/(d+1)) <= sqrt(F_est - 1/(d+1)) + sqrt((d-1)(2/(d+1) - F_est)).

    d = 4 is this measurement's two-qubit trade-off; d = 2 is the optimal
    measure-and-prepare frontier of ``bounds``. Returns right-hand side minus
    left-hand side, per entry of a stack: nonnegative (within tolerance)
    means the bound holds, zero means saturation. Pairs outside the
    radicals' domain are reported as errors rather than clamped; a NaN entry
    gives a NaN residual, which every gate fails.
    """
    floor, ceiling = 1 / (d + 1), 2 / (d + 1)
    require_entries(np.logical_not(f_est > ceiling + 1e-12), f_est,
                    f"estimation fidelity {{!r}} exceeds the 2/{d + 1} limit")
    require_entries(np.logical_not(f_op < floor - 1e-12), f_op,
                    f"operation fidelity {{!r}} below the 1/{d + 1} limit")
    rhs = np.sqrt(np.maximum(f_est - floor, 0.0))
    rhs = rhs + np.sqrt(np.maximum((d - 1) * (ceiling - f_est), 0.0))
    lhs = np.sqrt(np.maximum(f_op - floor, 0.0))
    return rhs - lhs


def haar_two_qubit_block(n_samples: int, rng: RandomSource) -> np.ndarray:
    """Real half of the raw Gaussian block behind n_samples Haar-random two-qubit states.

    Shape (n_samples, 4): one ``standard_normal((n_samples, 4))`` call, which
    leaves ``rng`` at the imaginary parts. Row i plus i times the stream's next
    (n_samples, 4) draws, normalised, is a Haar-random pure state.
    """
    return rng.generator.standard_normal((n_samples, 4))


# sqrt(2) <Bell_j| as rows: a real +-1 matrix, so B @ z = sqrt(2) <Bell_j|z>.
_BELL_ROWS = np.rint(np.sqrt(2.0) * BELL_MATRIX.real.T)
_CHUNK = 16384  # samples per pass; keeps every (4, chunk) temporary in cache


def _fidelity_samples(re: np.ndarray, im: np.ndarray, diags: np.ndarray, work=None):
    """Per-sample (operation, estimation) fidelities of unnormalised rows re + i im.

    Every A_k is diagonal in the Bell basis with real entries D[k], so a
    sample enters only through its Bell weights w_j = |<Bell_j|psi>|^2:
    <psi|A_k|psi> = w . D[k] and p_k = w . D[k]^2. The guess for outcome k is
    the top eigenvector of A_k^dag A_k, Bell state k: ``AncillaParams`` keeps
    alpha and beta nonnegative, so D[k, k] = alpha + beta/2 is never below
    the other entries, beta/2 (at alpha = 0 all four tie, and slot k is kept).
    So |<psi|g_k>|^2 = w_k, and the weights themselves are the guess weights.
    The kernel works on u = 2 |<Bell_j|z>|^2 of the unnormalised z and
    divides once by |u|^2 at the end. ``diags`` is ``bell_diagonals``, of
    shape (..., 4, 4); the fidelities have shape (..., n).

    Every intermediate and both results are views of ``work``, a flat float
    buffer of at least ``_work_size(n, entries)`` entries, allocated here when
    not given. The views are C-contiguous, as fresh arrays are, so each matmul
    takes the same BLAS path and the values are the same bits either way.
    """
    n = len(re)
    lead = diags.shape[:-2]
    if work is None:
        work = np.empty(_work_size(n, math.prod(lead)))
    offset = 0

    def view(shape):
        nonlocal offset
        size = math.prod(shape)
        offset += size
        return work[offset - size:offset].reshape(shape)

    u, v, norm2 = view((4, n)), view((4, n)), view((n,))
    m, f_op, f_est = view(lead + (8, n)), view(lead + (n,)), view(lead + (n,))
    np.matmul(_BELL_ROWS, re.T, out=u)
    u *= u
    np.matmul(_BELL_ROWS, im.T, out=v)
    v *= v
    u += v  # (4, n)
    # rows 0-3: D[k] . u; rows 4-7: D[k]^2 . u
    np.matmul(np.concatenate([diags, diags ** 2], axis=-2), u, out=m)
    np.sum(u, axis=0, out=norm2)
    norm2 *= norm2
    square = m[..., :4, :]
    square *= square
    np.sum(square, axis=-2, out=f_op)
    f_op /= norm2
    weighted = m[..., 4:, :]
    weighted *= u
    np.sum(weighted, axis=-2, out=f_est)
    f_est /= norm2
    return f_op, f_est


def _work_size(n: int, entries: int) -> int:
    """Entries of ``_fidelity_samples``' buffer for n samples and a stack of ``entries`` sets."""
    return (9 + 10 * entries) * n


def _mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(len(samples)))


def _finish_rows(tasks: queue.SimpleQueue, results: queue.SimpleQueue,
                 f_op: np.ndarray, f_est: np.ndarray, im: np.ndarray, work: np.ndarray):
    """Worker loop: per ``(re, generator, diags)`` task until the ``None`` sentinel,
    fill ``f_op`` and ``f_est`` with one row's samples.

    The imaginary half is drawn chunk by chunk from ``generator``, which the
    real half left there: the same draws as one ``(n, 4)`` call. Each task
    puts one result, None or the exception it raised, so the caller never
    waits on a row that will not come. Every buffer is the caller's: glibc
    serves a thread's own allocations from an arena of its own, whose pages
    would add to the peak RSS. Only private functions and numpy run here, so
    every traced span stays on the caller's thread.
    """
    while (task := tasks.get()) is not None:
        re, generator, diags = task
        error = None
        try:
            for start in range(0, len(re), _CHUNK):
                part = slice(start, start + _CHUNK)
                chunk = im[:len(re[part])]
                generator.standard_normal(out=chunk)
                f_op[part], f_est[part] = _fidelity_samples(re[part], chunk, diags, work)
        except BaseException as exc:  # handed to the caller, which re-raises it
            error = exc
        del task, re  # the real half is freed before the caller reduces the row
        results.put(error)


def monte_carlo_mean_fidelities(kraus: KrausSet, n_samples: int, seed: int) -> MeanFidelityPair:
    """Estimate both mean fidelities by Haar sampling, per entry of a stack.

    Per sample: operation fidelity sum_k |<psi|A_k|psi>|^2; estimation
    fidelity sum_k p_k |<psi|g_k>|^2 with p_k = <psi|A_k^dag A_k|psi> and
    g_k the guess for outcome k, Bell state k. Entry i draws on
    ``RandomSource(seed + i)``, so a row does not depend on the grid around
    it; floats for one set, arrays for a stack.

    Rows are pipelined over two threads: this one draws row i's real half
    (``haar_two_qubit_block``) while one worker thread, started and joined
    here, draws row i-1's imaginary half and evaluates it in chunks (see
    ``_fidelity_samples``). Row i-1 is collected, and reduced to its means
    and stderrs over the full sample arrays, before row i is handed over, so
    at most two real halves are alive. The draws are those of the one-thread
    order, so the numbers do not depend on the threading.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError("use at least 10^3 samples")
    shape = np.shape(kraus.params.alpha)
    diags = kraus.bell_diagonals.reshape(-1, 4, 4)
    op_samples, est_samples = np.empty(n_samples), np.empty(n_samples)
    chunk = min(n_samples, _CHUNK)
    buffers = (op_samples, est_samples, np.empty((chunk, 4)), np.empty(_work_size(chunk, 1)))
    tasks: queue.SimpleQueue = queue.SimpleQueue()
    results: queue.SimpleQueue = queue.SimpleQueue()
    worker = threading.Thread(target=_finish_rows, args=(tasks, results, *buffers), daemon=True)
    worker.start()
    stats = []

    def collect():
        error = results.get()
        if error is not None:
            raise error
        stats.append(_mean_stderr(op_samples) + _mean_stderr(est_samples))

    try:
        for index, row_diags in enumerate(diags):
            rng = RandomSource(seed + index)
            re = haar_two_qubit_block(n_samples, rng)
            if index:
                collect()
            tasks.put((re, rng.generator, row_diags))
        if len(diags):
            collect()
    finally:
        tasks.put(None)
        worker.join()
    columns = np.array(stats).reshape(-1, 4).T
    f_op, se_op, f_est, se_est = (_entries(column.reshape(shape)) for column in columns)
    return MeanFidelityPair(f_op=f_op, f_est=f_est, stderr_op=se_op, stderr_est=se_est)


@functools.cache
def _stabilizer_states() -> tuple[np.ndarray, np.ndarray]:
    """The 60 two-qubit stabilizer states as (real, imag) parts of (60, 4) rows.

    Built as the orbit of |00> under H and S on either qubit and CNOT. Each
    row is scaled so its first nonzero amplitude is 1, which leaves every
    amplitude in {0, +-1, +-i}: exact in floating point, and unnormalised,
    which the kernel allows.
    """
    h = np.array([[1, 1], [1, -1]])  # sqrt(2) H; the scale drops out
    s = np.diag([1, 1j])
    eye = np.eye(2)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    gates = (np.kron(h, eye), np.kron(eye, h), np.kron(s, eye), np.kron(eye, s), cnot)

    def canonical(v):  # the + 0j turns a -0.0 into 0.0, so equal rows hash equal
        return np.round(v / v[np.flatnonzero(np.abs(v) > 0.5)[0]]) + 0j

    queue = [canonical(np.array([1, 0, 0, 0], dtype=np.complex128))]
    seen = {queue[0].tobytes()}
    for v in queue:  # the queue grows while it is walked: a breadth-first search
        for g in gates:
            w = canonical(g @ v)
            if w.tobytes() not in seen:
                seen.add(w.tobytes())
                queue.append(w)
    states = np.array(queue)
    re, im = states.real.copy(), states.imag.copy()
    re.flags.writeable = im.flags.writeable = False  # cached: shared by every caller
    return re, im


def design_mean_fidelities(kraus: KrausSet) -> MeanFidelityPair:
    """Both mean fidelities as the exact mean of the kernel over a 3-design.

    The two per-sample quantities have degree (2, 2) in (psi, psi*), and the
    60 two-qubit stabilizer states form a complex projective 3-design
    (arXiv:1510.02767), so their plain mean is the Haar mean, with no
    sampling error. One mean per entry of a stacked set.
    """
    f_op, f_est = _fidelity_samples(*_stabilizer_states(), kraus.bell_diagonals)
    return MeanFidelityPair(f_op=_entries(f_op.mean(axis=-1)), f_est=_entries(f_est.mean(axis=-1)))
