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
the Haar mean exactly) as an oracle that does not sample. Each of the four
estimators returns one ``(..., 2)`` row (f_op, f_est) per entry of a stack;
the Monte Carlo returns a second such row of standard errors.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .ancilla import AncillaParams
from .measurement import KrausSet, completeness_residual
from .qsim import BELL_MATRIX, require_entries

MIN_MC_SAMPLES = 1000
# The estimator holds 40 bytes per sample in each of its two threads, 80 in
# all: a row's (n, 4) real half, over which its f_op samples and their
# deviations are written, and its f_est samples. The CLI rejects larger counts
# at parse time.
MAX_MC_SAMPLES = 10**7


def _mean_row(f_op, f_est) -> np.ndarray:
    """The (..., 2) row (f_op, f_est), each entry checked to lie in [0, 1]; NaN fails."""
    for column in (f_op, f_est):
        ok = (0.0 <= column) & (column <= 1.0)
        require_entries(ok, column, "mean fidelity {} outside [0, 1]")
    return np.stack([f_op, f_est], axis=-1)


def mean_fidelities_from_kraus(kraus: KrausSet) -> np.ndarray:
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
    return _mean_row((4.0 + trace_sum) / 20.0, (4.0 + lambda_sum) / 20.0)


def mean_fidelities_closed(params: AncillaParams) -> np.ndarray:
    a, b = params.alpha, params.beta
    # float_power is libm pow, as float ** is: a stack matches its floats bit for bit.
    return _mean_row(
        (1.0 + np.float_power(a + 2.0 * b, 2.0)) / 5.0,
        (1.0 + np.float_power(a + b / 2.0, 2.0)) / 5.0,
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


def haar_two_qubit_block(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Real half of the raw Gaussian block behind n Haar-random two-qubit states.

    ``out`` is a C-contiguous float (n, 4) array, filled by one
    ``standard_normal`` call and returned: the draws of
    ``rng.standard_normal((n, 4))``, which leave ``rng`` at the imaginary
    parts. Row i plus i times the stream's next (n, 4) draws, normalised, is a
    Haar-random pure state.
    """
    return _draw_real_half(rng, out)


def _draw_real_half(rng, out):
    """The body of ``haar_two_qubit_block``, under a name no tracer wraps, for the worker thread."""
    return rng.standard_normal(out=out)


# sqrt(2) <Bell_j| as rows: a real +-1 matrix, so B @ z = sqrt(2) <Bell_j|z>.
_BELL_ROWS = np.rint(np.sqrt(2.0) * BELL_MATRIX.real.T)
_CHUNK = 16384  # samples per pass; keeps every (4, chunk) temporary in cache


def _fidelity_samples(re: np.ndarray, im: np.ndarray, diags: np.ndarray, work=None, out=None):
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

    Every intermediate is a view of ``work``, a flat float buffer of at least
    ``_work_size(n, entries)`` entries, and the fidelities are written into
    ``out``, a pair of (..., n) arrays; each is allocated here when not given.
    One (..., 4, n) block comes first in ``work``; it holds D[k] . u, then
    D[k]^2 . u. ``im`` may be the block's first 4n entries: (B im)^2 goes into
    u before anything is written there, and (B re)^2 goes there once ``im``
    is dead. The views are C-contiguous, as fresh arrays are, so each matmul
    takes the same BLAS path and the values are the same bits either way.
    """
    n = len(re)
    lead = diags.shape[:-2]
    if work is None:
        work = np.empty(_work_size(n, math.prod(lead)))
    f_op, f_est = np.empty((2,) + lead + (n,)) if out is None else out
    offset = 0

    def view(shape):
        nonlocal offset
        size = math.prod(shape)
        offset += size
        return work[offset - size:offset].reshape(shape)

    block, u, norm2 = view(lead + (4, n)), view((4, n)), view((n,))
    np.matmul(_BELL_ROWS, im.T, out=u)
    u *= u
    v = work[:4 * n].reshape(4, n)  # the block's start; im is dead from here
    np.matmul(_BELL_ROWS, re.T, out=v)
    v *= v
    u += v  # (4, n); addition commutes: the bits of (B re)^2 + (B im)^2
    np.sum(u, axis=0, out=norm2)
    norm2 *= norm2
    np.matmul(diags, u, out=block)  # D[k] . u
    block *= block
    np.sum(block, axis=-2, out=f_op)
    f_op /= norm2
    np.matmul(diags ** 2, u, out=block)  # D[k]^2 . u
    block *= u
    np.sum(block, axis=-2, out=f_est)
    f_est /= norm2
    return f_op, f_est


def _work_size(n: int, entries: int) -> int:
    """Entries of ``_fidelity_samples``' scratch for n samples and a stack of ``entries`` sets."""
    return (5 + 4 * entries) * n


def _mean_stderr(samples: np.ndarray, deviations: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of ``samples``, bit for bit ``float(samples.mean())``
    and ``float(samples.std(ddof=1) / sqrt(n))``.

    The squared deviations, which numpy's ``std`` keeps in a fresh array, go
    into ``deviations``, a float array of the same length that does not
    overlap ``samples``; each step is the one ``std`` takes.
    """
    n = len(samples)
    mean = float(samples.mean())
    np.subtract(samples, mean, out=deviations)
    np.square(deviations, out=deviations)
    return mean, math.sqrt(float(deviations.sum()) / (n - 1)) / math.sqrt(n)


def _run_rows(rows, draw, seed: int, diags: np.ndarray, buffers, stats: np.ndarray,
              stop: threading.Event, errors: list):
    """Draw and finish each row of ``rows``: its means and stderrs go to ``stats[row]``.

    Row i draws on ``np.random.default_rng(seed + i)``: its real half with
    ``draw``, then its imaginary half chunk by chunk, each chunk evaluated as
    soon as it is drawn: the same draws as one (n, 4) call. ``buffers`` is this thread's
    (n, 4) real half, (n,) f_est samples and kernel scratch; the caller
    allocates them, because glibc serves a thread's own allocations from an
    arena of its own, whose pages would add to the peak RSS. An error is
    appended to ``errors`` and sets ``stop``, which ends either thread before
    its next row.
    """
    re, f_est, scratch = buffers
    n = len(f_est)
    flat = re.reshape(-1)
    # f_op lies over the real half's first n entries. Safe: chunk [s, s + k)
    # writes f_op[s:s + k], that is flat[s:s + k], only after the kernel has
    # read re[:s + k], that is flat[:4(s + k)].
    f_op = flat[:n]
    # Safe once every chunk of the row is evaluated: the real half is dead.
    deviations = flat[n:2 * n]
    try:
        for index in rows:
            if stop.is_set():
                return
            rng = np.random.default_rng(seed + index)
            draw(rng, re)
            for start in range(0, n, _CHUNK):
                size = min(_CHUNK, n - start)
                part = slice(start, start + size)
                # Safe: the kernel reads im into u before it writes the
                # block that starts its scratch (see _fidelity_samples).
                im = scratch[:4 * size].reshape(size, 4)
                rng.standard_normal(out=im)
                _fidelity_samples(re[part], im, diags[index], scratch, (f_op[part], f_est[part]))
            stats[index] = _mean_stderr(f_op, deviations) + _mean_stderr(f_est, deviations)
    except BaseException as exc:  # the calling thread re-raises it
        errors.append(exc)
        stop.set()


def monte_carlo_mean_fidelities(kraus: KrausSet, n_samples: int, seed: int):
    """Estimate both mean fidelities by Haar sampling, per entry of a stack.

    Per sample: operation fidelity sum_k |<psi|A_k|psi>|^2; estimation
    fidelity sum_k p_k |<psi|g_k>|^2 with p_k = <psi|A_k^dag A_k|psi> and
    g_k the guess for outcome k, Bell state k. Entry i draws on
    ``np.random.default_rng(seed + i)``, so a row does not depend on the grid
    around it. Returns ``(means, stderrs)``, two ``(..., 2)`` rows (f_op, f_est).

    Two threads share the rows: this one takes the even rows and one worker
    thread, started and joined here, the odd rows. Each draws a row, evaluates
    it in chunks (see ``_fidelity_samples``) and reduces it to its means and
    stderrs, in buffers allocated here once per call. The split is fixed, so
    each thread does the same work on every call, and the worker calls only
    private functions and numpy, so every traced span stays on this thread.
    Each row's draws and reductions are the ones a single thread would make,
    so the numbers do not depend on the threading. The first error of either
    thread is raised once both have stopped.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError("use at least 10^3 samples")
    shape = np.shape(kraus.params.alpha)
    diags = kraus.bell_diagonals.reshape(-1, 4, 4)
    rows = range(len(diags))
    # Per row (f_op, se_op, f_est, se_est); a row left unset fails _mean_row's check.
    stats = np.full((len(diags), 4), np.nan)
    stop, errors = threading.Event(), []

    def run_args(thread_rows, draw):
        buffers = (np.empty((n_samples, 4)), np.empty(n_samples),
                   np.empty(_work_size(min(n_samples, _CHUNK), 1)))
        return thread_rows, draw, seed, diags, buffers, stats, stop, errors

    worker = threading.Thread(
        target=_run_rows, args=run_args(rows[1::2], _draw_real_half), daemon=True
    )
    worker.start()
    try:
        _run_rows(*run_args(rows[0::2], haar_two_qubit_block))
    finally:
        worker.join()
    if errors:
        raise errors[0]
    stats = stats.reshape(shape + (2, 2))  # [..., 0] the means, [..., 1] the stderrs
    return _mean_row(stats[..., 0, 0], stats[..., 1, 0]), stats[..., 1]


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


def design_mean_fidelities(kraus: KrausSet) -> np.ndarray:
    """Both mean fidelities as the exact mean of the kernel over a 3-design.

    The two per-sample quantities have degree (2, 2) in (psi, psi*), and the
    60 two-qubit stabilizer states form a complex projective 3-design
    (arXiv:1510.02767), so their plain mean is the Haar mean, with no
    sampling error. One (f_op, f_est) row per entry of a stacked set.
    """
    f_op, f_est = _fidelity_samples(*_stabilizer_states(), kraus.bell_diagonals)
    return _mean_row(f_op.mean(axis=-1), f_est.mean(axis=-1))
