"""Information-disturbance analysis of the measurement as a two-qubit operation.

For Haar-random pure two-qubit inputs the mean operation fidelity and the
mean estimation fidelity of the measurement come out of the Kraus set as

    F_op  = (4 + sum_k |Tr A_k|^2) / 20
    F_est = (4 + sum_k lambda_k) / 20,   lambda_k = max eig of A_k^dag A_k,

which reduce to the closed forms ``(1 + (alpha + 2 beta)^2)/5`` and
``(1 + (alpha + beta/2)^2)/5``. The pair saturates the two-qubit
disturbance/gain trade-off; a Haar Monte-Carlo estimator serves as the
independent oracle for both numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ancilla import AncillaParams
from .measurement import ALL_OUTCOMES, KrausSet
from .qsim import BELL_MATRIX, PureState, RandomSource, bell_state

MIN_MC_SAMPLES = 1000


@dataclass(frozen=True)
class MeanFidelityPair:
    """Mean (operation, estimation) fidelities and how they were obtained."""

    f_op: float
    f_est: float
    source: str  # "closed-form" | "kraus-formula" | "monte-carlo"
    stderr_op: float | None = None
    stderr_est: float | None = None

    def __post_init__(self):
        for value in (self.f_op, self.f_est):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"mean fidelity {value!r} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class GuessRule:
    """Per-outcome estimate of the pre-measurement state.

    Each guess is the maximal eigenvector of A_k^dag A_k. The operators are
    diagonal in the Bell basis with the largest weight on slot k, so the
    guess for outcome k is Bell state k; at the no-discrimination endpoint
    all four eigenvalues tie and slot k is kept as the convention (any
    fixed pure guess has the same Haar mean).
    """

    guesses: tuple[PureState, ...]


def guess_rule(kraus: KrausSet) -> GuessRule:
    guesses = []
    for outcome in ALL_OUTCOMES:
        k = outcome.kraus_index - 1
        weights = kraus.bell_diagonals[k] ** 2
        if weights[k] >= weights.max() - 1e-12:
            slot = k  # tie-break toward the outcome's own slot
        else:
            slot = int(np.argmax(weights))
        guesses.append(bell_state(slot + 1))
    return GuessRule(guesses=tuple(guesses))


def mean_fidelities_from_kraus(kraus: KrausSet) -> MeanFidelityPair:
    """Evaluate the trace/eigenvalue formulas on the operator matrices."""
    residual = kraus.completeness_residual()
    if not residual <= 1e-10:  # NaN fails too
        raise ValueError(f"Kraus set is not complete (residual {residual:.3e})")
    trace_sum = sum(abs(np.trace(op)) ** 2 for op in kraus.operators)
    # A_k^dag A_k is diagonal in the Bell basis; its top eigenvalue is the
    # largest squared diagonal entry (a dense eigensolver cross-checks this
    # in the tests).
    lambda_sum = float((kraus.bell_diagonals ** 2).max(axis=1).sum())
    return MeanFidelityPair(
        f_op=float((4.0 + trace_sum) / 20.0),
        f_est=(4.0 + lambda_sum) / 20.0,
        source="kraus-formula",
    )


def mean_fidelities_closed(params: AncillaParams) -> MeanFidelityPair:
    a, b = params.alpha, params.beta
    return MeanFidelityPair(
        f_op=(1.0 + (a + 2.0 * b) ** 2) / 5.0,
        f_est=(1.0 + (a + b / 2.0) ** 2) / 5.0,
        source="closed-form",
    )


def tradeoff_residual(pair: MeanFidelityPair) -> float:
    """Slack in sqrt(F_op - 1/5) <= sqrt(F_est - 1/5) + sqrt(3(2/5 - F_est)).

    Returns right-hand side minus left-hand side: nonnegative (within
    tolerance) means the bound holds, zero means saturation. Pairs outside
    the radicals' domain are reported as errors rather than clamped.
    """
    if pair.f_est > 2.0 / 5.0 + 1e-12:
        raise ValueError(f"estimation fidelity {pair.f_est!r} exceeds the 2/5 domain limit")
    if pair.f_op < 1.0 / 5.0 - 1e-12:
        raise ValueError(f"operation fidelity {pair.f_op!r} below the 1/5 domain limit")
    rhs = math.sqrt(max(pair.f_est - 0.2, 0.0)) + math.sqrt(max(3.0 * (0.4 - pair.f_est), 0.0))
    lhs = math.sqrt(max(pair.f_op - 0.2, 0.0))
    return rhs - lhs


def haar_two_qubit_block(n_samples: int, rng: RandomSource) -> np.ndarray:
    """(n_samples, 4) matrix of Haar-random two-qubit amplitude rows."""
    g = rng.generator
    z = np.empty((n_samples, 4), dtype=np.complex128)
    z.real = g.standard_normal((n_samples, 4))
    z.imag = g.standard_normal((n_samples, 4))
    parts = z.view(np.float64)  # (n_samples, 8): re, im interleaved
    parts /= np.linalg.norm(parts, axis=1, keepdims=True)
    return z


def monte_carlo_mean_fidelities(
    kraus: KrausSet, n_samples: int, rng: RandomSource
) -> MeanFidelityPair:
    """Estimate both mean fidelities by Haar sampling.

    Per sample: operation fidelity sum_k |<psi|A_k|psi>|^2; estimation
    fidelity sum_k p_k |<psi|g_k>|^2 with p_k = <psi|A_k^dag A_k|psi> and
    g_k the per-outcome guess. Every A_k is diagonal in the Bell basis with
    real entries D[k], and every guess is a Bell state, so a sample enters
    only through its Bell weights w_j = |<Bell_j|psi>|^2:
    <psi|A_k|psi> = w . D[k], p_k = w . D[k]^2 and |<psi|g_k>|^2 = w_slot(k).
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError("use at least 10^3 samples")
    psi = haar_two_qubit_block(n_samples, rng)
    weights = np.abs(psi @ BELL_MATRIX.conj()) ** 2  # (n, 4), real
    diags = kraus.bell_diagonals
    f_op_samples = ((weights @ diags.T) ** 2).sum(axis=1)

    p_k = weights @ (diags ** 2).T  # (n, 4)
    slots = [  # Bell index of each outcome's guess
        int(np.argmax(np.abs(BELL_MATRIX.conj().T @ g.amplitudes)))
        for g in guess_rule(kraus).guesses
    ]
    f_est_samples = (p_k * weights[:, slots]).sum(axis=1)

    def _mean_stderr(samples: np.ndarray):
        return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(len(samples)))

    f_op, se_op = _mean_stderr(f_op_samples)
    f_est, se_est = _mean_stderr(f_est_samples)
    return MeanFidelityPair(
        f_op=f_op, f_est=f_est, source="monte-carlo", stderr_op=se_op, stderr_est=se_est
    )
