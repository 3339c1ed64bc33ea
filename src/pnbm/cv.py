"""Continuous-variable partial teleportation of a coherent state.

Five modes (A, a, B, 1, 2): the input rides on A, modes a and B share a
two-mode squeezed vacuum, modes 1 and 2 are vacuum meters. Four QND gates
couple the pair (A, a) to the meters, mode 1 is homodyned in x and mode 2
in p, and the measured values are fed forward as displacements on a and B.
Everything is linear, so the protocol is one real 10x10 Heisenberg frame
over the initial quadratures; variances follow from the Gaussian input
covariance with vacuum variance 1/2. Frames, input factors and fidelities
are computed over the stack of configurations one ``CvConfig`` holds. An
independent oracle re-derives the output moments by explicit covariance
conditioning on the homodyne outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import require_entries

MODES = ("A", "a", "B", "1", "2")
QUADS = ("x", "p")


def _index(mode: str, quad: str) -> int:
    return 2 * MODES.index(mode) + QUADS.index(quad)


def qnd_gate(control: str, target: str, kappa: float) -> np.ndarray:
    """Gate matrix of x_target += kappa * x_control; p_control -= kappa * p_target."""
    if control == target:
        raise ValueError("control and target modes must differ")
    gate = np.eye(10)
    gate[_index(target, "x"), _index(control, "x")] = kappa
    gate[_index(control, "p"), _index(target, "p")] = -kappa
    return gate


def _libm(fn, x):
    """``fn`` (``math.exp`` or ``math.log``) per entry: np.exp and np.log round
    some entries differently, and the tables print full precision."""
    return np.array([fn(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))[()]


@dataclass(frozen=True)
class CvConfig:
    """Coupling and squeezing knobs, each a float or a 1-D stack; gamma is a derived view.

    A stack has one configuration per row; a float knob is shared by every
    row. Domain: 1e-100 <= kappa <= 1e100, so kappa^2 and 1/kappa^2 stay
    normal doubles, and 0 <= r <= 700, so e^r stays finite. Any other entry,
    NaN and infinities included, raises ValueError.
    """

    kappa: float | np.ndarray
    r: float | np.ndarray

    def __post_init__(self):
        kappa, r = self.kappa, self.r
        message = "kappa must be finite, positive and in [1e-100, 1e100], got {}"
        require_entries((1e-100 <= kappa) & (kappa <= 1e100), kappa, message)
        message = "squeezing r must be finite, nonnegative and at most 700, got {}"
        require_entries((0.0 <= r) & (r <= 700.0), r, message)

    @property
    def gamma(self):
        return _libm(math.log, self.kappa)


_VACUUM_FACTOR = np.kron(np.eye(5), [[0.5, 0.5], [0.5, -0.5]])
# Sign patterns of e^{+r}/2 and e^{-r}/2 in the squeezed block (rows and
# columns 2-5: x_a, p_a, x_B, p_B) of the factor; see _input_factors.
_GROW = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 0, -1]], dtype=float)
_SHRINK = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 1, 0]], dtype=float)


def _input_factors(rs) -> np.ndarray:
    """Stack of input factors L, one per squeezing r, shape (len(rs), 10, 10).

    L @ L.T is ``_input_covariance(r)``, and its columns are
    half-sums and half-differences. Vacuum modes pair x_m with p_m at scale
    1/2. The squeezed pair (rows and columns 2-5: x_a, p_a, x_B, p_B) is
    written along x_a +- x_B and p_a -+ p_B at scale e^{+-r}/2, so a row
    that cancels the antisqueezed combination keeps its e^{-2r} part at any
    r; cosh(2r)/2 and sinh(2r)/2 round it away from r of about 8.

    e^{+-r} come from ``math.exp``, so they carry libm's rounding whatever
    the batch; the sign patterns multiply them exactly.
    """
    rs = np.asarray(rs, dtype=float)
    grow = _libm(math.exp, rs).reshape(-1, 1, 1) / 2.0
    shrink = _libm(math.exp, -rs).reshape(-1, 1, 1) / 2.0
    factors = np.repeat(_VACUUM_FACTOR[None], len(rs), axis=0)
    factors[:, 2:6, 2:6] = grow * _GROW + shrink * _SHRINK
    return factors


def _variances(rows: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Variance of each coefficient row ``rows[..., i, :]`` under ``factor[..., :, :]``.

    Each product is rounded before the sum (no BLAS, so no fused
    multiply-add), and fsum rounds the squares once, so rows whose squares
    agree as a multiset (the x and p rows of one output mode) get
    bitwise-equal variances.

    Products whose coefficient is zero on every row of the stack are
    skipped, and so are squares that are zero on every row: they would add
    only zeros to the in-order sum over the coefficients and to the fsum, so
    the result is bit-identical to the dense ``(..., rows, 10, 10)`` product
    summed over its second-last axis (tests/test_cv.py keeps that reference).
    """
    variances = []
    shape = np.broadcast_shapes(rows.shape[:-2], factor.shape[:-2]) + factor.shape[-1:]
    for i in range(rows.shape[-2]):
        coefficients = rows[..., i, :]
        used = np.flatnonzero(coefficients.reshape(-1, coefficients.shape[-1]).any(axis=0))
        products = np.zeros(shape)
        for m in used.tolist():
            products += coefficients[..., m, None] * factor[..., m, :]
        squares = (products ** 2).reshape(-1, shape[-1])
        squares = squares[:, squares.any(axis=0)]
        fsums = [math.fsum(s) for s in squares.tolist()]
        variances.append(np.array(fsums).reshape(shape[:-1]))
    return np.stack(variances, axis=-1)


def _input_covariance(r: float) -> np.ndarray:
    """Input covariance over the initial quadratures, in ``_index`` order.

    Vacuum quadrature variance is 1/2 on modes A, 1 and 2; the pair (a, B)
    is a two-mode squeezed vacuum with cosh(2r)/2 on its diagonal and
    +-sinh(2r)/2 between x_a, x_B and p_a, p_B.
    """
    sigma = 0.5 * np.eye(10)
    e_plus = math.exp(2.0 * r)
    e_minus = math.exp(-2.0 * r)
    h = (e_plus + e_minus) / 4.0  # cosh(2r)/2
    s = (e_plus - e_minus) / 4.0  # sinh(2r)/2
    for qname, sign in (("x", 1.0), ("p", -1.0)):
        ia, ib = _index("a", qname), _index("B", qname)
        sigma[ia, ia] = sigma[ib, ib] = h
        sigma[ia, ib] = sigma[ib, ia] = sign * s
    return sigma


# (control, target, sign of the coupling in units of kappa), in order.
_GATES = (("A", "1", -1.0), ("a", "1", +1.0), ("2", "A", -1.0), ("2", "a", -1.0))


def build_cv_protocol(config: CvConfig) -> np.ndarray:
    """Heisenberg frame per kappa of ``config``, shape ``np.shape(config.kappa) + (10, 10)``.

    Row i of a frame is quadrature i (``_index`` order) after the gates and
    the feed-forward, written over the initial quadratures. Each QND gate is
    two row operations: x_target += c x_control, p_control -= c p_target.
    Every product is rounded before its add, with no BLAS call, so no fused
    multiply-add leaves kappa^2's rounding error where row 2p cancels
    k*k - k*k, which the feed-forward would scale by 1/kappa. The result is
    the product of the four ``qnd_gate`` matrices exactly.

    The meters are not displaced, so their rows 1x and 2p are the measured
    combinations. The feed-forward divides by kappa rather than multiplying
    by 1/kappa, so kappa/kappa is exactly 1 and the displaced rows cancel
    the pair's antisqueezed combination exactly.
    """
    k = np.asarray(config.kappa, dtype=float)[..., None]
    frame = np.broadcast_to(np.eye(10), k.shape[:-1] + (10, 10)).copy()
    for control, target, sign in _GATES:
        c = sign * k
        frame[..., _index(target, "x"), :] += c * frame[..., _index(control, "x"), :]
        frame[..., _index(control, "p"), :] -= c * frame[..., _index(target, "p"), :]
    xu_k = frame[..., _index("1", "x"), :] / k
    pv_k = frame[..., _index("2", "p"), :] / k
    frame[..., _index("a", "x"), :] -= xu_k
    frame[..., _index("a", "p"), :] -= pv_k
    frame[..., _index("B", "x"), :] -= xu_k
    frame[..., _index("B", "p"), :] += pv_k
    return frame


_NOISE_MODES = ("A", "B")
_NOISE_ROWS = [_index(m, q) for m in _NOISE_MODES for q in QUADS]


def _symmetric_noise(variances: np.ndarray) -> np.ndarray:
    """Added photons per mode from the variances of rows x_A, p_A, x_B, p_B.

    ``variances[..., :]`` holds the four rows; the result's last axis is the
    modes A and B. The protocol adds symmetric noise; an x/p asymmetry beyond
    1e-10 or a NaN means the construction is wrong and is raised, with the
    mode and, for a batch, the row, not averaged away.
    """
    excess = variances - 0.5
    excess_x, excess_p = excess[..., 0::2], excess[..., 1::2]
    broken = np.argwhere(~(np.abs(excess_x - excess_p) <= 1e-10))
    if len(broken):
        at = tuple(broken[0])
        *row, mode = at
        where = f"mode {_NOISE_MODES[mode]}" + "".join(f", row {i}" for i in row)
        raise ValueError(
            f"asymmetric excess noise on {where}: "
            f"x {float(excess_x[at])!r} vs p {float(excess_p[at])!r}"
        )
    return (excess_x + excess_p) / 2.0


# Configurations per stacked build: bounds the (chunk, 10, 10) frame and
# factor stacks and the (chunk, 10) products of _variances whatever the grid size.
_CHUNK = 256


def cv_fidelities(config: CvConfig) -> dict[str, np.ndarray]:
    """Simulated coherent-state fidelities next to their closed forms.

    Five columns in ``sweep-cv``'s order (f_a_sim, f_b_sim, f_a_closed,
    f_b_closed, f_b_optimal), each of the broadcast shape of ``config.kappa``
    and ``config.r``. Simulated: F = 1/(1 + n_added) from propagated
    variances. Closed: F_A = 2/(2 + kappa^2), F_B = 2/(2(1 + e^{-2r}) +
    1/kappa^2). Optimal (infinite squeezing at the same asymmetry):
    F_B -> 2/(2 + 1/kappa^2).
    """
    kappa, r = np.broadcast_arrays(config.kappa, config.r)
    rows_k, rows_r = kappa.ravel(), r.ravel()
    variances = np.empty((rows_k.size, len(_NOISE_ROWS)))
    for start in range(0, rows_k.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        frames = build_cv_protocol(CvConfig(kappa=rows_k[part], r=rows_r[part]))
        variances[part] = _variances(frames[:, _NOISE_ROWS], _input_factors(rows_r[part]))
    simulated = 1.0 / (1.0 + _symmetric_noise(variances))
    f_a_sim, f_b_sim = simulated.reshape(kappa.shape + (2,)).T
    # float_power is libm pow, as float ** is.
    k2 = np.float_power(kappa, 2.0)
    e2r = _libm(math.exp, -2.0 * r)
    return {
        "f_a_sim": f_a_sim, "f_b_sim": f_b_sim,
        "f_a_closed": 2.0 / (2.0 + k2),
        "f_b_closed": 2.0 / (2.0 * (1.0 + e2r) + 1.0 / k2),
        "f_b_optimal": 2.0 / (2.0 + 1.0 / k2),
    }


def _condition_on(mu: np.ndarray, sigma: np.ndarray, idx: int, value: float):
    """Gaussian conditioning on one coordinate taking a definite value."""
    var = sigma[idx, idx]
    if var <= 0:
        raise ValueError("cannot condition on a deterministic coordinate")
    column = sigma[:, idx].copy()
    mu2 = mu + column * ((value - mu[idx]) / var)
    sigma2 = sigma - np.outer(column, column) / var
    mu2[idx] = value
    sigma2[idx, :] = 0.0
    sigma2[:, idx] = 0.0
    return mu2, sigma2


_OUT_INDICES = [
    _index(m, q) for m in ("A", "a", "B") for q in QUADS
]


# The oracle's input mean: mode A coherent at (x, p) = (0.7, -0.3), nonzero so
# the feed-forward moves the means; every other quadrature at zero.
_ORACLE_MEAN = np.zeros(10)
_ORACLE_MEAN[[_index("A", "x"), _index("A", "p")]] = (0.7, -0.3)
_ORACLE_MEAN.flags.writeable = False


def _oracle_conditional_moments(config: CvConfig, outcomes):
    """First/second moments of (A, a, B) given homodyne outcomes (xu, pv), then fed forward."""
    k = config.kappa
    mu, sigma = _ORACLE_MEAN, _input_covariance(config.r)
    for control, target, sign in _GATES:
        s_mat = qnd_gate(control, target, sign * k)
        mu = s_mat @ mu
        sigma = s_mat @ sigma @ s_mat.T
    xu, pv = outcomes
    mu, sigma = _condition_on(mu, sigma, _index("1", "x"), xu)
    mu, sigma = _condition_on(mu, sigma, _index("2", "p"), pv)
    mu[_index("a", "x")] -= xu / k
    mu[_index("a", "p")] -= pv / k
    mu[_index("B", "x")] -= xu / k
    mu[_index("B", "p")] += pv / k
    return mu[_OUT_INDICES], sigma[np.ix_(_OUT_INDICES, _OUT_INDICES)]


def covariance_conditioning_check(config: CvConfig) -> float:
    """Max moment deviation between the frame and the oracle.

    The oracle propagates the full 10x10 Gaussian state through the gates,
    conditions on both homodyne outcomes, applies the feed-forward to the
    conditional means, and then averages over the exact outcome
    distribution. The frame never conditions: its output rows give the same
    moments directly. Both describe the outcome-averaged output state of
    modes (A, a, B) and must agree.

    Domain: 1e-3 <= kappa <= 1e3 and 0 <= r <= 8, where the deviation stays
    below 1e-9; beyond it the cosh(2r) covariance entries and the powers of
    kappa swamp the conditioning arithmetic, so it raises ValueError there.
    """
    if np.ndim(config.kappa) or np.ndim(config.r):
        raise ValueError("the conditioning oracle takes one configuration, not a stack")
    if not (1e-3 <= config.kappa <= 1e3 and config.r <= 8.0):
        raise ValueError(
            "the conditioning oracle needs 1e-3 <= kappa <= 1e3 and 0 <= r <= 8, "
            f"got kappa={config.kappa}, r={config.r}"
        )
    frame = build_cv_protocol(config)

    # Exact outcome distribution: the meter rows 1x and 2p are the measured
    # combinations over the initial operators.
    mu_in, sigma_in = _ORACLE_MEAN, _input_covariance(config.r)
    basis = frame[[_index("1", "x"), _index("2", "p")]]
    out_mean = basis @ mu_in
    out_cov = basis @ sigma_in @ basis.T

    # Conditional moments are affine in the outcomes; recover the linear
    # response from three conditioning runs.
    mu0, sigma_cond = _oracle_conditional_moments(config, (0.0, 0.0))
    mu_dx, _ = _oracle_conditional_moments(config, (1.0, 0.0))
    mu_dp, _ = _oracle_conditional_moments(config, (0.0, 1.0))
    response = np.column_stack([mu_dx - mu0, mu_dp - mu0])
    mu_avg = mu0 + response @ out_mean
    sigma_avg = sigma_cond + response @ out_cov @ response.T

    coeff = frame[_OUT_INDICES]
    mu_pipe = coeff @ mu_in
    sigma_pipe = coeff @ sigma_in @ coeff.T

    # np.maximum, unlike the builtin max, keeps a NaN of either part.
    return float(
        np.maximum(np.max(np.abs(mu_avg - mu_pipe)), np.max(np.abs(sigma_avg - sigma_pipe)))
    )
