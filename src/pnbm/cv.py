"""Continuous-variable partial teleportation of a coherent state.

Five modes (A, a, B, 1, 2): the input rides on A, modes a and B share a
two-mode squeezed vacuum, modes 1 and 2 are vacuum meters. Four QND gates
couple the pair (A, a) to the meters, mode 1 is homodyned in x and mode 2
in p, and the measured values are fed forward as displacements on a and B.
Everything is linear, so the protocol is one real 10x10 Heisenberg frame
over the initial quadratures; variances follow from the Gaussian input
covariance with vacuum variance 1/2. An independent oracle re-derives the
output moments by explicit covariance conditioning on the homodyne
outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class CvConfig:
    """Coupling and squeezing knobs; gamma and lambda are derived views.

    Domain: 1e-100 <= kappa <= 1e100, so kappa^2 and 1/kappa^2 stay normal
    doubles, and 0 <= r <= 700, so e^r stays finite. Anything else, NaN and
    infinities included, raises ValueError.
    """

    kappa: float
    r: float

    def __post_init__(self):
        if not 1e-100 <= self.kappa <= 1e100:
            raise ValueError(f"kappa must be finite, positive and in [1e-100, 1e100], got {self.kappa}")
        if not 0.0 <= self.r <= 700.0:
            raise ValueError(f"squeezing r must be finite, nonnegative and at most 700, got {self.r}")

    @property
    def gamma(self) -> float:
        return math.log(self.kappa)

    @property
    def lam(self) -> float:
        return math.tanh(self.r)


_VACUUM_FACTOR = np.kron(np.eye(5), [[0.5, 0.5], [0.5, -0.5]])


@dataclass(frozen=True)
class CvInputModel:
    """Gaussian input: coherent mode A, vacuum meters, squeezed pair (a, B).

    Vacuum quadrature variance is 1/2. Moments are taken of coefficient
    rows over the initial quadratures, in ``_index`` order.
    """

    r: float
    amplitude: tuple[float, float] = (0.0, 0.0)  # (x, p) means of mode A

    def mean_vector(self) -> np.ndarray:
        mu = np.zeros(10)
        mu[_index("A", "x")], mu[_index("A", "p")] = self.amplitude
        return mu

    def covariance(self) -> np.ndarray:
        sigma = 0.5 * np.eye(10)
        e_plus = math.exp(2.0 * self.r)
        e_minus = math.exp(-2.0 * self.r)
        h = (e_plus + e_minus) / 4.0  # cosh(2r)/2
        s = (e_plus - e_minus) / 4.0  # sinh(2r)/2
        for qname, sign in (("x", 1.0), ("p", -1.0)):
            ia, ib = _index("a", qname), _index("B", qname)
            sigma[ia, ia] = sigma[ib, ib] = h
            sigma[ia, ib] = sigma[ib, ia] = sign * s
        return sigma

    def factor(self) -> np.ndarray:
        """L with L @ L.T == covariance(); columns are half-sums and half-differences.

        Vacuum modes pair x_m with p_m at scale 1/2. The squeezed pair (rows
        and columns 2-5: x_a, p_a, x_B, p_B) is written along x_a +- x_B and
        p_a -+ p_B at scale e^{+-r}/2, so a row that cancels the antisqueezed
        combination keeps its e^{-2r} part at any r; cosh(2r)/2 and
        sinh(2r)/2 round it away from r of about 8.
        """
        grow, shrink = math.exp(self.r) / 2.0, math.exp(-self.r) / 2.0
        factor = _VACUUM_FACTOR.copy()
        factor[2:6, 2:6] = [
            [grow, shrink, 0.0, 0.0],
            [0.0, 0.0, shrink, grow],
            [grow, -shrink, 0.0, 0.0],
            [0.0, 0.0, shrink, -grow],
        ]
        return factor

    def mean(self, row: np.ndarray) -> float:
        return float(row @ self.mean_vector())

    def variance(self, row: np.ndarray) -> float:
        # fsum rounds once, so rows whose squares agree as a multiset (the
        # x and p rows of one output mode) get bitwise-equal variances.
        return math.fsum((row @ self.factor()) ** 2)


@dataclass(frozen=True, eq=False)
class CvProtocol:
    """One protocol build.

    Row i of ``frame`` is quadrature i (``_index`` order) after the gates
    and the feed-forward, written over the initial quadratures.
    """

    config: CvConfig
    frame: np.ndarray


def build_cv_protocol(config: CvConfig) -> CvProtocol:
    """Multiply the four QND gates into the identity, then feed forward.

    The meters are not displaced, so their rows 1x and 2p are the measured
    combinations. The feed-forward divides by kappa rather than multiplying
    by 1/kappa, so kappa/kappa is exactly 1 and the displaced rows cancel
    the pair's antisqueezed combination exactly.
    """
    k = config.kappa
    frame = np.eye(10)
    gates = (("A", "1", -k), ("a", "1", +k), ("2", "A", -k), ("2", "a", -k))
    for control, target, coupling in gates:
        # gate @ frame, each product rounded before the sum: a fused
        # multiply-add in BLAS can leave kappa^2's rounding error where row 2p
        # cancels k*k - k*k, and the feed-forward scales it by 1/kappa.
        frame = (qnd_gate(control, target, coupling)[:, :, None] * frame).sum(axis=1)
    xu, pv = frame[_index("1", "x")], frame[_index("2", "p")]
    frame[_index("a", "x")] -= xu / k
    frame[_index("a", "p")] -= pv / k
    frame[_index("B", "x")] -= xu / k
    frame[_index("B", "p")] += pv / k
    return CvProtocol(config=config, frame=frame)


@dataclass(frozen=True)
class CvFidelities:
    f_a_sim: float
    f_b_sim: float
    f_a_closed: float
    f_b_closed: float
    f_a_optimal: float
    f_b_optimal: float


def added_noise_photons(protocol: CvProtocol, model: CvInputModel, mode: str) -> float:
    """Mean chaotic-photon number added to one output mode.

    The protocol adds symmetric noise; an x/p asymmetry beyond 1e-10 means
    the construction is wrong and is raised, not averaged away.
    """
    excess_x = model.variance(protocol.frame[_index(mode, "x")]) - 0.5
    excess_p = model.variance(protocol.frame[_index(mode, "p")]) - 0.5
    if abs(excess_x - excess_p) > 1e-10:
        raise ValueError(
            f"asymmetric excess noise on mode {mode}: x {excess_x!r} vs p {excess_p!r}"
        )
    return (excess_x + excess_p) / 2.0


def cv_fidelities(config: CvConfig) -> CvFidelities:
    """Simulated coherent-state fidelities next to their closed forms.

    Simulated: F = 1/(1 + n_added) from propagated variances. Closed:
    F_A = 2/(2 + kappa^2), F_B = 2/(2(1 + e^{-2r}) + 1/kappa^2). Optimal
    (infinite squeezing at the same asymmetry): F_B -> 2/(2 + 1/kappa^2).
    """
    protocol = build_cv_protocol(config)
    model = CvInputModel(r=config.r)
    k2 = config.kappa ** 2
    e2r = math.exp(-2.0 * config.r)
    return CvFidelities(
        f_a_sim=1.0 / (1.0 + added_noise_photons(protocol, model, "A")),
        f_b_sim=1.0 / (1.0 + added_noise_photons(protocol, model, "B")),
        f_a_closed=2.0 / (2.0 + k2),
        f_b_closed=2.0 / (2.0 * (1.0 + e2r) + 1.0 / k2),
        f_a_optimal=2.0 / (2.0 + k2),
        f_b_optimal=2.0 / (2.0 + 1.0 / k2),
    )


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


def _oracle_conditional_moments(
    config: CvConfig,
    model: CvInputModel,
    outcomes: tuple[float, float],
    apply_displacement: bool,
):
    """First/second moments of (A, a, B) given homodyne outcomes (xu, pv)."""
    k = config.kappa
    mu = model.mean_vector()
    sigma = model.covariance()
    gates = (("A", "1", -k), ("a", "1", +k), ("2", "A", -k), ("2", "a", -k))
    for control, target, coupling in gates:
        s_mat = np.eye(10)
        s_mat[_index(target, "x"), _index(control, "x")] = coupling
        s_mat[_index(control, "p"), _index(target, "p")] = -coupling
        mu = s_mat @ mu
        sigma = s_mat @ sigma @ s_mat.T
    xu, pv = outcomes
    mu, sigma = _condition_on(mu, sigma, _index("1", "x"), xu)
    mu, sigma = _condition_on(mu, sigma, _index("2", "p"), pv)
    if apply_displacement:
        mu[_index("a", "x")] -= xu / k
        mu[_index("a", "p")] -= pv / k
        mu[_index("B", "x")] -= xu / k
        mu[_index("B", "p")] += pv / k
    return mu[_OUT_INDICES], sigma[np.ix_(_OUT_INDICES, _OUT_INDICES)]


def covariance_conditioning_check(
    config: CvConfig,
    amplitude: tuple[float, float] = (0.7, -0.3),
    apply_displacement: bool = True,
) -> float:
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
    if not (1e-3 <= config.kappa <= 1e3 and config.r <= 8.0):
        raise ValueError(
            "the conditioning oracle needs 1e-3 <= kappa <= 1e3 and 0 <= r <= 8, "
            f"got kappa={config.kappa}, r={config.r}"
        )
    model = CvInputModel(r=config.r, amplitude=amplitude)
    frame = build_cv_protocol(config).frame

    # Exact outcome distribution: the meter rows 1x and 2p are the measured
    # combinations over the initial operators.
    mu_in = model.mean_vector()
    sigma_in = model.covariance()
    basis = frame[[_index("1", "x"), _index("2", "p")]]
    out_mean = basis @ mu_in
    out_cov = basis @ sigma_in @ basis.T

    # Conditional moments are affine in the outcomes; recover the linear
    # response from three conditioning runs.
    mu0, sigma_cond = _oracle_conditional_moments(config, model, (0.0, 0.0), apply_displacement)
    mu_dx, _ = _oracle_conditional_moments(config, model, (1.0, 0.0), apply_displacement)
    mu_dp, _ = _oracle_conditional_moments(config, model, (0.0, 1.0), apply_displacement)
    response = np.column_stack([mu_dx - mu0, mu_dp - mu0])
    mu_avg = mu0 + response @ out_mean
    sigma_avg = sigma_cond + response @ out_cov @ response.T

    coeff = frame[_OUT_INDICES]
    mu_pipe = coeff @ mu_in
    sigma_pipe = coeff @ sigma_in @ coeff.T

    return float(
        max(np.max(np.abs(mu_avg - mu_pipe)), np.max(np.abs(sigma_avg - sigma_pipe)))
    )
