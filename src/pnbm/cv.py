"""Continuous-variable partial teleportation of a coherent state.

Five modes (A, a, B, 1, 2): the input rides on A, modes a and B share a
two-mode squeezed vacuum, modes 1 and 2 are vacuum meters. Four QND gates
couple the pair (A, a) to the meters, mode 1 is homodyned in x and mode 2
in p, and the measured values are fed forward as displacements on a and B.
Everything is linear, so quadrature operators are propagated exactly as
symbolic coefficient vectors; variances follow from the Gaussian input
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


class QuadExpr:
    """Linear combination of initial quadrature operators plus classical offsets.

    ``coeffs`` maps (mode, quad) to a real weight; ``offsets`` maps a
    measured-outcome symbol (e.g. "xu") to a real weight. Immutable;
    arithmetic returns new expressions with exact-zero entries dropped.
    """

    __slots__ = ("coeffs", "offsets")

    def __init__(self, coeffs=None, offsets=None):
        coeffs = dict(coeffs or {})
        for (mode, quad), value in coeffs.items():
            if mode not in MODES or quad not in QUADS:
                raise KeyError(f"unknown quadrature ({mode!r}, {quad!r})")
            if not math.isfinite(value):
                raise ValueError("non-finite coefficient")
        object.__setattr__(self, "coeffs", {k: v for k, v in coeffs.items() if v != 0.0})
        object.__setattr__(self, "offsets", {k: v for k, v in (offsets or {}).items() if v != 0.0})

    def __setattr__(self, name, value):
        raise AttributeError("QuadExpr is immutable")

    def coefficient(self, mode: str, quad: str) -> float:
        return self.coeffs.get((mode, quad), 0.0)

    def offset(self, symbol: str) -> float:
        return self.offsets.get(symbol, 0.0)

    def __add__(self, other: "QuadExpr") -> "QuadExpr":
        coeffs = dict(self.coeffs)
        for key, value in other.coeffs.items():
            coeffs[key] = coeffs.get(key, 0.0) + value
        offsets = dict(self.offsets)
        for key, value in other.offsets.items():
            offsets[key] = offsets.get(key, 0.0) + value
        return QuadExpr(coeffs, offsets)

    def __mul__(self, scalar: float) -> "QuadExpr":
        return QuadExpr(
            {k: scalar * v for k, v in self.coeffs.items()},
            {k: scalar * v for k, v in self.offsets.items()},
        )

    __rmul__ = __mul__

    def __sub__(self, other: "QuadExpr") -> "QuadExpr":
        return self + (-1.0) * other

    def with_offset(self, symbol: str, weight: float) -> "QuadExpr":
        offsets = dict(self.offsets)
        offsets[symbol] = offsets.get(symbol, 0.0) + weight
        return QuadExpr(self.coeffs, offsets)

    def resolved(self, bindings: dict[str, "QuadExpr"]) -> "QuadExpr":
        """Substitute measured-outcome symbols by their operator content.

        Valid on the post-measurement state, where each measured operator
        acts as the recorded number.
        """
        out = QuadExpr(self.coeffs)
        for symbol, weight in self.offsets.items():
            if symbol not in bindings:
                raise KeyError(f"no binding for measured symbol {symbol!r}")
            out = out + weight * QuadExpr(bindings[symbol].coeffs)
        return out

    def vector(self) -> np.ndarray:
        v = np.zeros(len(MODES) * 2)
        for (mode, quad), value in self.coeffs.items():
            v[_index(mode, quad)] = value
        return v

    def __repr__(self):
        terms = [f"{v:+g}*{q}_{m}" for (m, q), v in sorted(self.coeffs.items())]
        terms += [f"{v:+g}*{s}" for s, v in sorted(self.offsets.items())]
        return "QuadExpr(" + " ".join(terms) + ")" if terms else "QuadExpr(0)"


def quad(mode: str, q: str) -> QuadExpr:
    return QuadExpr({(mode, q): 1.0})


def commutator_coefficient(e1: QuadExpr, e2: QuadExpr) -> float:
    """[e1, e2] = i * (this value) under [x_m, p_m] = i."""
    total = 0.0
    for mode in MODES:
        total += e1.coefficient(mode, "x") * e2.coefficient(mode, "p")
        total -= e1.coefficient(mode, "p") * e2.coefficient(mode, "x")
    return total


Frame = dict[str, dict[str, QuadExpr]]


def identity_frame() -> Frame:
    return {m: {q: quad(m, q) for q in QUADS} for m in MODES}


def qnd_gate(frame: Frame, control: str, target: str, kappa: float) -> Frame:
    """x_target += kappa * x_control; p_control -= kappa * p_target."""
    if control == target:
        raise ValueError("control and target modes must differ")
    out = {m: dict(qs) for m, qs in frame.items()}
    out[target]["x"] = frame[target]["x"] + kappa * frame[control]["x"]
    out[control]["p"] = frame[control]["p"] - kappa * frame[target]["p"]
    return out


@dataclass(frozen=True)
class CvConfig:
    """Coupling and squeezing knobs; gamma and lambda are derived views."""

    kappa: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.r)):
            raise ValueError(f"kappa and r must be finite, got kappa={self.kappa}, r={self.r}")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.r < 0:
            raise ValueError("squeezing r must be nonnegative")

    @property
    def gamma(self) -> float:
        return math.log(self.kappa)

    @property
    def lam(self) -> float:
        return math.tanh(self.r)


@dataclass(frozen=True)
class CvInputModel:
    """Gaussian input: coherent mode A, vacuum meters, squeezed pair (a, B).

    Vacuum quadrature variance is 1/2. The pair block is assembled from
    e^{+-2r} so that the squeezed combinations x_a - x_B and p_a + p_B
    cancel exactly in floating point even at large r.
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

    def mean(self, expr: QuadExpr) -> float:
        return float(expr.vector() @ self.mean_vector())

    def variance(self, expr: QuadExpr) -> float:
        unknown = {m for (m, _q) in expr.coeffs} - set(MODES)
        if unknown:
            raise KeyError(f"unknown modes {sorted(unknown)}")
        v = expr.vector()
        return float(v @ self.covariance() @ v)

    def covariance_of(self, e1: QuadExpr, e2: QuadExpr) -> float:
        return float(e1.vector() @ self.covariance() @ e2.vector())


@dataclass(frozen=True, eq=False)
class CvProtocol:
    """Outputs of one protocol build: resolved quadratures plus bookkeeping."""

    config: CvConfig
    outputs: dict  # (mode, quad) -> resolved QuadExpr, modes A, a, B
    measured: dict  # symbol -> QuadExpr ("xu": x of meter 1, "pv": p of meter 2)
    displaced: dict  # (mode, quad) -> pre-resolution QuadExpr carrying offsets
    displacements: dict  # (mode, quad) -> (symbol, weight)


def build_cv_protocol(config: CvConfig) -> CvProtocol:
    """Propagate the four QND gates, the homodynes, and the feed-forward."""
    k = config.kappa
    frame = identity_frame()
    frame = qnd_gate(frame, "A", "1", -k)
    frame = qnd_gate(frame, "a", "1", +k)
    frame = qnd_gate(frame, "2", "A", -k)
    frame = qnd_gate(frame, "2", "a", -k)

    measured = {"xu": frame["1"]["x"], "pv": frame["2"]["p"]}
    displacements = {
        ("a", "x"): ("xu", -1.0 / k),
        ("a", "p"): ("pv", -1.0 / k),
        ("B", "x"): ("xu", -1.0 / k),
        ("B", "p"): ("pv", +1.0 / k),
    }
    displaced = {}
    outputs = {}
    for mode in ("A", "a", "B"):
        for qname in QUADS:
            expr = frame[mode][qname]
            if (mode, qname) in displacements:
                symbol, weight = displacements[(mode, qname)]
                expr = expr.with_offset(symbol, weight)
            displaced[(mode, qname)] = expr
            outputs[(mode, qname)] = expr.resolved(measured)
    return CvProtocol(
        config=config,
        outputs=outputs,
        measured=measured,
        displaced=displaced,
        displacements=displacements,
    )


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
    excess_x = model.variance(protocol.outputs[(mode, "x")]) - 0.5
    excess_p = model.variance(protocol.outputs[(mode, "p")]) - 0.5
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
    """Max moment deviation between the symbolic pipeline and the oracle.

    The oracle propagates the full 10x10 Gaussian state through the gates,
    conditions on both homodyne outcomes, applies the feed-forward to the
    conditional means, and then averages over the exact outcome
    distribution. The pipeline never conditions: it reads the same moments
    off the resolved operator combinations. Both describe the
    outcome-averaged output state of modes (A, a, B) and must agree.
    """
    model = CvInputModel(r=config.r, amplitude=amplitude)
    protocol = build_cv_protocol(config)

    # Exact outcome distribution: the measured combinations are expressed
    # over the initial operators, so dot them with the input moments.
    mu_in = model.mean_vector()
    sigma_in = model.covariance()
    xu_vec = protocol.measured["xu"].vector()
    pv_vec = protocol.measured["pv"].vector()
    out_mean = np.array([xu_vec @ mu_in, pv_vec @ mu_in])
    basis = np.stack([xu_vec, pv_vec])
    out_cov = basis @ sigma_in @ basis.T

    # Conditional moments are affine in the outcomes; recover the linear
    # response from three conditioning runs.
    mu0, sigma_cond = _oracle_conditional_moments(config, model, (0.0, 0.0), apply_displacement)
    mu_dx, _ = _oracle_conditional_moments(config, model, (1.0, 0.0), apply_displacement)
    mu_dp, _ = _oracle_conditional_moments(config, model, (0.0, 1.0), apply_displacement)
    response = np.column_stack([mu_dx - mu0, mu_dp - mu0])
    mu_avg = mu0 + response @ out_mean
    sigma_avg = sigma_cond + response @ out_cov @ response.T

    exprs = [protocol.outputs[(m, q)] for m in ("A", "a", "B") for q in QUADS]
    coeff = np.stack([e.vector() for e in exprs])
    mu_pipe = coeff @ mu_in
    sigma_pipe = coeff @ sigma_in @ coeff.T

    return float(
        max(np.max(np.abs(mu_avg - mu_pipe)), np.max(np.abs(sigma_avg - sigma_pipe)))
    )
