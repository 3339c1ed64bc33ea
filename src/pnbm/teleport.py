"""Partial quantum teleportation built on the tunable Bell measurement.

One run tensors the unknown qubit with a shared singlet and the prepared
ancillas, applies the measurement network, reads the ancillas, and applies
the outcome's correction pair. Every outcome occurs with probability 1/4
and leaves the same three-qubit state
``alpha |singlet>_{Aa} |psi>_B - beta |psi>_A |singlet>_{aB}``, whose
marginals split the input between sender and receiver with fidelities
``F_A = 1 - alpha^2/2`` and ``F_B = 1 - beta^2/2`` saturating the
asymmetric-cloning bound. The classical channel is an ideal value hand-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ancilla import AncillaParams, params_from_alpha
from .measurement import OutcomeLabel, correction_unitaries, pnbm_network
from .qsim import (
    TOL_ALGEBRA,
    DensityMatrix,
    GateOp,
    PureState,
    RandomSource,
    apply_unitary,
    bell_state,
    fidelity,
    partial_trace,
    tensor,
)


def normalize_amplitudes(a: complex, b: complex) -> tuple[complex, complex, float]:
    """``(a, b) / norm`` and ``norm = sqrt(|a|^2 + |b|^2)``, for any finite pair.

    Both amplitudes are first divided by the power of two that brings their
    largest real or imaginary part into [1, 2), so huge inputs do not
    overflow and tiny ones do not underflow when squared; dividing by a
    power of two is exact, so the rescaling loses no precision. Only an
    exact zero pair is rejected.
    """
    a, b = complex(a), complex(b)
    parts = (a.real, a.imag, b.real, b.imag)
    if not all(map(math.isfinite, parts)):
        raise ValueError("non-finite amplitude")
    largest = max(map(abs, parts))
    if largest == 0.0:
        raise ValueError("input amplitudes are both zero")
    scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
    a, b = a / scale, b / scale
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm, scale * norm


@dataclass(frozen=True)
class InputQubit:
    """Amplitudes (a, b) of the unknown input a|0> + b|1>."""

    a: complex
    b: complex

    def __post_init__(self):
        norm2 = abs(self.a) ** 2 + abs(self.b) ** 2
        if not abs(norm2 - 1.0) <= TOL_ALGEBRA:  # NaN fails too
            raise ValueError(f"|a|^2 + |b|^2 = {norm2!r}, expected 1")

    @classmethod
    def normalized(cls, a: complex, b: complex) -> "InputQubit":
        a, b, _ = normalize_amplitudes(a, b)
        return cls(a, b)

    def state(self, label: str = "A") -> PureState:
        return PureState(np.array([self.a, self.b]), (label,))

    def orthogonal_state(self, label: str = "A") -> PureState:
        """conj(b)|0> - conj(a)|1>, the state orthogonal to the input."""
        return PureState(np.array([np.conj(self.b), -np.conj(self.a)]), (label,))


@dataclass(frozen=True)
class Fidelities:
    f_A: float
    f_B: float
    f_a: float
    f_a_perp: float


@dataclass(frozen=True, eq=False)
class TeleportOutcomeRecord:
    """Everything one protocol run produces."""

    outcome: OutcomeLabel
    probability: float
    final_state: PureState  # qubits (A, a, B) after corrections
    rho_A: DensityMatrix
    rho_B: DensityMatrix
    rho_a: DensityMatrix
    fidelities: Fidelities

    def __post_init__(self):
        if abs(self.probability - 0.25) > TOL_ALGEBRA:
            raise ValueError(
                f"outcome probability {self.probability!r} differs from 1/4; protocol bug"
            )

    def to_json(self) -> dict:
        f = self.fidelities
        return {
            "outcome": self.outcome.bits,
            "probability": self.probability,
            "fidelities": {
                "f_A": f.f_A,
                "f_B": f.f_B,
                "f_a": f.f_a,
                "f_a_perp": f.f_a_perp,
            },
            "final_state": self.final_state.to_json(),
            "marginals": {
                "A": self.rho_A.to_json(),
                "B": self.rho_B.to_json(),
                "a": self.rho_a.to_json(),
            },
        }


def closed_form_fidelities(params: AncillaParams) -> Fidelities:
    """The exact marginal fidelities as functions of (alpha, beta)."""
    a2, b2 = params.alpha ** 2, params.beta ** 2
    return Fidelities(
        f_A=1.0 - a2 / 2.0,
        f_B=1.0 - b2 / 2.0,
        f_a=(a2 + b2) / 2.0,
        f_a_perp=1.0 - (a2 + b2) / 2.0,
    )


def final_state_direct(input: InputQubit, params: AncillaParams) -> PureState:
    """Direct construction of the three-qubit output state (test oracle).

    ``alpha |singlet>_{Aa}|psi>_B - beta |psi>_A |singlet>_{aB}`` on the
    canonical label order (A, a, B); already normalized by the parameter
    constraint.
    """
    branch_tele = tensor(bell_state(4, labels=("A", "a")), input.state("B"))
    branch_keep = tensor(input.state("A"), bell_state(4, labels=("a", "B")))
    amps = params.alpha * branch_tele.amplitudes - params.beta * branch_keep.amplitudes
    return PureState(amps, ("A", "a", "B"))


def run_pqt(
    input: InputQubit,
    params: AncillaParams,
    forced_outcome=None,
    rng: RandomSource | None = None,
) -> TeleportOutcomeRecord:
    """One full protocol run; outcome sampled unless forced."""
    state = tensor(input.state("A"), bell_state(4, labels=("a", "B")))
    network = pnbm_network(params, targets=("A", "a"), ancillas=("anc1", "anc2"))
    outcome, probability, post = network.run(state, forced_outcome=forced_outcome, rng=rng)
    ua, ub = correction_unitaries(outcome)
    post = apply_unitary(post, GateOp(ua, ("a",)))
    post = apply_unitary(post, GateOp(ub, ("B",)))

    rho_A = partial_trace(post, {"A"})
    rho_B = partial_trace(post, {"B"})
    rho_a = partial_trace(post, {"a"})
    fids = Fidelities(
        f_A=fidelity(input.state("A"), rho_A),
        f_B=fidelity(input.state("B"), rho_B),
        f_a=fidelity(input.state("a"), rho_a),
        f_a_perp=fidelity(input.orthogonal_state("a"), rho_a),
    )
    return TeleportOutcomeRecord(
        outcome=outcome,
        probability=probability,
        final_state=post,
        rho_A=rho_A,
        rho_B=rho_B,
        rho_a=rho_a,
        fidelities=fids,
    )


def input_basis_coherence(rho: DensityMatrix, input: InputQubit) -> float:
    """|off-diagonal| of a one-qubit marginal in the {psi, psi_perp} basis.

    The protocol's marginals are statistical mixtures of the input state and
    its orthogonal complement, so this must vanish.
    """
    psi = input.state(rho.labels[0]).amplitudes
    perp = input.orthogonal_state(rho.labels[0]).amplitudes
    return abs(complex(np.vdot(psi, rho.matrix @ perp)))


def cloning_residual(f_A: float, f_B: float) -> float:
    """Distance from the asymmetric-cloning equality.

    Returns ``(1-F_A)(1-F_B) - [1/2 - (1-F_A) - (1-F_B)]^2``; nonnegative
    (within tolerance) means the bound holds, zero means saturation.
    """
    da, db = 1.0 - f_A, 1.0 - f_B
    return da * db - (0.5 - da - db) ** 2


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """Sampled optimal-fidelity frontier, ordered by increasing F_B."""

    kind: str  # "pct" | "pqt"
    points: np.ndarray  # shape (n, 2), columns (F_A, F_B)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("points must be an (n >= 2, 2) array of (F_A, F_B)")
        f_a, f_b = pts[:, 0], pts[:, 1]
        if np.any(np.diff(f_b) < 0):
            raise ValueError("points must be ordered by nondecreasing F_B")
        if self.kind == "pqt":
            if np.any((f_a < 0.5 - 1e-12) | (f_a > 1 + 1e-12)):
                raise ValueError("PQT fidelities must lie in [1/2, 1]")
            residuals = np.array([cloning_residual(a, b) for a, b in pts])
        elif self.kind == "pct":
            if np.any((f_b < 1 / 3 - 1e-12) | (f_b > 2 / 3 + 1e-12)):
                raise ValueError("PCT teleportation fidelity must lie in [1/3, 2/3]")
            # clamp tiny negative arguments at the domain edges
            residuals = np.sqrt(np.maximum(f_a - 1 / 3, 0.0)) - (
                np.sqrt(np.maximum(f_b - 1 / 3, 0.0)) + np.sqrt(np.maximum(2 / 3 - f_b, 0.0))
            )
        else:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        worst = float(np.max(np.abs(residuals)))
        if worst > 1e-10:
            raise ValueError(f"curve points violate the defining equality by {worst:.3e}")
        object.__setattr__(self, "points", pts)


def pct_bound_curve(n_points: int) -> BoundCurve:
    """Optimal measure-and-estimate frontier: F_A = 1/3 + (sqrt(F_B - 1/3) + sqrt(2/3 - F_B))^2."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    f_b = np.linspace(1 / 3, 2 / 3, n_points)
    f_a = 1 / 3 + (np.sqrt(f_b - 1 / 3) + np.sqrt(np.maximum(2 / 3 - f_b, 0.0))) ** 2
    return BoundCurve(kind="pct", points=np.column_stack([f_a, f_b]))


def pqt_bound_curve(n_points: int) -> BoundCurve:
    """Saturation locus of the cloning inequality, swept by the ancilla knob."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    alphas = np.linspace(0.0, 1.0, n_points)
    pts = []
    for alpha in alphas:
        f = closed_form_fidelities(params_from_alpha(float(alpha)))
        pts.append((f.f_A, f.f_B))
    return BoundCurve(kind="pqt", points=np.array(pts))


def pct_upper_teleportation_fidelity(f_A: float) -> float:
    """Larger F_B root of the optimal-PCT equality at a given F_A in [2/3, 1]."""
    if not 2 / 3 - 1e-12 <= f_A <= 1 + 1e-12:
        raise ValueError("optimal PCT only reaches operation fidelities in [2/3, 1]")
    disc = 1 / 9 - (f_A - 2 / 3) ** 2
    u = (1 / 3 + math.sqrt(max(disc, 0.0))) / 2.0
    return 1 / 3 + u


def pqt_teleportation_fidelity(f_A: float) -> float:
    """F_B on the PQT frontier at a given F_A in [1/2, 1]."""
    if not 0.5 - 1e-12 <= f_A <= 1 + 1e-12:
        raise ValueError("PQT operation fidelity lies in [1/2, 1]")
    alpha = math.sqrt(max(2.0 * (1.0 - f_A), 0.0))
    params = params_from_alpha(min(alpha, 1.0))
    return 1.0 - params.beta ** 2 / 2.0


def bound_curve_checks(pct: BoundCurve) -> tuple[float, float]:
    """(corner gap, min quantum-classical margin) of a PCT frontier.

    The corner gap is the L1 distance from (F_A, F_B) = (2/3, 2/3) to the
    nearest sampled point, which must vanish; the margin is the smallest
    PQT-minus-PCT teleportation fidelity over 99 interior F_A in (2/3, 1),
    which must be positive.
    """
    if pct.kind != "pct":
        raise ValueError(f"expected a pct curve, got {pct.kind!r}")
    corner = min(abs(a - 2 / 3) + abs(b - 2 / 3) for a, b in pct.points)
    margin = min(
        pqt_teleportation_fidelity(float(f)) - pct_upper_teleportation_fidelity(float(f))
        for f in np.linspace(2 / 3, 1.0, 101)[1:-1]
    )
    return corner, margin
