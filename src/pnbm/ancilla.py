"""Ancilla resource state for the tunable Bell measurement.

The two measurement ancillas are prepared in ``alpha|00> + beta|++>`` with
``alpha, beta >= 0`` and ``alpha^2 + alpha*beta + beta^2 = 1``; the single
knob ``alpha`` interpolates between no discrimination (alpha=0) and a
perfect Bell measurement (alpha=1). This module builds the state directly,
exposes its purity diagnostic, and carries a small one-CNOT preparation
circuit, validated against the direct construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import (
    CNOT_MATRIX,
    HADAMARD,
    TOL_ALGEBRA,
    TOL_CIRCUIT,
    GateOp,
    PureState,
    apply_unitary,
    computational_state,
)


class DegenerateAncillaError(ValueError):
    """Raised where the closed-form circuit matrices are 0/0 (alpha*beta = 0)."""


class WiringError(RuntimeError):
    """A candidate preparation wiring failed the equivalence check."""

    def __init__(self, message: str, overlap: float):
        super().__init__(f"{message} (overlap modulus {overlap:.12f})")
        self.overlap = overlap


@dataclass(frozen=True)
class AncillaParams:
    """The pair (alpha, beta) controlling the discrimination strength."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        residual = self.alpha ** 2 + self.alpha * self.beta + self.beta ** 2 - 1.0
        if abs(residual) > TOL_ALGEBRA:
            raise ValueError(
                f"normalization alpha^2 + alpha*beta + beta^2 = 1 violated by {residual:.3e}"
            )


def params_from_alpha(alpha: float) -> AncillaParams:
    """Solve the normalization constraint for beta given alpha in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    beta = (math.sqrt(4.0 - 3.0 * alpha ** 2) - alpha) / 2.0
    return AncillaParams(alpha, beta)


def sigma_state(params: AncillaParams, labels=("anc1", "anc2")) -> PureState:
    """alpha|00> + beta|++> expanded in the computational basis."""
    a, b = params.alpha, params.beta
    amps = np.array([a + b / 2.0, b / 2.0, b / 2.0, b / 2.0], dtype=np.complex128)
    return PureState(amps, labels)


def ancilla_purity(params: AncillaParams) -> float:
    """Purity of either reduced ancilla qubit: 1 - alpha^2 beta^2 / 2."""
    return 1.0 - (params.alpha ** 2) * (params.beta ** 2) / 2.0


def prep_matrices(params: AncillaParams):
    """The closed-form single-qubit matrices (U, V, W) of the prep circuit.

    U and V are rotations in the computational basis; W is an orthogonal
    (reflection) matrix written in the |+->, i.e. Hadamard, basis. The
    endpoints alpha*beta = 0 are rejected: there W's off-diagonal elements
    are 0/0 and the state is a product state better built directly.
    """
    a, b = params.alpha, params.beta
    if a * b == 0.0:
        raise DegenerateAncillaError(
            "prep matrices are indeterminate at alpha*beta = 0; use sigma_state directly"
        )
    s = math.sqrt(a * a + b * b)
    k = math.sqrt(2.0 * (a * a + b * b + a * s))
    u11 = (a + b + s) / 2.0
    u21 = (a + b - s) / 2.0
    umat = np.array([[u11, -u21], [u21, u11]])
    vmat = np.array([[(a + s) / k, -b / k], [b / k, (a + s) / k]])
    wmat = np.array(
        [
            [math.sqrt(2.0) * u11 / k, b * (s - b) / (math.sqrt(2.0) * k * u21)],
            [a * (s + a) / (math.sqrt(2.0) * k * u11), -a * b / (math.sqrt(2.0) * k * u21)],
        ]
    )
    return umat, vmat, wmat


def _circuit_matrices(params: AncillaParams) -> dict[str, np.ndarray]:
    umat, vmat, wmat = prep_matrices(params)
    hrm = HADAMARD.real
    return {
        "U": umat,
        "V": vmat,
        # W is specified in the |+-> basis; conjugate by H for circuit use.
        "W": hrm @ wmat @ hrm,
        "H": hrm,
    }


@dataclass(frozen=True)
class PrepCircuit:
    """Declarative two-qubit wiring: single-qubit steps around one CNOT.

    ``steps`` is an ordered tuple of ``(gate_name, qubit_index)`` entries
    with gate names from {U, V, W, H}; the CNOT sits between the pre and
    post steps and is described by its control index.
    """

    pre: tuple[tuple[str, int], ...]
    post: tuple[tuple[str, int], ...]
    cnot_control: int = 0

    def __post_init__(self):
        for name, qubit in self.pre + self.post:
            if name not in ("U", "V", "W", "H"):
                raise ValueError(f"unknown gate name {name!r}")
            if qubit not in (0, 1):
                raise ValueError(f"qubit index must be 0 or 1, got {qubit}")
        if self.cnot_control not in (0, 1):
            raise ValueError("cnot_control must be 0 or 1")


# Wiring found by search_prep_wiring in tests/test_ancilla.py, which checks
# candidates against the direct construction:
# rotate the control into the Schmidt weights, entangle, then map both
# qubits into the Schmidt basis (V on the control; H followed by W on the
# target, W acting in the basis the Hadamard just produced).
DEFAULT_PREP_CIRCUIT = PrepCircuit(
    pre=(("U", 0),),
    post=(("V", 0), ("H", 1), ("W", 1)),
    cnot_control=0,
)


def run_prep_circuit(
    circuit: PrepCircuit,
    params: AncillaParams,
    labels=("anc1", "anc2"),
    validate: bool = True,
) -> PureState:
    """Run a wiring on |00> and (by default) check it against sigma_state."""
    mats = _circuit_matrices(params)
    state = computational_state("00", labels)
    control = labels[circuit.cnot_control]
    target = labels[1 - circuit.cnot_control]
    for name, q in circuit.pre:
        state = apply_unitary(state, GateOp(mats[name], (labels[q],)))
    state = apply_unitary(state, GateOp(CNOT_MATRIX, (control, target)))
    for name, q in circuit.post:
        state = apply_unitary(state, GateOp(mats[name], (labels[q],)))
    if validate:
        overlap = abs(state.overlap(sigma_state(params, labels)))
        if overlap <= 1.0 - TOL_CIRCUIT:
            raise WiringError("prep circuit does not reproduce the ancilla state", overlap)
    return state
