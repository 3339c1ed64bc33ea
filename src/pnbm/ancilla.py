"""Ancilla resource state for the tunable Bell measurement.

The two measurement ancillas are prepared in ``alpha|00> + beta|++>`` with
``alpha, beta >= 0`` and ``alpha^2 + alpha*beta + beta^2 = 1``; the single
knob ``alpha`` interpolates between no discrimination (alpha=0) and a
perfect Bell measurement (alpha=1), one setting or a stack of them. This
module builds the state directly and carries a small one-CNOT preparation
circuit; ``selftest`` criterion 10 checks it against the direct construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import (
    CNOT_MATRIX,
    HADAMARD,
    TOL_ALGEBRA,
    GateOp,
    PureState,
    apply_unitary,
    computational_state,
    require_entries,
)


class DegenerateAncillaError(ValueError):
    """Raised where the closed-form circuit matrices are 0/0 (alpha*beta = 0)."""


@dataclass(frozen=True)
class AncillaParams:
    """The pair (alpha, beta) controlling the discrimination strength: floats or 1-D stacks."""

    alpha: float | np.ndarray
    beta: float | np.ndarray

    def __post_init__(self):
        alpha, beta = self.alpha, self.beta
        # Every check is written so that NaN fails it, entry by entry.
        require_entries(alpha >= 0, alpha, "alpha and beta must be nonnegative")
        require_entries(beta >= 0, beta, "alpha and beta must be nonnegative")
        # float_power is libm pow, as float ** is: a stack matches its floats bit for bit.
        residual = np.float_power(alpha, 2.0) + alpha * beta + np.float_power(beta, 2.0) - 1.0
        message = "normalization alpha^2 + alpha*beta + beta^2 = 1 violated by {:.3e}"
        require_entries(abs(residual) <= TOL_ALGEBRA, residual, message)


def params_from_alpha(alpha) -> AncillaParams:
    """Solve for beta given alpha in [0, 1]: a float, or a 1-D array for the stack of rows."""
    require_entries((alpha >= 0.0) & (alpha <= 1.0), alpha, "alpha {!r} outside [0, 1]")
    beta = (np.sqrt(4.0 - 3.0 * np.float_power(alpha, 2.0)) - alpha) / 2.0
    return AncillaParams(alpha, beta)


def sigma_amplitudes(alpha, beta) -> np.ndarray:
    """Amplitudes of alpha|00> + beta|++> over |00>, |01>, |10>, |11>.

    For arrays of (alpha, beta) the four amplitudes run along a new last axis.
    """
    return np.stack([alpha + beta / 2.0, beta / 2.0, beta / 2.0, beta / 2.0], axis=-1)


def sigma_state(params: AncillaParams, labels=("anc1", "anc2")) -> PureState:
    """alpha|00> + beta|++> expanded in the computational basis."""
    return PureState(sigma_amplitudes(params.alpha, params.beta), labels)


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
    circuit: PrepCircuit, params: AncillaParams, labels=("anc1", "anc2")
) -> PureState:
    """Run a wiring on |00>; criterion 10 compares the default one with sigma_state."""
    mats = _circuit_matrices(params)
    state = computational_state("00", labels)
    control = labels[circuit.cnot_control]
    target = labels[1 - circuit.cnot_control]
    for name, q in circuit.pre:
        state = apply_unitary(state, GateOp(mats[name], (labels[q],)))
    state = apply_unitary(state, GateOp(CNOT_MATRIX, (control, target)))
    for name, q in circuit.post:
        state = apply_unitary(state, GateOp(mats[name], (labels[q],)))
    return state
