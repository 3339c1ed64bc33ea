"""Ancilla resource state for the tunable Bell measurement.

The two measurement ancillas are prepared in ``alpha|00> + beta|++>`` with
``alpha, beta >= 0`` and ``alpha^2 + alpha*beta + beta^2 = 1``; the single
knob ``alpha`` interpolates between no discrimination (alpha=0) and a
perfect Bell measurement (alpha=1), one setting or a stack of them. This
module builds the state directly and runs the one-CNOT circuit that
prepares it; ``selftest`` criterion 10 checks the two against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import (
    HADAMARD,
    TOL_ALGEBRA,
    GateOp,
    PureState,
    apply_unitary,
    cnot,
    computational_state,
    hadamard,
    require_entries,
)


# The two ancilla qubits: the parity bit is read from anc1, the phase bit from anc2.
ANCILLAS = ("anc1", "anc2")


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


def sigma_state(params: AncillaParams) -> PureState:
    """alpha|00> + beta|++> on ANCILLAS, expanded in the computational basis."""
    return PureState(sigma_amplitudes(params.alpha, params.beta), ANCILLAS)


def prep_matrices(params: AncillaParams):
    """The closed-form single-qubit matrices (U, V, W) of the prep circuit.

    U and V are rotations in the computational basis; W is an orthogonal
    (reflection) matrix written in the |+->, i.e. Hadamard, basis. The
    endpoints alpha*beta = 0 are rejected: there W's off-diagonal elements
    are 0/0 and the state is a product state better built directly.
    """
    a, b = params.alpha, params.beta
    if a * b == 0.0:
        raise ValueError(
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


def run_prep_circuit(params: AncillaParams) -> PureState:
    """Prepare ``sigma_state(params)`` from |00> with one CNOT; criterion 10 compares the two.

    Rotate anc1 into the Schmidt weights (U), entangle, then map both qubits
    into the Schmidt basis: V on anc1; H then W on anc2, W acting in the
    basis the Hadamard just produced, so it is conjugated by H for circuit use.
    """
    umat, vmat, wmat = prep_matrices(params)
    hrm = HADAMARD.real
    control, target = ANCILLAS
    state = computational_state("00", ANCILLAS)
    for gate in (
        GateOp(umat, (control,)),
        cnot(control, target),
        GateOp(vmat, (control,)),
        hadamard(target),
        GateOp(hrm @ wmat @ hrm, (target,)),
    ):
        state = apply_unitary(state, gate)
    return state
