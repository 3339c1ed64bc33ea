"""Ancilla resource state for the tunable Bell measurement.

The two measurement ancillas are prepared in ``alpha|00> + beta|++>`` with
``alpha, beta >= 0`` and ``alpha^2 + alpha*beta + beta^2 = 1``; the single
knob ``alpha`` interpolates between no discrimination (alpha=0) and a
perfect Bell measurement (alpha=1), one setting or a stack of them. This
module builds the state directly and runs the one-CNOT circuit that
prepares it, on one setting or a stack, as amplitude rows over ``ANCILLAS``;
``selftest`` criterion 10 checks the two against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import HADAMARD, TOL_ALGEBRA, PureState, require_entries, require_unitary


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


def _matrix_rows(entries) -> np.ndarray:
    """A 2x2 matrix of floats or equal-shape arrays as ``shape + (2, 2)`` matrices."""
    return np.moveaxis(np.array(entries, dtype=np.float64), (0, 1), (-2, -1))


def prep_matrices(params: AncillaParams):
    """The closed-form single-qubit matrices (U, V, W) of the prep circuit.

    U and V are rotations in the computational basis; W is an orthogonal
    (reflection) matrix written in the |+->, i.e. Hadamard, basis. Each has
    shape ``np.shape(params.alpha) + (2, 2)``. The endpoints alpha*beta = 0
    are rejected, entry by entry: there W's off-diagonal elements are 0/0 and
    the state is a product state better built directly. The two differences
    of near-equal terms, ``a + b - s`` and ``s - b``, are written as quotients,
    so the matrices stay orthogonal to rounding however close alpha is to 0 or 1.
    """
    a, b = params.alpha, params.beta
    message = "prep matrices are indeterminate at alpha = {!r}, where alpha*beta = 0"
    require_entries(a * b > 0.0, a, message + "; use sigma_state directly")
    s = np.sqrt(a * a + b * b)
    k = np.sqrt(2.0 * (a * a + b * b + a * s))
    u11 = (a + b + s) / 2.0
    u21 = a * b / (a + b + s)  # (a + b - s) / 2
    s_minus_b = a * a / (s + b)
    r2 = math.sqrt(2.0)
    umat = _matrix_rows([[u11, -u21], [u21, u11]])
    vmat = _matrix_rows([[(a + s) / k, -b / k], [b / k, (a + s) / k]])
    wmat = _matrix_rows(
        [
            [r2 * u11 / k, b * s_minus_b / (r2 * k * u21)],
            [a * (s + a) / (r2 * k * u11), -a * b / (r2 * k * u21)],
        ]
    )
    return umat, vmat, wmat


def run_prep_circuit(params: AncillaParams) -> np.ndarray:
    """Prepare ``sigma_amplitudes`` from |00> with one CNOT; criterion 10 compares the two.

    Rotate anc1 into the Schmidt weights (U), entangle, then map both qubits
    into the Schmidt basis: V on anc1; H then W on anc2, W acting in the
    basis the Hadamard just produced, so it is conjugated by H for circuit use.
    Returns ``np.shape(params.alpha) + (4,)`` amplitude rows over ``ANCILLAS``.
    U, V and H W H must be unitary at ``TOL_ALGEBRA`` on every row.
    """
    umat, vmat, wmat = prep_matrices(params)
    hrm = HADAMARD.real
    hwh = hrm @ wmat @ hrm
    for name, gate in (("U", umat), ("V", vmat), ("H W H", hwh)):
        require_unitary(gate, f"prep gate {name}")
    # Per row a 2x2 amplitude matrix, anc1 the row index and anc2 the column
    # index: a gate G acts on anc1 as G @ psi and on anc2 as psi @ G.T.
    psi = np.zeros(np.shape(params.alpha) + (2, 2))
    psi[..., 0, 0] = 1.0
    psi = umat @ psi  # U on anc1
    psi = np.stack([psi[..., 0, :], psi[..., 1, ::-1]], axis=-2)  # CNOT, anc1 controls anc2
    psi = vmat @ psi  # V on anc1
    psi = psi @ hrm.T  # H on anc2
    psi = psi @ hwh.swapaxes(-1, -2)  # H W H on anc2
    return psi.reshape(psi.shape[:-2] + (4,))
