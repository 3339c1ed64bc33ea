"""The paper's two optimality claims, tested off the optimum.

Criteria 2 and 8 show that the measurement family lies on the asymmetric
cloning bound and on the disturbance/information trade-off bound (Banaszek,
quant-ph/0008123). Here nearby operations must stay on the allowed side of
both bounds: each margin is nonnegative, vanishes on the family, and grows
as eps^2 with the size eps of a random perturbation.

Each margin is bounded below by ``C * eps^2``. ``C`` is the smallest
``margin / eps^2`` measured over this file's fixed seeds and grids (5.268 for
the trade-off and 5.782 for cloning, both at eps = 0.1), rounded down and
divided by a safety factor of 4.

The same trade-off at d = 2 is the classical (measure-and-prepare) frontier of
``bounds``; a test simulates a family on it.

The last tests certify that no channel at all, not only no nearby one, beats
the protocol's split of the input among the three outgoing qubits. With Choi
vector ``v = sum_i |i> (x) V|i>`` of the protocol's isometry V, each fidelity is
``v^dag R_X v`` for an operator ``R_X``. Every channel's Choi matrix chi has
``Tr chi = 2``, so weights lambda >= 0 bound every channel's fidelities by
``lambda . F <= 2 lambda_max(sum_X lambda_X R_X)``. Where the protocol meets
that bound, no channel beats it in the direction lambda.

The final tests certify the trade-off the same way, against every instrument:
with Choi vectors ``v_k = sum_i |i> (x) A_k|i>`` and guesses phi_k, F_op and
F_est are ``sum_k v_k^dag R v_k`` for ``R_op`` and ``R_est(phi_k)``. Since
``sum_k Tr chi_k = d`` and covariance makes ``lambda_max`` of
``(1 - t) R_op + t R_est(phi)`` the same for every phi, every instrument has
``(1 - t) F_op + t F_est <= d lambda_max((1 - t) R_op + t R_est(phi))``.
The protocol meets that bound at the weight t of its frontier's tangent.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from pnbm.analysis import _stabilizer_states, mean_fidelities_closed, tradeoff_residual
from pnbm.ancilla import params_from_alpha
from pnbm.measurement import kraus_set
from pnbm.qsim import BELL_MATRIX
from pnbm.teleport import (
    closed_form_fidelities,
    final_state_direct,
    pct_upper_teleportation_fidelity,
)

EPSILONS = (1e-1, 1e-2, 1e-3)
SAFETY = 4.0
C_TRADEOFF = 5.26 / SAFETY
C_CLONING = 5.78 / SAFETY

# The six octahedron states, a qubit 3-design: their mean of a fidelity is its Bloch-sphere mean.
OCTAHEDRON = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]]) / np.sqrt(
    [[1], [1], [2], [2], [2], [2]]
)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


# -- trade-off -------------------------------------------------------------------


def _perturbed_instruments(alphas, eps, rng):
    """Kraus stacks ``(n, 4, 4, 4)`` moved by eps times a complex Gaussian, then
    made complete again as ``A'_k M^{-1/2}`` with ``M = sum_k A'_k^dag A'_k``."""
    ops = kraus_set(params_from_alpha(alphas)).operators
    ops = ops + eps * _complex_normal(rng, ops.shape)
    w, v = np.linalg.eigh((_dagger(ops) @ ops).sum(axis=-3))
    inv_sqrt = (v / np.sqrt(w)[..., None, :]) @ _dagger(v)
    return ops @ inv_sqrt[..., None, :, :]


def _general_mean_fidelities(ops):
    """Haar means for any complete instrument with one Kraus operator per outcome:
    F_op = (4 + sum_k |Tr A_k|^2) / 20, F_est = (4 + sum_k lambda_max(A_k^dag A_k)) / 20."""
    traces = np.trace(ops, axis1=-2, axis2=-1)
    top = np.linalg.eigvalsh(_dagger(ops) @ ops)[..., -1]
    return (4.0 + (np.abs(traces) ** 2).sum(axis=-1)) / 20.0, (4.0 + top.sum(axis=-1)) / 20.0


def _stabilizer_mean_fidelities(ops):
    """The same means over the 60 two-qubit stabilizer states, guessing the top
    eigenvector of A_k^dag A_k for outcome k."""
    re, im = _stabilizer_states()
    psi = (re + 1j * im) / np.linalg.norm(re + 1j * im, axis=1, keepdims=True)
    guesses = np.linalg.eigh(_dagger(ops) @ ops)[1][..., -1]  # (n, k, 4)
    kets = np.einsum("nkij,sj->nksi", ops, psi)  # A_k |psi_s>
    f_op = np.abs(np.einsum("si,nksi->nks", psi.conj(), kets)) ** 2
    p = (np.abs(kets) ** 2).sum(axis=-1)
    guess_weight = np.abs(np.einsum("nki,si->nks", guesses.conj(), psi)) ** 2
    return f_op.sum(axis=1).mean(axis=-1), (p * guess_weight).sum(axis=1).mean(axis=-1)


def _tradeoff_margin(ops):
    f_op, f_est = _general_mean_fidelities(ops)
    return tradeoff_residual(f_op, f_est, 4)


def test_general_formulas_match_the_stabilizer_mean():
    ops = _perturbed_instruments(np.array([0.0, 0.3, 0.6, 1.0]), 0.1, np.random.default_rng(5))
    for general, design in zip(_general_mean_fidelities(ops), _stabilizer_mean_fidelities(ops)):
        assert np.max(np.abs(general - design)) < 1e-12


def test_unperturbed_tradeoff_margin_vanishes():
    ops = _perturbed_instruments(np.linspace(0.0, 1.0, 101), 0.0, np.random.default_rng(7))
    assert np.max(np.abs(_tradeoff_margin(ops))) < 1e-12


@pytest.mark.parametrize("eps", EPSILONS)
def test_perturbed_instruments_stay_inside_the_tradeoff_bound(eps):
    rng = np.random.default_rng(11)
    ops = _perturbed_instruments(rng.uniform(0.0, 1.0, 500), eps, rng)
    assert np.min(_tradeoff_margin(ops)) >= C_TRADEOFF * eps**2


# -- cloning ---------------------------------------------------------------------


def _protocol_isometries(alphas):
    """``(n, 8, 2)``: columns are ``final_state_direct`` of |0> and |1> over (A, a, B)."""
    return np.array([
        np.column_stack([
            final_state_direct(basis, params_from_alpha(alpha)).amplitudes
            for basis in ((1.0, 0.0), (0.0, 1.0))
        ])
        for alpha in alphas
    ])


def _perturbed_isometries(isometries, eps, rng):
    """Move each isometry by eps times a complex Gaussian and re-orthonormalise by
    QR, with the column phases of R's diagonal put back so that eps = 0 is the identity."""
    q, r = np.linalg.qr(isometries + eps * _complex_normal(rng, isometries.shape))
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def _cloning_margin(isometries):
    """``sqrt(dA dB) - (1/2 - dA - dB)`` with d = 1 - F, F averaged over the octahedron.

    Unlike the squared ``cloning_residual``, this is a bound everywhere: it is
    nonnegative for every cloner, including where ``1/2 - dA - dB < 0``.
    """
    out = np.einsum("nij,sj->nsi", isometries, OCTAHEDRON).reshape(-1, 6, 2, 2, 2)
    rho_A = np.einsum("nsabc,nsdbc->nsad", out, out.conj())
    rho_B = np.einsum("nsabc,nsabd->nscd", out, out.conj())
    d_A, d_B = (
        1.0 - np.einsum("sa,nsab,sb->ns", OCTAHEDRON.conj(), rho, OCTAHEDRON).real.mean(axis=-1)
        for rho in (rho_A, rho_B)
    )
    return np.sqrt(d_A * d_B) - (0.5 - d_A - d_B)


def test_protocol_is_an_isometry_on_the_cloning_bound():
    isometries = _protocol_isometries(np.linspace(0.0, 1.0, 21))
    assert np.max(np.abs(_dagger(isometries) @ isometries - np.eye(2))) < 1e-12
    unperturbed = _perturbed_isometries(isometries, 0.0, np.random.default_rng(13))
    assert np.max(np.abs(unperturbed - isometries)) < 1e-12
    assert np.max(np.abs(_cloning_margin(unperturbed))) < 1e-12


@pytest.mark.parametrize("eps", EPSILONS)
def test_perturbed_isometries_stay_inside_the_cloning_bound(eps):
    rng = np.random.default_rng(17)
    isometries = _protocol_isometries(rng.uniform(0.05, 0.95, 300))
    margin = _cloning_margin(_perturbed_isometries(isometries, eps, rng))
    assert np.min(margin) >= C_CLONING * eps**2


# -- classical frontier ------------------------------------------------------------


def _measure_and_prepare_operators(b):
    """``(n, 2, 2, 2)``: the d = 2 measure-and-prepare family ``A_k = a|k><k| + b I``,
    ``a = sqrt(1 - b^2) - b``, per entry of ``b``."""
    a = np.sqrt(1.0 - b**2) - b
    projectors = np.eye(2)[:, :, None] * np.eye(2)[:, None, :]  # |k><k|
    return a[:, None, None, None] * projectors + b[:, None, None, None] * np.eye(2)


def _measure_and_prepare(b):
    """The family of ``_measure_and_prepare_operators``, guessing |k> on outcome k: its
    completeness residual and its (F, G) per entry of ``b``, averaged over the
    octahedron (F and G are quadratic in the input state)."""
    ops = _measure_and_prepare_operators(b)
    completeness = np.max(np.abs((_dagger(ops) @ ops).sum(axis=1) - np.eye(2)))
    kets = np.einsum("nkij,sj->nksi", ops, OCTAHEDRON)  # A_k |psi_s>
    f_op = np.abs(np.einsum("si,nksi->nks", OCTAHEDRON.conj(), kets)) ** 2
    p = (np.abs(kets) ** 2).sum(axis=-1)
    guess_weight = np.abs(OCTAHEDRON.T) ** 2  # |<k|psi_s>|^2
    f_est = (p * guess_weight).sum(axis=1).mean(axis=-1)
    return completeness, f_op.sum(axis=1).mean(axis=-1), f_est


def test_measure_and_prepare_family_lies_on_the_classical_frontier():
    """Banaszek's trade-off at d = 2 is the PCT frontier of ``bounds``: the simulated
    family spans it from (2/3, 2/3) to (1, 1/2), meets its equality, and G is the
    upper root that ``pct_upper_teleportation_fidelity`` gives for F."""
    completeness, f_op, f_est = _measure_and_prepare(np.linspace(0.0, 1.0 / np.sqrt(2.0), 201))
    assert completeness < 1e-12
    assert np.max(np.abs([f_op[[0, -1]] - [2 / 3, 1.0], f_est[[0, -1]] - [2 / 3, 0.5]])) < 1e-12
    assert np.max(np.abs(tradeoff_residual(f_op, f_est, 2))) < 1e-12
    assert np.max(np.abs(pct_upper_teleportation_fidelity(f_op) - f_est)) < 1e-12


# -- optimality certificate ----------------------------------------------------------


def _fidelity_operators():
    """``(3, 16, 16)``: ``R_X`` for F_A, F_B and F_a_perp, the octahedron mean of
    ``conj(psi) psi^T (x) P_X`` on the Choi space C^2 (x) C^8 over (A, a, B).
    ``P_X`` projects onto psi at A or B, and onto psi_perp at a."""
    eye2 = np.eye(2)
    total = np.zeros((3, 16, 16), dtype=complex)
    for psi in OCTAHEDRON:
        p = np.outer(psi, psi.conj())
        outputs = (
            np.kron(p, np.eye(4)),
            np.kron(np.eye(4), p),
            np.kron(np.kron(eye2, eye2 - p), eye2),
        )
        total += [np.kron(p.T, projector) for projector in outputs]
    return total / len(OCTAHEDRON)


FIDELITY_OPERATORS = _fidelity_operators()


def _certificate(v, operators, f):
    """The weights lambda, summing to 1, with ``R(lambda) v`` parallel to v that
    maximise ``min(lambda)``, and the gap ``lambda . f - 2 lambda_max(R(lambda))``.

    lambda lies in the null space of the columns ``R_X v - (f_X / v^dag v) v``.
    """
    columns = (operators @ v).T - np.outer(v, f / np.vdot(v, v).real)
    _, singular, vh = np.linalg.svd(np.vstack([columns.real, columns.imag]))
    null = vh[np.sum(singular > 1e-10) :].T  # (k, m)
    k, m = null.shape
    # Over (w, t): maximise t subject to null @ w >= t and sum(null @ w) = 1.
    result = linprog(
        np.r_[np.zeros(m), -1.0],
        A_ub=np.c_[-null, np.ones(k)],
        b_ub=np.zeros(k),
        A_eq=np.r_[null.sum(axis=0), 0.0][None],
        b_eq=[1.0],
        bounds=(None, None),
    )
    assert result.status == 0, result.message
    weights = null @ result.x[:m]
    top = np.linalg.eigvalsh(np.tensordot(weights, operators, axes=1))[-1]
    return weights, weights @ f - 2.0 * top


@pytest.mark.parametrize("outputs", [(0, 1), (0, 1, 2)], ids=["FA-FB", "FA-FB-Faperp"])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0 / np.sqrt(3.0), 0.8, 0.95])
def test_no_channel_beats_the_protocol(alpha, outputs):
    v = _protocol_isometries([alpha])[0].T.reshape(-1)  # sum_i |i> (x) V|i>
    operators = FIDELITY_OPERATORS[list(outputs)]
    f = np.einsum("i,xij,j->x", v.conj(), operators, v).real
    closed = closed_form_fidelities(params_from_alpha(alpha))[[0, 1, 3]]
    assert np.max(np.abs(f - closed[list(outputs)])) <= 1e-14
    weights, gap = _certificate(v, operators, f)
    assert np.min(weights) > 0.0
    assert abs(gap) <= 1e-12


# -- trade-off certificate -------------------------------------------------------------


def _choi_vectors(ops):
    """``sum_i |i> (x) A|i>`` for each (d, d) operator of a stack, as (..., d^2) rows."""
    return ops.swapaxes(-1, -2).reshape(ops.shape[:-2] + (-1,))


def _tradeoff_operators(states, guesses):
    """``R_op`` and ``R_est(phi)`` per guess phi, the means over ``states`` (the rows
    of a 3-design, which these degree-(2, 2) means need) of ``conj(psi) psi^T (x) psi
    psi^dag`` and ``|<phi|psi>|^2 conj(psi) psi^T (x) I`` on the Choi space."""
    states = states / np.linalg.norm(states, axis=1, keepdims=True)
    n, d = states.shape
    inputs = np.einsum("si,sj->sij", states.conj(), states)
    r_op = np.einsum("sij,skl->ikjl", inputs, inputs.conj()).reshape(d * d, d * d) / n
    weights = np.abs(guesses.conj() @ states.T) ** 2  # (guesses, states)
    r_est = np.kron(np.einsum("gs,sij->gij", weights, inputs) / n, np.eye(d))
    return r_op, r_est


def _choi_fidelities(ops, r_op, r_est):
    """(F_op, F_est) of the instrument with Kraus operators ``ops``, guessing
    phi_k (the k-th row behind ``r_est``) on outcome k."""
    v = _choi_vectors(ops)
    f_op = np.einsum("ki,ij,kj->", v.conj(), r_op, v).real
    f_est = np.einsum("ki,kij,kj->", v.conj(), r_est, v).real
    return f_op, f_est


def _tradeoff_gap(d, t, r_op, r_est, f_op, f_est):
    """``d lambda_max((1 - t) R_op + t R_est) - ((1 - t) F_op + t F_est)``: never
    negative, and 0 where (F_op, F_est) lies on every instrument's frontier."""
    top = np.linalg.eigvalsh((1.0 - t) * r_op + t * r_est)[-1]
    return d * top - ((1.0 - t) * f_op + t * f_est)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0 / np.sqrt(3.0), 0.8, 0.95])
def test_no_instrument_beats_the_measurement_tradeoff(alpha):
    """d = 4: the Choi fidelities are the closed forms, and the closed forms meet the
    bound, with R_est at any of the four guesses, at the tangent's weight
    ``t / (1 - t) = -F_op'(alpha) / F_est'(alpha)``."""
    re, im = _stabilizer_states()
    # Guess Bell state k on outcome k: the top eigenvector of A_k^dag A_k.
    r_op, r_est = _tradeoff_operators(re + 1j * im, BELL_MATRIX.T)
    params = params_from_alpha(alpha)
    closed = mean_fidelities_closed(params)
    choi = _choi_fidelities(kraus_set(params).operators, r_op, r_est)
    assert np.max(np.abs(np.array(choi) - closed)) <= 1e-14
    a, b = params.alpha, params.beta
    db = -(2.0 * a + b) / (a + 2.0 * b)  # from alpha^2 + alpha beta + beta^2 = 1
    ratio = -((a + 2.0 * b) * (1.0 + 2.0 * db)) / ((a + b / 2.0) * (1.0 + db / 2.0))
    t = ratio / (1.0 + ratio)
    assert 0.0 < t < 1.0
    for r_guess in r_est:  # covariance: every Bell guess gives the same lambda_max
        assert abs(_tradeoff_gap(4, t, r_op, r_guess, *closed)) <= 1e-12


@pytest.mark.parametrize("b", np.linspace(0.05, 0.7, 6))
def test_no_instrument_beats_the_classical_frontier(b):
    """d = 2, on the measure-and-prepare family, where A_0 = diag(c, b) with
    c = sqrt(1 - b^2): F = 2 (1 + b c) / 3 and G = (1 + c^2) / 3, so the tangent's
    weight is ``t / (1 - t) = -F'(b) / G'(b) = (c^2 - b^2) / (b c)``."""
    r_op, r_est = _tradeoff_operators(OCTAHEDRON, np.eye(2))
    ops = _measure_and_prepare_operators(np.array([b]))
    _, f_op, f_est = _measure_and_prepare(np.array([b]))
    choi = _choi_fidelities(ops[0], r_op, r_est)
    assert np.max(np.abs(np.array(choi) - [f_op[0], f_est[0]])) <= 1e-14
    c = np.sqrt(1.0 - b**2)
    ratio = (c * c - b * b) / (b * c)
    t = ratio / (1.0 + ratio)
    assert 0.0 < t < 1.0
    assert abs(_tradeoff_gap(2, t, r_op, r_est[0], f_op[0], f_est[0])) <= 1e-12
