"""The paper's output state, readout map and readout probabilities, proved in
integer arithmetic.

For every readout, the measurement network followed by that readout's
correction turns ``|psi>_A |singlet>_{aB}`` with ancillas ``alpha|00> + beta|++>``
into ``alpha |singlet>_{Aa} |psi>_B - beta |psi>_A |singlet>_{aB}``
(``final_state_direct``), times 1/2, the square root of the readout's
probability.

The network's gates are CNOTs and four Hadamards, so with the integer Hadamard
``[[1, 1], [1, -1]]`` the network unitary is ``U_int = 4 U``, and the singlet
times sqrt 2 and the ancilla state times 2 are integer vectors. Each corrected
branch is linear in psi and linear in (alpha, beta), even off the normalisation
``alpha^2 + alpha beta + beta^2 = 1``. So the 16 integer cases below, psi and
(alpha, beta) each on a basis and all four readouts, prove the identity for
every input, every alpha and every readout. ``U_int`` is built with int64
``np.einsum`` and never with qsim's contraction code; the one float check ties
it to ``qsim.compose``.

The same argument proves the two claims the selftest checks in floats:
- Criterion 10: on the pair ``("A", "a")`` the network's readout-k branch is
  the Kraus operator ``A_k`` applied to the pair's state, so ``U_int`` over the
  pair and the ancillas maps ``e_j (x) 2 sigma`` to ``8 A_k e_j`` in column k.
  That is bilinear in the pair's state and (alpha, beta): 4 basis states, 2
  points and 4 readouts, 32 cases.
- Criterion 5: every readout has probability 1/4. Scaled, the branch's squared
  norm is ``32 (alpha^2 + alpha beta + beta^2) |psi|^2``. Both sides are a
  binary quadratic form in (alpha, beta), which the 3 points (1, 0), (0, 1) and
  (1, 1) fix, times a 2x2 Hermitian form in psi, which |0>, |1>, |0> + |1> and
  |0> + i|1> fix: 12 cases per readout, 48 in all.

And it proves the four fidelities of ``closed_form_fidelities`` for every input.
``D_i = sqrt 2 * final_state_direct(e_i)`` is an integer vector at (alpha, beta)
= (1, 0) and (0, 1), and linear in (alpha, beta), so ``D(1, 1) = D(1, 0) +
D(0, 1)``. Per output qubit, ``Phi(E_ij) = Tr_rest(D_i D_j^dag)`` is the
unnormalised channel from psi psi^dag, and ``<psi|Phi(psi psi^dag)|psi>`` (with
``psi_perp = (conj psi_1, -conj psi_0)`` as the reference for f_a_perp) is a
polynomial of degree 2 in psi and 2 in conj psi. Two such polynomials are equal
exactly when their coefficient tensors, symmetrised over the psi indices and over
the conj psi indices, are equal (Schwartz, J. ACM 27, 701 (1980)). It must be
``2 f(alpha, beta) |psi|^4``, where f is the fidelity homogenised to a binary
quadratic form, which the 3 points fix: 12 cases.

Last, it proves the two mean fidelities of ``analysis.mean_fidelities_closed``
in fractions. The 60 two-qubit stabilizer states of
``analysis._stabilizer_states`` have every amplitude in {0, +-1, +-i}, so their
overlaps and their Bell weights ``u_j = |sqrt 2 <Bell_j|z>|^2`` are integers.
Their frame potential is the Haar value 1 / C(t + 3, t) for t = 1, 2 and 3, so
they form a 3-design (arXiv:1510.02767), and the mean over them of a per-sample
fidelity of degree (2, 2) in (psi, conj psi) is its Haar mean. With ``D_kj = a +
b/2`` on j = k and b/2 elsewhere, ``f_op = sum_k (D_k . u)^2 / (sum u)^2`` and
``f_est = sum_k (D_k^2 . u) u_k / (sum u)^2``; their means are binary quadratic
forms in (a, b), which the 3 points fix.
"""

import itertools
import math
import string
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pnbm.analysis import _stabilizer_states, design_mean_fidelities, mean_fidelities_closed
from pnbm.ancilla import ANCILLAS, AncillaParams, params_from_alpha, sigma_amplitudes
from pnbm.measurement import ALL_OUTCOMES, PnbmNetwork, kraus_set
from pnbm.qsim import BELL_MATRIX, bell_state, compose
from pnbm.teleport import _CORRECTIONS, closed_form_fidelities, final_state_direct

LABELS = ("A", "a", "B") + ANCILLAS
PAIR_LABELS = ("A", "a") + ANCILLAS
SQRT2 = np.sqrt(2.0)
# (alpha, beta) = (1, 0) and (0, 1): both normalised, and a basis of the pairs.
KNOBS = ((1, 0), (0, 1))
INPUTS = ((1, 0), (0, 1))
# With (1, 1), off the normalisation conic, three points that fix a binary quadratic form.
QUADRATIC_KNOBS = KNOBS + ((1, 1),)
# |0>, |1>, |0> + |1> and |0> + i|1> as (real, imaginary) parts: they fix a 2x2 Hermitian form.
HERMITIAN_INPUTS = (((1, 0), (0, 0)), ((0, 1), (0, 0)), ((1, 1), (0, 0)), ((1, 0), (0, 1)))


def _integer(values, scale):
    """``values * scale`` as int64, after checking that it is within 1e-15 of integers."""
    scaled = np.asarray(values) * scale
    exact = np.rint(scaled.real)
    assert np.max(np.abs(scaled - exact)) <= 1e-15
    return exact.astype(np.int64)


def _integer_gate(matrix):
    """The gate as an int64 matrix and its scale: 1 for a CNOT, sqrt 2 for a Hadamard."""
    scale = 1.0 if np.array_equal(matrix, np.rint(matrix.real)) else SQRT2
    return _integer(matrix, scale), scale


def _integer_unitary(gates, labels):
    """``4 U`` over ``labels`` in int64: the gates applied one by one with ``np.einsum``."""
    n = len(labels)
    axes = string.ascii_lowercase[:n]
    columns = np.eye(2**n, dtype=np.int64).reshape((2,) * n + (2**n,))
    scale = 1.0
    for gate in gates:
        matrix, gate_scale = _integer_gate(gate.matrix)
        scale *= gate_scale
        targets = [labels.index(t) for t in gate.targets]
        ins = "".join(axes[i] for i in targets)
        outs = string.ascii_uppercase[: len(targets)]
        result = "".join(outs[targets.index(i)] if i in targets else axes[i] for i in range(n))
        tensor = matrix.reshape((2,) * (2 * len(targets)))
        columns = np.einsum(f"{outs}{ins},{axes}z->{result}z", tensor, columns)
    assert abs(scale - 4.0) < 1e-14  # four Hadamards
    return columns.reshape(2**n, 2**n)


@pytest.fixture(scope="module")
def network():
    """``(gates, U_int)``: the network's gates and ``4 U`` in int64 per label tuple,
    ``LABELS`` and ``PAIR_LABELS``."""
    gates = PnbmNetwork.gates  # the same for every alpha
    return gates, {labels: _integer_unitary(gates, labels) for labels in (LABELS, PAIR_LABELS)}


def test_compose_is_the_integer_unitary_over_four(network):
    gates, unitaries = network
    for labels, unitary in unitaries.items():
        assert np.max(np.abs(compose(gates, labels) - unitary / 4.0)) <= 1e-15


@pytest.mark.parametrize(
    "knobs, psi, bits",
    [
        pytest.param(knobs, psi, bits, id=f"alpha{knobs[0]}-psi{psi[1]}-{bits}")
        for knobs, psi, bits in itertools.product(KNOBS, INPUTS, ALL_OUTCOMES)
    ],
)
def test_every_corrected_branch_is_the_paper_output_state(network, knobs, psi, bits):
    unitary = network[1][LABELS]
    alpha, beta = knobs
    singlet = _integer(bell_state(4).amplitudes, SQRT2)
    sigma = _integer(sigma_amplitudes(alpha, beta), 2.0)
    state = np.kron(np.kron(np.array(psi, dtype=np.int64), singlet), sigma)
    # The ancillas are the low bits: column k is the branch that reads ALL_OUTCOMES[k].
    branch = (unitary @ state).reshape(8, 4)[:, ALL_OUTCOMES.index(bits)]
    ua, ub = _CORRECTIONS[bits]
    correction = np.kron(np.eye(2, dtype=np.int64), _integer(np.kron(ua, ub), 1.0))
    direct = final_state_direct(np.array(psi, dtype=float), AncillaParams(alpha, beta))
    assert np.array_equal(correction @ branch, 4 * _integer(direct.amplitudes, SQRT2))


@pytest.mark.parametrize(
    "knobs, j, bits",
    [
        pytest.param(knobs, j, bits, id=f"alpha{knobs[0]}-e{j}-{bits}")
        for knobs, j, bits in itertools.product(KNOBS, range(4), ALL_OUTCOMES)
    ],
)
def test_every_readout_branch_is_the_kraus_action(network, knobs, j, bits):
    """Criterion 10's identity: readout k of the network on the pair is A_k."""
    unitary = network[1][PAIR_LABELS]
    alpha, beta = knobs
    k = ALL_OUTCOMES.index(bits)
    basis = np.eye(4, dtype=np.int64)[j]
    state = np.kron(basis, _integer(sigma_amplitudes(alpha, beta), 2.0))
    branch = (unitary @ state).reshape(4, 4)[:, k]
    kraus = _integer(kraus_set(AncillaParams(alpha, beta)).operators[k], 4.0)
    assert np.array_equal(branch, 2 * kraus @ basis)


@pytest.mark.parametrize(
    "knobs, psi, bits",
    [
        pytest.param(knobs, psi, bits, id=f"alpha{knobs[0]}-beta{knobs[1]}-psi{n}-{bits}")
        for knobs, (n, psi), bits in itertools.product(
            QUADRATIC_KNOBS, enumerate(HERMITIAN_INPUTS), ALL_OUTCOMES
        )
    ],
)
def test_every_readout_has_probability_one_quarter(network, knobs, psi, bits):
    """Criterion 5's claim: the readout's squared norm is 1/4 of the input's, scaled."""
    unitary = network[1][LABELS]
    alpha, beta = knobs
    singlet = _integer(bell_state(4).amplitudes, SQRT2)
    sigma = _integer(sigma_amplitudes(alpha, beta), 2.0)
    k = ALL_OUTCOMES.index(bits)
    norm2 = 0
    for part in psi:  # U_int is real, so the real and imaginary parts stay apart
        state = np.kron(np.kron(np.array(part, dtype=np.int64), singlet), sigma)
        branch = (unitary @ state).reshape(8, 4)[:, k]
        norm2 += int(branch @ branch)
    psi_norm2 = sum(int(np.dot(part, part)) for part in psi)
    assert norm2 == 32 * (alpha**2 + alpha * beta + beta**2) * psi_norm2


def _against_psi(channel):
    """Coefficients ``[i, l, j, k]`` of ``<psi|M|psi> = sum conj psi_k M[k, l] psi_l``,
    where ``M = sum psi_i conj psi_j channel[i, j]``."""
    return np.einsum("ijkl->iljk", channel)


_PERP = np.array([[0, 1], [-1, 0]], dtype=np.int64)


def _against_psi_perp(channel):
    """The same with psi_perp: ``conj psi_perp = _PERP psi``, ``psi_perp = _PERP conj psi``."""
    return np.einsum("ijkl,km,ln->imjn", channel, _PERP, _PERP)


# Per fidelity: the output qubit, its reference state, and 2 f homogenised: on
# the conic alpha^2 + alpha beta + beta^2 = 1 it is twice the closed form.
FIDELITY_FORMS = {
    "f_A": ("A", _against_psi, lambda a, b: a * a + 2 * a * b + 2 * b * b),
    "f_B": ("B", _against_psi, lambda a, b: 2 * a * a + 2 * a * b + b * b),
    "f_a": ("a", _against_psi, lambda a, b: a * a + b * b),
    "f_a_perp": ("a", _against_psi_perp, lambda a, b: a * a + 2 * a * b + b * b),
}


def _direct(knobs):
    """``sqrt 2 * final_state_direct(e_i)`` in int64, as ``[i, A, a, B]``; off the
    conic, (1, 1), by linearity in (alpha, beta)."""
    if knobs == (1, 1):
        return _direct((1, 0)) + _direct((0, 1))
    rows = [final_state_direct(e, AncillaParams(*knobs)).amplitudes for e in np.eye(2)]
    return _integer(rows, SQRT2).reshape(2, 2, 2, 2)


def _symmetrised(coefficients):
    """Sum of the coefficient tensor ``[i, l, j, k]`` of ``psi_i psi_l conj psi_j conj
    psi_k`` over the swaps of (i, l) and of (j, k): equal for equal polynomials."""
    psi_swapped = coefficients + coefficients.transpose(1, 0, 2, 3)
    return psi_swapped + psi_swapped.transpose(0, 1, 3, 2)


# |psi|^4 = <psi|M|psi> for M = |psi|^2 I, from the channel delta_ij I.
_ID2 = np.eye(2, dtype=np.int64)
NORM4 = _symmetrised(_against_psi(np.einsum("ij,kl->ijkl", _ID2, _ID2)))


@pytest.mark.parametrize("knobs", QUADRATIC_KNOBS, ids=lambda k: f"alpha{k[0]}-beta{k[1]}")
@pytest.mark.parametrize("name", FIDELITY_FORMS)
def test_every_fidelity_is_its_closed_form(knobs, name):
    qubit, against, twice_f = FIDELITY_FORMS[name]
    rows = np.moveaxis(_direct(knobs), 1 + ("A", "a", "B").index(qubit), 1).reshape(2, 2, 4)
    channel = np.einsum("ikr,jlr->ijkl", rows, rows.conj())  # Phi(E_ij)[k, l]
    assert np.array_equal(_symmetrised(against(channel)), twice_f(*knobs) * NORM4)


def test_fidelity_forms_are_the_closed_forms_on_the_conic():
    params = params_from_alpha(np.linspace(0.0, 1.0, 101))
    forms = [twice_f(params.alpha, params.beta) / 2 for _, _, twice_f in FIDELITY_FORMS.values()]
    assert np.max(np.abs(np.stack(forms, axis=-1) - closed_form_fidelities(params))) <= 1e-15


@pytest.fixture(scope="module")
def stabilizer_states():
    """The 60 stabilizer rows as int64 (real, imaginary) parts."""
    re, im = (_integer(part, 1.0) for part in _stabilizer_states())
    assert not np.any(re * im) and np.all(np.abs(re) + np.abs(im) <= 1)
    return re, im


def test_the_stabilizer_states_are_a_3_design_and_not_a_4_design(stabilizer_states):
    """Frame potential: the mean of |<z_i|z_j>|^(2t) / (<z_i|z_i> <z_j|z_j>)^t over all pairs."""
    re, im = stabilizer_states
    overlap_re, overlap_im = re @ re.T + im @ im.T, re @ im.T - im @ re.T
    norms = np.diag(overlap_re)
    pairs = Counter(zip((overlap_re**2 + overlap_im**2).ravel().tolist(),
                        np.outer(norms, norms).ravel().tolist()))

    def potential(t):
        return sum(count * Fraction(o**t, n**t) for (o, n), count in pairs.items()) / len(re) ** 2

    assert [potential(t) for t in (1, 2, 3)] == [Fraction(1, math.comb(t + 3, t)) for t in (1, 2, 3)]
    assert potential(4) == Fraction(1, 32) != Fraction(1, math.comb(7, 4))


# Per mean fidelity, homogenised: on the conic a^2 + ab + b^2 = 1 it is the closed form.
MEAN_FORMS = (
    lambda a, b: ((a * a + a * b + b * b) + (a + 2 * b) ** 2) / 5,
    lambda a, b: ((a * a + a * b + b * b) + (a + b / 2) ** 2) / 5,
)


def _design_means(weights, a, b):
    """(f_op, f_est) averaged over the rows of Bell weights ``weights``, in fractions."""
    d = [[a + b / 2 if j == k else b / 2 for j in range(4)] for k in range(4)]
    f_op = f_est = Fraction(0)
    for u in weights:
        norm2 = sum(u) ** 2
        f_op += sum(sum(x * uj for x, uj in zip(dk, u)) ** 2 for dk in d) / norm2
        f_est += sum(sum(x * x * uj for x, uj in zip(dk, u)) * uk for dk, uk in zip(d, u)) / norm2
    return f_op / len(weights), f_est / len(weights)


def test_every_mean_fidelity_is_its_closed_form(stabilizer_states):
    bell = _integer(BELL_MATRIX.T, SQRT2)  # row j is sqrt 2 <Bell_j|, real
    weights = sum((part @ bell.T) ** 2 for part in stabilizer_states).tolist()
    for a, b in QUADRATIC_KNOBS:
        a, b = Fraction(a), Fraction(b)
        assert _design_means(weights, a, b) == tuple(form(a, b) for form in MEAN_FORMS)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1 / math.sqrt(3.0), 0.8, 1.0])
def test_mean_fidelity_floats_are_the_exact_forms(alpha):
    params = params_from_alpha(alpha)
    a, b = Fraction(float(params.alpha)), Fraction(float(params.beta))
    exact = [float(form(a, b)) for form in MEAN_FORMS]
    for means in (mean_fidelities_closed(params), design_mean_fidelities(kraus_set(params))):
        assert np.max(np.abs(np.subtract(means, exact))) <= 2 * np.finfo(float).eps
