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
"""

import itertools
import string

import numpy as np
import pytest

from pnbm.ancilla import ANCILLAS, AncillaParams, sigma_amplitudes
from pnbm.measurement import ALL_OUTCOMES, correction_unitaries, kraus_set, pnbm_network
from pnbm.qsim import bell_state, compose
from pnbm.teleport import final_state_direct

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
    gates = pnbm_network(AncillaParams(1.0, 0.0)).gates  # the same for every alpha
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
    ua, ub = correction_unitaries(bits)
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
