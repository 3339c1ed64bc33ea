"""The CV protocol's Heisenberg frame and added noise, proved in exact arithmetic.

The frame is rebuilt in ``fractions`` from ``cv._GATES`` and the feed-forward as
``build_cv_protocol`` writes them, and is bit-equal to the float frame at the 13
dyadic kappas 2^-6 to 2^6, where every float product and quotient is exact.

With q = e^(2r), the input covariance's squeezed entries cosh(2r)/2 and
sinh(2r)/2 are (q +- 1/q)/4. For every output row, the x and p variances of
modes A and B are then equal, and the added photons are n_A = kappa^2/2 and
n_B = 1/q + 1/(2 kappa^2), exactly. That holds for every kappa > 0 and q >= 1,
not only on the grid. Each QND gate is two row operations that scale one row by
+-kappa, so after the four gates an entry is a polynomial of degree at most 4
in kappa. The feed-forward divides by kappa once, so kappa times an entry has
degree at most 5; the frame entries in fact span kappa^-1 to kappa. Covariance
entries times q have degree at most 2 in q. So a variance times kappa^2 q, and
each claimed identity times kappa^2 q, is a polynomial of degree at most 10 in
kappa and 2 in q, which the 13 x 3 grid fixes (Schwartz, J. ACM 27, 701
(1980)): 39 cases.

``cv_fidelities``' closed columns are then compared in floats with 1/(1 + n)
at r = ln(q)/2, within a few ulps. The conditioning oracle is left to
tests/test_cv.py: in ``fractions`` it takes seconds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from pnbm.cv import _GATES, QUADS, CvConfig, _index, build_cv_protocol, cv_fidelities

KAPPAS = tuple(Fraction(2) ** e for e in range(-6, 7))
QS = (1, 2, 4)
HALF = Fraction(1, 2)


def _exact_frame(kappa):
    """``build_cv_protocol``'s frame at ``kappa``, as rows of Fractions."""
    frame = [[Fraction(int(i == j)) for j in range(10)] for i in range(10)]

    def add(row, source, c):
        frame[row] = [x + c * y for x, y in zip(frame[row], frame[source])]

    for control, target, sign in _GATES:
        c = Fraction(sign) * kappa
        add(_index(target, "x"), _index(control, "x"), c)
        add(_index(control, "p"), _index(target, "p"), -c)
    # The meter rows 1x and 2p are the measured combinations, fed forward over kappa.
    xu, pv = _index("1", "x"), _index("2", "p")
    add(_index("a", "x"), xu, -1 / kappa)
    add(_index("a", "p"), pv, -1 / kappa)
    add(_index("B", "x"), xu, -1 / kappa)
    add(_index("B", "p"), pv, 1 / kappa)
    return frame


def _exact_covariance(q):
    """The input covariance at e^(2r) = q: vacuum 1/2, and (q + 1/q)/4 on the
    squeezed pair's diagonal with +-(q - 1/q)/4 between x_a, x_B and p_a, p_B."""
    q = Fraction(q)
    sigma = [[HALF if i == j else Fraction(0) for j in range(10)] for i in range(10)]
    for quad, sign in (("x", 1), ("p", -1)):
        ia, ib = _index("a", quad), _index("B", quad)
        sigma[ia][ia] = sigma[ib][ib] = (q + 1 / q) / 4
        sigma[ia][ib] = sigma[ib][ia] = sign * (q - 1 / q) / 4
    return sigma


def _variance(row, sigma):
    return sum(x * sigma[i][j] * y for i, x in enumerate(row) if x for j, y in enumerate(row) if y)


@pytest.mark.parametrize("kappa", KAPPAS, ids=str)
def test_float_frame_is_the_exact_frame(kappa):
    exact = np.array(_exact_frame(kappa), dtype=float)
    assert np.array_equal(build_cv_protocol(CvConfig(kappa=float(kappa), r=0.0)), exact)


@pytest.mark.parametrize("q", QS, ids=lambda q: f"q{q}")
@pytest.mark.parametrize("kappa", KAPPAS, ids=str)
def test_added_noise_is_the_closed_form(kappa, q):
    frame, sigma = _exact_frame(kappa), _exact_covariance(q)
    n_A, n_B = (
        [_variance(frame[_index(mode, quad)], sigma) - HALF for quad in QUADS]
        for mode in ("A", "B")
    )
    assert n_A == [kappa**2 / 2] * 2
    assert n_B == [1 / Fraction(q) + 1 / (2 * kappa**2)] * 2
    closed = cv_fidelities(CvConfig(kappa=float(kappa), r=math.log(q) / 2))
    for key, n in (("f_a_closed", n_A[0]), ("f_b_closed", n_B[0])):
        exact = float(1 / (1 + n))
        assert abs(float(closed[key]) - exact) <= 4 * math.ulp(exact)
