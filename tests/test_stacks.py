"""Stacked knobs: one AncillaParams, KrausSet or CvConfig per grid gives the per-float
values bit for bit."""

import math

import numpy as np
import pytest

from pnbm.analysis import (
    design_mean_fidelities,
    mean_fidelities_closed,
    mean_fidelities_from_kraus,
    tradeoff_residual,
)
from pnbm.ancilla import AncillaParams, params_from_alpha
from pnbm.cv import CvConfig, covariance_conditioning_check, cv_fidelities
from pnbm.measurement import completeness_residual, kraus_set
from pnbm.teleport import (
    closed_form_fidelities,
    pct_upper_teleportation_fidelity,
    pqt_teleportation_fidelity,
)

ALPHAS = np.linspace(0.0, 1.0, 201001)


def assert_bits_equal(stacked, scalars):
    """Equal bit patterns, so -0.0 against 0.0 or a last-ulp change fails."""
    stacked = np.asarray(stacked, dtype=float)
    scalars = np.array(scalars, dtype=float)
    assert stacked.shape == scalars.shape
    assert np.array_equal(stacked.view(np.int64), scalars.view(np.int64))


def test_alpha_closed_forms_match_per_float_calls():
    """Every tenth grid point one float at a time: 20 101 calls of each, about 0.6 s.

    A stack and a float take different numpy inner loops; a loop that rounds
    differently, as numpy's array ``a ** 2`` does on 148 of 200 000 draws,
    would show about 15 times here. The next test covers all 201 001 points.
    """
    grid = ALPHAS[::10]
    params = params_from_alpha(grid)
    fids = closed_form_fidelities(params)
    pair = mean_fidelities_closed(params)
    residual = tradeoff_residual(*pair.T, 4)
    stacked = [params.alpha, params.beta, *fids.T, *pair.T, residual]
    scalar = []
    for alpha in grid.tolist():
        row_params = params_from_alpha(alpha)
        row_fids = closed_form_fidelities(row_params)
        row_pair = mean_fidelities_closed(row_params)
        scalar.append((
            row_params.alpha, row_params.beta, *row_fids,
            *row_pair, tradeoff_residual(*row_pair, 4),
        ))
    for column, values in zip(stacked, zip(*scalar)):
        assert_bits_equal(column, values)


def test_alpha_closed_forms_match_the_python_float_formulas():
    """All 201 001 stacked entries equal the Python-float formulas: float ``**``
    (libm ``pow``), ``math.sqrt`` and ``max``, one alpha at a time."""
    params = params_from_alpha(ALPHAS)
    fids = closed_form_fidelities(params)
    pair = mean_fidelities_closed(params)
    rows = []
    for a in ALPHAS.tolist():
        b = (math.sqrt(4.0 - 3.0 * a ** 2) - a) / 2.0
        f_op, f_est = (1.0 + (a + 2.0 * b) ** 2) / 5.0, (1.0 + (a + b / 2.0) ** 2) / 5.0
        residual = (
            math.sqrt(max(f_est - 0.2, 0.0)) + math.sqrt(max(3.0 * (0.4 - f_est), 0.0))
            - math.sqrt(max(f_op - 0.2, 0.0))
        )
        rows.append((b, 1.0 - a ** 2 / 2.0, 1.0 - b ** 2 / 2.0, (a ** 2 + b ** 2) / 2.0,
                     f_op, f_est, residual))
    stacked = [params.beta, *fids.T[:3], *pair.T, tradeoff_residual(*pair.T, 4)]
    for column, values in zip(stacked, zip(*rows)):
        assert_bits_equal(column, values)


def test_kraus_stack_matches_per_float_sets():
    """One stacked KrausSet against 1002 one-entry sets: the operators, the
    completeness residual, the trace/eigenvalue formulas and the 3-design."""
    grid = np.append(np.linspace(0.0, 1.0, 1001), 1.0 / math.sqrt(3.0))
    stack = kraus_set(params_from_alpha(grid))
    formula = mean_fidelities_from_kraus(stack)
    design = design_mean_fidelities(stack)
    stacked = [stack.bell_diagonals, stack.operators.view(np.float64),
               completeness_residual(stack.operators),
               *formula.T, *design.T]
    scalar = []
    for alpha in grid.tolist():
        row = kraus_set(params_from_alpha(alpha))
        row_formula = mean_fidelities_from_kraus(row)
        row_design = design_mean_fidelities(row)
        scalar.append((
            row.bell_diagonals, row.operators.view(np.float64),
            completeness_residual(row.operators),
            *row_formula, *row_design,
        ))
    for column, values in zip(stacked, zip(*scalar)):
        assert_bits_equal(column, values)


@pytest.mark.parametrize("root, low", [
    (pct_upper_teleportation_fidelity, 2 / 3),
    (pqt_teleportation_fidelity, 0.5),
])
def test_bound_curve_roots_match_per_float_calls(root, low):
    f_A = np.linspace(low, 1.0, 20001)
    assert_bits_equal(root(f_A), [root(f) for f in f_A.tolist()])


def test_cv_closed_columns_and_gamma_match_math():
    rng = np.random.default_rng(2026)
    # np.exp and libm differ on a few percent of e^{-2r}; with kappa near 1
    # and r below 1 that reaches the printed f_b_closed.
    kappa = np.concatenate([10.0 ** rng.uniform(-100.0, 100.0, 2500), rng.uniform(0.25, 4.0, 2500)])
    r = np.concatenate([[0.0, 700.0], rng.uniform(0.0, 700.0, 1248), rng.uniform(0.0, 10.0, 1250),
                        rng.uniform(0.0, 1.0, 2500)])
    config = CvConfig(kappa=kappa, r=r)
    fids = cv_fidelities(config)
    rows = list(zip(kappa.tolist(), r.tolist()))
    assert_bits_equal(config.gamma, [math.log(k) for k in kappa.tolist()])
    assert_bits_equal(fids["f_a_closed"], [2.0 / (2.0 + k ** 2) for k, _ in rows])
    assert_bits_equal(
        fids["f_b_closed"], [2.0 / (2.0 * (1.0 + math.exp(-2.0 * r)) + 1.0 / k ** 2) for k, r in rows]
    )
    assert_bits_equal(fids["f_b_optimal"], [2.0 / (2.0 + 1.0 / k ** 2) for k, _ in rows])


def test_float_knob_is_shared_by_every_row():
    kappa = np.array([0.3, 1.0, 1.7])
    shared = cv_fidelities(CvConfig(kappa=kappa, r=2.0))
    repeated = cv_fidelities(CvConfig(kappa=kappa, r=np.full(3, 2.0)))
    for name in ("f_a_sim", "f_b_sim", "f_a_closed", "f_b_closed", "f_b_optimal"):
        assert_bits_equal(shared[name], repeated[name])


class TestStackValidation:
    """A stack fails on its first bad entry, and the message names the value and its row."""

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match=r"^alpha 1\.5 outside \[0, 1\] \(row 2\)$"):
            params_from_alpha(np.array([0.0, 0.5, 1.5, -1.0]))

    def test_alpha_nan(self):
        with pytest.raises(ValueError, match=r"^alpha nan outside \[0, 1\] \(row 1\)$"):
            params_from_alpha(np.array([0.5, math.nan, 0.7]))

    def test_float_message_has_no_row(self):
        with pytest.raises(ValueError, match=r"^alpha 1\.5 outside \[0, 1\]$"):
            params_from_alpha(1.5)

    def test_ancilla_params_entries(self):
        good = params_from_alpha(np.array([0.2, 0.4, 0.6]))
        beta = good.beta.copy()
        beta[1] = math.nan
        with pytest.raises(ValueError, match=r"nonnegative \(row 1\)"):
            AncillaParams(good.alpha, beta)
        beta[1] = good.beta[1] + 1e-9
        with pytest.raises(ValueError, match=r"violated by .* \(row 1\)"):
            AncillaParams(good.alpha, beta)

    @pytest.mark.parametrize("knob, values, message", [
        ("kappa", [1.0, 0.0, 2.0], r"got 0\.0 \(row 1\)$"),
        ("kappa", [1.0, 2.0, math.nan], r"got nan \(row 2\)$"),
        ("r", [701.0, 1.0], r"at most 700, got 701\.0 \(row 0\)$"),
        ("r", [1.0, math.nan], r"got nan \(row 1\)$"),
    ])
    def test_cv_config_entries(self, knob, values, message):
        knobs = {"kappa": 1.0, "r": 1.0, knob: np.array(values)}
        with pytest.raises(ValueError, match=message):
            CvConfig(**knobs)

    def test_conditioning_oracle_takes_one_configuration(self):
        with pytest.raises(ValueError, match="one configuration, not a stack"):
            covariance_conditioning_check(CvConfig(kappa=np.array([1.0, 2.0]), r=1.0))
