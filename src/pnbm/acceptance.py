"""Acceptance criteria: each headline number of the paper at its stated tolerance.

``CRITERIA`` is the one ordered registry of the twelve criteria. Both
``pytest tests/test_acceptance.py`` and ``pnbm selftest`` run it through
``run_criterion``, so the two verdicts agree by construction. Each check
takes ``(seed, mc_samples)`` and returns ``(ok, detail)`` from ``_verdict``:
a footer of its worst values, gated by ``failed_gates``. Only the scalar
replays (``_replay_failure``; ``sweep-qubit`` shares criterion 2's through
``qubit_replay_failure``) and criterion 10's guard before a division fail on
their own. A check that raises ValueError fails with the error as its detail.
Wall-clock gates are applied by the caller to the elapsed time
``run_criterion`` measures.

One builder per protocol returns a table's ``(columns, footer, gates)``
(``bound_curves``: one columns mapping per frontier): the CLI sweeps and
``bounds`` emit and gate it, and criteria 2, 8, 11 and 12 apply the same gates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ancilla import params_from_alpha, run_prep_circuit, sigma_amplitudes
from .analysis import (
    design_mean_fidelities,
    mean_fidelities_closed,
    mean_fidelities_from_kraus,
    monte_carlo_mean_fidelities,
    tradeoff_residual,
)
from .cv import CvConfig, covariance_conditioning_check, cv_fidelities
from .measurement import (
    ALL_OUTCOMES,
    apply_pnbm_kraus,
    completeness_residual,
    kraus_set,
    network_branches,
    pnbm_network,
)
from .qsim import BELL_MATRIX, MIN_FORCED_PROBABILITY, bell_state
from .qsim import haar_random_pure, haar_rows, tensor
from .teleport import (
    closed_form_fidelities,
    cloning_residual,
    normalize_amplitudes,
    pct_bound_curve,
    pct_upper_teleportation_fidelity,
    pqt_bound_curve,
    pqt_teleportation_fidelity,
    run_pqt,
    run_pqt_batch,
)

SYM = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class Criterion:
    """One registry entry: the id is the check's function name."""

    id: str
    name: str
    check: Callable[[int, int], tuple[bool, str]]


_registry: list[Criterion] = []


def _criterion(name: str):
    def register(check):
        _registry.append(Criterion(check.__name__, name, check))
        return check

    return register


def run_criterion(criterion: Criterion, seed: int, mc_samples: int) -> tuple[bool, str, float]:
    """Run one check timed with ``time.perf_counter``; return ``(ok, line, elapsed_s)``,
    where ``line`` is ``PASS  <name>  (<detail>)`` or the same with ``FAIL``; a
    ValueError from the check is a FAIL with ``error: <message>`` as the detail."""
    started = time.perf_counter()
    try:
        ok, detail = criterion.check(seed, mc_samples)
    except ValueError as exc:
        ok, detail = False, f"error: {exc}"
    elapsed_s = time.perf_counter() - started
    return ok, f"{'PASS' if ok else 'FAIL'}  {criterion.name}  ({detail})", elapsed_s


def _exceeds(value, tol) -> bool:
    """The one residual gate: True when value > tol or either is NaN."""
    return not value <= tol


def _max_abs(*columns) -> float:
    """Largest absolute entry of the columns, NaN if any entry is NaN."""
    return float(np.max(np.abs(columns)))


def failed_gates(footer, gates) -> list[str]:
    """``<label> <value> beyond <tol>`` for each ``(key, tol, label)`` gate that
    ``footer[key]`` fails by ``_exceeds``, so NaN fails."""
    return [
        f"{label} {footer[key]:.3e} beyond {tol:g}"
        for key, tol, label in gates
        if _exceeds(footer[key], tol)
    ]


def _verdict(footer, gates, detail) -> tuple[bool, str]:
    """``(ok, detail)``: the failed gates, else ``detail`` formatted with the footer."""
    failed = failed_gates(footer, gates)
    return not failed, "; ".join(failed) or detail.format(**footer)


def qubit_sweep(params, fidelities, tol=1e-10):
    """``sweep-qubit``'s and ``teleport``'s table: ``(n, 4)`` fidelities against the
    cloning bound and closed form; ``closed_sim_delta`` covers all four."""
    f_A, f_B, f_a, f_a_perp = fidelities.T
    closed = closed_form_fidelities(params)
    residual = cloning_residual(f_A, f_B)
    delta = np.abs(fidelities - closed).max(axis=-1)
    columns = {
        "alpha": params.alpha, "beta": params.beta,
        "f_A_sim": f_A, "f_B_sim": f_B, "f_a_sim": f_a, "f_a_perp_sim": f_a_perp,
        "f_A_closed": closed[..., 0], "f_B_closed": closed[..., 1], "f_a_closed": closed[..., 2],
        "cloning_residual": residual, "closed_sim_delta": delta,
    }
    footer = {
        "max_abs_cloning_residual": _max_abs(residual),
        "max_closed_sim_delta": _max_abs(delta),
    }
    return columns, footer, [
        ("max_abs_cloning_residual", tol, "cloning residual"),
        ("max_closed_sim_delta", tol, "closed-form vs simulated delta"),
    ]


def measurement_sweep(params, tol=1e-10, mc_samples=None, seed=0):
    """``sweep-measurement``'s table from the estimators' (f_op, f_est) rows; with
    ``mc_samples``, one Haar Monte-Carlo call over the stacked Kraus set adds four
    ungated columns, row i drawn on ``np.random.default_rng(seed + i)``, so a row
    does not depend on the grid around it."""
    kraus = kraus_set(params)
    closed = mean_fidelities_closed(params)
    formula = mean_fidelities_from_kraus(kraus)
    design = design_mean_fidelities(kraus)
    residual = tradeoff_residual(closed[..., 0], closed[..., 1], 4)
    columns = {
        "alpha": params.alpha, "beta": params.beta,
        "f_op_closed": closed[..., 0], "f_est_closed": closed[..., 1],
        "f_op_kraus": formula[..., 0], "f_est_kraus": formula[..., 1],
    }
    footer = {
        "max_abs_tradeoff_residual": _max_abs(residual),
        "max_formula_delta": _max_abs(closed - formula),
    }
    if mc_samples is not None:
        means, stderrs = monte_carlo_mean_fidelities(kraus, mc_samples, seed)
        columns.update(f_op_mc=means[..., 0], f_est_mc=means[..., 1],
                       mc_stderr_op=stderrs[..., 0], mc_stderr_est=stderrs[..., 1])
        footer["mc_samples"] = mc_samples
    columns["tradeoff_residual"] = residual
    footer["max_design_delta"] = _max_abs(closed - design)
    return columns, footer, [
        ("max_abs_tradeoff_residual", tol, "trade-off residual"),
        ("max_formula_delta", 1e-12, "formula delta"),
        ("max_design_delta", 1e-12, "design delta"),
    ]


def cv_sweep(config: CvConfig, tol=1e-10):
    """``sweep-cv``'s table: simulated against closed-form fidelities, one row per entry."""
    kappa, gamma, r = np.broadcast_arrays(config.kappa, config.gamma, config.r)
    columns = {"kappa": kappa, "gamma": gamma, "r": r, **cv_fidelities(config)}
    # np.maximum keeps a NaN of either mode.
    columns["deviation"] = deviation = np.maximum(
        np.abs(columns["f_a_sim"] - columns["f_a_closed"]),
        np.abs(columns["f_b_sim"] - columns["f_b_closed"]),
    )
    footer = {"max_deviation": _max_abs(deviation)}
    return columns, footer, [("max_deviation", tol, "simulated vs closed-form deviation")]


def bound_curves(points, tol=1e-10):
    """``bounds``' two frontiers as ``({"pct": columns, "pqt": columns}, footer, gates)``.

    The footer holds each frontier's defining-equality residual; the PQT
    inversion's, the cloning residual of (F_A, pqt_teleportation_fidelity(F_A));
    the PCT inversion's, the largest |pct_upper_teleportation_fidelity(F_A) - F_B|
    over the pct points on the upper branch, F_B >= 1/2; the corner gap, the L1
    distance from (F_A, F_B) = (2/3, 2/3) to the nearest pct point, which must
    vanish; and the margin, the least PQT-minus-PCT teleportation fidelity,
    which must be positive. The PQT inversion and the margin run over 99
    interior F_A in (2/3, 1).
    """
    pct, pqt = pct_bound_curve(points), pqt_bound_curve(points)
    upper = pct["f_B"] >= 1 / 2
    f_A = np.linspace(2 / 3, 1.0, 101)[1:-1]
    pqt_f_B = pqt_teleportation_fidelity(f_A)
    margin = float((pqt_f_B - pct_upper_teleportation_fidelity(f_A)).min())
    footer = {
        "pct_equality": _max_abs(tradeoff_residual(pct["f_A"], pct["f_B"], 2)),
        "pqt_equality": _max_abs(cloning_residual(pqt["f_A"], pqt["f_B"])),
        "pqt_inversion": _max_abs(cloning_residual(f_A, pqt_f_B)),
        "pct_inversion": _max_abs(
            pct_upper_teleportation_fidelity(pct["f_A"][upper]) - pct["f_B"][upper]
        ),
        "corner": float((np.abs(pct["f_A"] - 2 / 3) + np.abs(pct["f_B"] - 2 / 3)).min()),
        "margin": margin, "-margin": -margin,
    }
    # margin > 0 is -margin <= -ulp(0), the largest negative float; NaN fails.
    return {"pct": pct, "pqt": pqt}, footer, [
        ("pct_equality", 1e-10, "pct frontier equality"),
        ("pqt_equality", 1e-10, "pqt cloning residual"),
        ("pqt_inversion", 1e-10, "pqt inversion cloning residual"),
        ("pct_inversion", 1e-10, "pct inversion"),
        ("corner", tol, "pct corner gap"),
        ("-margin", -math.ulp(0.0), "negated quantum-classical margin"),
    ]


# Criteria 2, 5 and 10 and sweep-qubit run their grids stacked; each re-runs this
# many of its first rows through the scalar path, on a fresh generator with
# its own seed. Two or more also catch a per-row draw order that drifts after
# the first row.
_REPLAY_ROWS = 3


def _replay_failure(seed, alphas, labels, scalar, batch_rows) -> str | None:
    """Replay the first ``_REPLAY_ROWS`` alphas through the scalar path on one fresh
    ``np.random.default_rng(seed)``: per alpha, one ``haar_random_pure`` state over
    ``labels``, then ``scalar(state, params_from_alpha(alpha), rng, index)``. Returns
    the detail of the first row more than 1e-14 off ``batch_rows[index]``, else None."""
    rng = np.random.default_rng(seed)
    for index, alpha in enumerate(alphas[:_REPLAY_ROWS].tolist()):
        state = haar_random_pure(len(labels), rng, labels=labels)
        got = scalar(state, params_from_alpha(alpha), rng, index)
        delta = float(np.max(np.abs(np.subtract(batch_rows[index], got))))
        if not delta <= 1e-14:  # NaN fails too
            return f"scalar replay row {index} differs from the batch by {delta:.2e}"
    return None


def qubit_replay_failure(seed, alphas, batch, forced_outcome=None) -> str | None:
    """``_replay_failure`` of a ``run_pqt_batch`` against ``run_pqt`` on the batch's
    seed, per row its outcome index, then its 4 fidelities."""

    def rows(run):
        return np.column_stack([run.outcomes, run.fidelities])

    def scalar(state, params, rng, index):
        return rows(run_pqt(state.amplitudes, params, forced_outcome, rng))[0]

    return _replay_failure(seed, alphas, ("A",), scalar, rows(batch))


@_criterion("criterion 1: F_A = F_B = 5/6 at the symmetric point")
def criterion_01_symmetric_point_fidelities(seed, mc_samples):
    f_A, f_B, _, _ = run_pqt((1.0, 0.0), params_from_alpha(SYM), "00").fidelities[0]
    footer = {"deviation": _max_abs(f_A - 5 / 6, f_B - 5 / 6)}
    return _verdict(footer, [("deviation", 1e-10, "F_A, F_B vs 5/6")], "deviation {deviation:.2e}")


@_criterion("criterion 2: cloning-inequality saturation from partial-trace fidelities")
def criterion_02_cloning_saturation_on_grid(seed, mc_samples):
    alphas = np.linspace(0.0, 1.0, 101)
    params = params_from_alpha(alphas)
    inputs = haar_rows(len(alphas), 1, np.random.default_rng(seed))
    batch = run_pqt_batch(inputs, params, forced_outcome="00")
    failure = qubit_replay_failure(seed, alphas, batch, "00")
    if failure:
        return False, failure
    _, footer, gates = qubit_sweep(params, batch.fidelities)
    return _verdict(footer, gates, "max |residual| {max_abs_cloning_residual:.2e}")


@_criterion("criterion 3: perfect/blind endpoints")
def criterion_03_endpoints_exact(seed, mc_samples):
    inp = normalize_amplitudes(0.6, 0.8j)[:2]
    full_A, full_B, _, _ = run_pqt(inp, params_from_alpha(1.0), forced_outcome="00").fidelities[0]
    none_A, none_B, _, _ = run_pqt(inp, params_from_alpha(0.0), forced_outcome="00").fidelities[0]
    footer = {"dev": _max_abs(full_B - 1.0, full_A - 0.5, none_A - 1.0, none_B - 0.5)}
    return _verdict(footer, [("dev", 1e-12, "endpoint deviation")], "max dev {dev:.2e}")


@_criterion("criterion 4: orthogonal-state fidelity 2/3 at the symmetric point")
def criterion_04_universal_not_fidelity(seed, mc_samples):
    f_a_perp = run_pqt((1.0, 0.0), params_from_alpha(SYM), "00").fidelities[0, 3]
    footer = {"deviation": _max_abs(f_a_perp - 2 / 3)}
    return _verdict(footer, [("deviation", 1e-10, "F_a_perp vs 2/3")], "deviation {deviation:.2e}")


@_criterion("criterion 5: every readout has probability 1/4")
def criterion_05_uniform_outcome_statistics(seed, mc_samples):
    alphas = np.repeat(np.linspace(0.0, 1.0, 11), 100)
    psi = haar_rows(len(alphas), 1, np.random.default_rng(seed + 1))
    rows = np.einsum("ni,j->nij", psi, bell_state(4).amplitudes).reshape(len(alphas), 8)
    branch = network_branches(rows, ("A", "a", "B"), params_from_alpha(alphas))
    probs = (np.abs(branch) ** 2).sum(axis=1)

    def scalar(state, params, rng, index):
        return pnbm_network(params).outcome_probabilities(
            tensor(state, bell_state(4, labels=("a", "B")))
        )

    failure = _replay_failure(seed + 1, alphas, ("A",), scalar, probs)
    if failure:
        return False, failure
    footer = {"worst": _max_abs(probs - 0.25)}
    detail = "max deviation {worst:.2e} over 100 inputs x 11 alphas"
    return _verdict(footer, [("worst", 1e-12, "readout probability vs 1/4")], detail)


@_criterion("criterion 6: Bell states survive every outcome")
def criterion_06_non_demolition_of_bell_states(seed, mc_samples):
    operators = kraus_set(params_from_alpha(np.linspace(0.0, 1.0, 11))).operators
    # kets[a, k, :, j] is A_k |Bell_j> at grid point a.
    kets = operators @ BELL_MATRIX
    probs = (np.abs(kets) ** 2).sum(axis=-2)
    kept = probs >= MIN_FORCED_PROBABILITY
    overlaps = np.abs((BELL_MATRIX.conj() * kets).sum(axis=-2))  # |<Bell_j|A_k|Bell_j>|
    overlaps /= np.sqrt(np.where(kept, probs, 1.0))
    footer = {"gap": float(1 - np.minimum(1.0, np.min(overlaps[kept])))}
    return _verdict(footer, [("gap", 1e-10, "overlap gap")], "min overlap modulus 1 - {gap:.2e}")


@_criterion("criterion 7: completeness relation")
def criterion_07_kraus_completeness(seed, mc_samples):
    kraus = kraus_set(params_from_alpha(np.linspace(0.0, 1.0, 101)))
    footer = {"worst": _max_abs(completeness_residual(kraus.operators))}
    return _verdict(footer, [("worst", 1e-12, "completeness residual")], "max residual {worst:.2e}")


@_criterion("criterion 8: matrix formulas vs closed forms, trade-off saturation")
def criterion_08_mean_fidelity_formulas(seed, mc_samples):
    columns, footer, gates = measurement_sweep(params_from_alpha(np.linspace(0.0, 1.0, 101)))
    # The grid ends at alpha = 1.
    footer["edge"] = _max_abs(columns["f_op_closed"][-1] - 0.4, columns["f_est_closed"][-1] - 0.4)
    gates.append(("edge", 1e-12, "alpha = 1 edge"))
    detail = "formula delta {max_formula_delta:.2e}, residual {max_abs_tradeoff_residual:.2e}"
    return _verdict(footer, gates, detail + ", edge {edge:.2e}")


@_criterion("criterion 9: Haar Monte-Carlo reproduces the closed forms")
def criterion_09_monte_carlo_oracle(seed, mc_samples):
    params = params_from_alpha(np.array([0.0, 0.3, SYM, 0.8, 1.0]))
    col, footer, _ = measurement_sweep(params, mc_samples=mc_samples, seed=seed + 10)
    deltas = np.array([col["f_op_mc"], col["f_est_mc"]]) - [col["f_op_closed"], col["f_est_closed"]]
    stderr = np.maximum([col["mc_stderr_op"], col["mc_stderr_est"]], 1e-13)
    footer["worst"] = _max_abs(deltas / stderr)
    gates = [("worst", 3.0, "Monte-Carlo deviation in standard errors")]
    return _verdict(footer, gates, "worst {worst:.2f} standard errors at N={mc_samples}")


@_criterion("criterion 10: network vs Kraus, prep circuit vs direct state")
def criterion_10_circuit_equivalences(seed, mc_samples):
    alphas = np.repeat(np.linspace(0.0, 1.0, 11), 100)
    params = params_from_alpha(alphas)
    states = haar_rows(len(alphas), 2, np.random.default_rng(seed + 2))
    # Both faces as (row, outcome, amplitude) stacks of unnormalised kets.
    net = network_branches(states, ("A", "a"), params).swapaxes(1, 2)
    kraus = np.einsum("nkij,nj->nki", kraus_set(params).operators, states)
    p_net = (np.abs(net) ** 2).sum(axis=2)
    p_kraus = (np.abs(kraus) ** 2).sum(axis=2)
    kept = p_kraus >= MIN_FORCED_PROBABILITY
    lowest = float(np.min(p_net[kept]))
    if not lowest > MIN_FORCED_PROBABILITY:  # else network.run refuses to force it
        return False, f"a kept outcome has network probability {lowest:.2e}"
    post_net = net / np.sqrt(np.where(kept, p_net, 1.0))[..., None]
    post_kraus = kraus / np.sqrt(np.where(kept, p_kraus, 1.0))[..., None]

    def replay(state, params, rng, index):
        """Per kept outcome: both probabilities, then both post states."""
        network, ks = pnbm_network(params), kraus_set(params)
        rows = []
        for k, outcome in enumerate(ALL_OUTCOMES):
            if kept[index, k]:
                _, p, post = network.run(state, forced_outcome=outcome)
                _, q, post_k = apply_pnbm_kraus(state, ks, outcome)
                rows.append([p, q, *post.amplitudes, *post_k.amplitudes])
        return rows

    batch = [
        np.column_stack([p_net[i, k], p_kraus[i, k], post_net[i, k], post_kraus[i, k]])
        for i, k in enumerate(kept[:_REPLAY_ROWS])
    ]
    failure = _replay_failure(seed + 2, alphas, ("A", "a"), replay, batch)
    if failure:
        return False, failure
    # The one check of the prep wiring: run_prep_circuit only runs it.
    preps = params_from_alpha(np.linspace(0.02, 0.98, 49))
    direct = sigma_amplitudes(preps.alpha, preps.beta)
    prep_overlaps = abs((run_prep_circuit(preps).conj() * direct).sum(axis=-1))
    footer = {
        "prob": _max_abs((p_net - p_kraus)[kept]),
        "post": float(1 - np.min(np.abs((post_net.conj() * post_kraus).sum(axis=2))[kept])),
        "prep": float(1 - np.minimum(1.0, np.min(prep_overlaps))),
    }
    gates = [
        ("prob", 1e-10, "network vs Kraus probability"),
        ("post", 1e-10, "post-state overlap gap"),
        ("prep", 1e-10, "prep circuit overlap gap"),
    ]
    return _verdict(footer, gates, "prob dev {prob:.2e}, overlaps 1-{post:.2e} and 1-{prep:.2e}")


@_criterion("criterion 11: CV fidelities vs closed forms, conditioning oracle")
def criterion_11_cv_fidelities_and_oracle(seed, mc_samples):
    # The 3 x 5 grid, flattened; its row 9 is the asymptote point kappa = 1, r = 20.
    kappa, r = np.meshgrid([0.5, 1.0, 2.0], [0.0, 0.5, 1.0, 2.0, 20.0], indexing="ij")
    columns, footer, gates = cv_sweep(CvConfig(kappa=kappa.ravel(), r=r.ravel()))
    asymptote = [columns[key][9] for key in ("f_a_sim", "f_b_sim", "f_b_optimal")]
    footer["asymptote"] = _max_abs(np.subtract(asymptote, 2 / 3))
    # The conditioning oracle runs on the numerically well-posed part of the
    # grid; at r=20 the covariance entries reach cosh(40) ~ 1e17 and plain
    # double-precision conditioning carries no information (the closed-form
    # comparison above still covers that point exactly).
    footer["oracle"] = _max_abs([
        covariance_conditioning_check(CvConfig(kappa=kappa, r=r))
        for kappa in (0.5, 1.0, 2.0)
        for r in (0.0, 0.5, 1.0, 2.0)
    ])
    gates += [("asymptote", 1e-9, "asymptote deviation"), ("oracle", 1e-9, "conditioning oracle")]
    detail = "grid dev {max_deviation:.2e}, asymptote dev {asymptote:.2e}, oracle {oracle:.2e}"
    return _verdict(footer, gates, detail)


@_criterion("criterion 12: classical corner (2/3, 2/3) and quantum dominance")
def criterion_12_bound_curves(seed, mc_samples):
    _, footer, gates = bound_curves(201)
    return _verdict(footer, gates, "corner gap {corner:.2e}, min margin {margin:.3e}")


CRITERIA: tuple[Criterion, ...] = tuple(_registry)
