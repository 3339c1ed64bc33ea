"""Command-line front end: single-run traces, parameter sweeps, bound curves.

Every table is deterministic given the seed (``--seed``, falling back to
the ``PNBM_SEED`` environment variable), numeric fields carry 12
significant digits, and each sweep doubles as a consistency gate: the exit
code is 0 when all residual columns stay within tolerance, 1 on a residual
or invariant violation, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .acceptance import CRITERIA, run_criterion
from .ancilla import params_from_alpha
from .analysis import (
    MIN_MC_SAMPLES,
    mean_fidelities_closed,
    mean_fidelities_from_kraus,
    monte_carlo_mean_fidelities,
    tradeoff_residual,
)
from .cv import CvConfig, cv_fidelities
from .measurement import ALL_OUTCOMES, kraus_set
from .qsim import RandomSource, haar_random_pure
from .teleport import (
    InputQubit,
    bound_curve_checks,
    closed_form_fidelities,
    cloning_residual,
    normalize_amplitudes,
    pct_bound_curve,
    pqt_bound_curve,
    run_pqt,
)

DEFAULT_SEED = 20260810
SCHEMA_PREFIX = "pnbm"
SCHEMA_VERSION = "v1"


class ResidualViolation(RuntimeError):
    """A residual column exceeded its tolerance; maps to exit code 1."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _int_at_least(minimum: int, what: str):
    """argparse type for an integer with a lower bound; usage errors exit 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be at least {minimum}, got {value}")
        return value

    return parse


_seed_arg = _int_at_least(0, "seed")


def _tol_arg(text: str) -> float:
    """argparse type for a residual tolerance: a finite, nonnegative float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}")
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and nonnegative, got {text!r}")
    return value


def _resolve_seed(seed_arg) -> int:
    if seed_arg is not None:
        return seed_arg
    env = os.environ.get("PNBM_SEED")
    if env is not None:
        return _seed_arg(env)
    return DEFAULT_SEED


def _exceeds(value, tol) -> bool:
    """The one residual gate: True when value > tol or either is NaN."""
    return not value <= tol


def _worst(*values) -> float:
    """Largest value, NaN if any is NaN (the builtin max can drop a NaN)."""
    return math.nan if any(map(math.isnan, values)) else max(values)


@contextlib.contextmanager
def _output(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as stream:
            yield stream


def _emit_table(path, fmt, schema, header, rows, footer):
    """Write rows as CSV (with schema/footer comment lines) or JSON."""
    with _output(path) as stream:
        if fmt == "csv":
            stream.write(f"# schema: {SCHEMA_PREFIX}-{schema}-{SCHEMA_VERSION}\n")
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
            for key, value in footer.items():
                stream.write(f"# {key} = {_fmt(value)}\n")
        else:
            payload = {
                "schema": f"{SCHEMA_PREFIX}-{schema}-{SCHEMA_VERSION}",
                "rows": [dict(zip(header, row)) for row in rows],
                "footer": footer,
            }
            json.dump(payload, stream, indent=2)
            stream.write("\n")


def _parse_grid(args, name: str, default_linear=None, default_values=None):
    linear = (args.start, args.stop, args.count)
    flags = ("--start", "--stop", "--count")
    if args.values is not None:
        given = [f for f, v in zip(flags, linear) if v is not None]
        if given:
            raise argparse.ArgumentTypeError(
                f"--values cannot be combined with {', '.join(given)}"
            )
        try:
            grid = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"could not parse --values {args.values!r}")
        if len(grid) < 1:
            raise argparse.ArgumentTypeError("--values must contain at least one number")
        return grid
    if any(v is not None for v in linear):
        if default_linear is None:
            missing = [f for f, v in zip(flags, linear) if v is None]
            if missing:
                raise argparse.ArgumentTypeError(
                    f"a linear {name} grid needs {', '.join(missing)}"
                )
            default_linear = linear
        start, stop, count = (d if v is None else v for v, d in zip(linear, default_linear))
        return list(np.linspace(start, stop, count))
    if default_values is not None:
        return list(default_values)
    return list(np.linspace(*default_linear))


def _add_grid_flags(parser, what):
    parser.add_argument("--start", type=float, help=f"first {what} of a linear grid")
    parser.add_argument("--stop", type=float, help=f"last {what} of a linear grid")
    parser.add_argument("--count", type=_int_at_least(2, "grid size"), help="number of linear grid points")
    parser.add_argument("--values", help=f"explicit comma-separated {what} list")


def _add_io_flags(parser):
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=_seed_arg, help="RNG seed (default: $PNBM_SEED or fixed)")
    parser.add_argument("--tol", type=_tol_arg, default=1e-10, help="residual gate tolerance")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _alpha_arg(text) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"alpha {text} outside [0, 1]")
    return value


def _alpha_grid(args) -> list:
    return [_alpha_arg(a) for a in _parse_grid(args, "alpha", default_linear=(0.0, 1.0, 101))]


# -- teleport ------------------------------------------------------------------


def cmd_teleport(args) -> int:
    params = params_from_alpha(args.alpha)
    try:
        a, b, norm = normalize_amplitudes(args.state_a, args.state_b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    was_normalized = abs(norm - 1.0) > 1e-12
    inp = InputQubit(a, b)
    rng = RandomSource(_resolve_seed(args.seed))
    record = run_pqt(inp, params, forced_outcome=args.outcome, rng=rng)
    closed = closed_form_fidelities(params)
    sim = record.fidelities
    delta = _worst(
        abs(sim.f_A - closed.f_A),
        abs(sim.f_B - closed.f_B),
        abs(sim.f_a - closed.f_a),
        abs(sim.f_a_perp - closed.f_a_perp),
    )
    report = {
        "alpha": params.alpha,
        "beta": params.beta,
        "input": {
            "a": [inp.a.real, inp.a.imag],
            "b": [inp.b.real, inp.b.imag],
            "was_normalized": was_normalized,
        },
        "fidelities_closed": {
            "f_A": closed.f_A,
            "f_B": closed.f_B,
            "f_a": closed.f_a,
            "f_a_perp": closed.f_a_perp,
        },
        "max_closed_sim_delta": delta,
        "cloning_residual": cloning_residual(sim.f_A, sim.f_B),
        **record.to_json(),
    }
    if args.format == "csv":
        header = [
            "alpha", "beta", "outcome", "probability",
            "f_A_sim", "f_B_sim", "f_a_sim", "f_a_perp_sim",
            "f_A_closed", "f_B_closed", "f_a_closed",
            "max_closed_sim_delta", "cloning_residual",
        ]
        row = [
            params.alpha, params.beta, record.outcome.bits, record.probability,
            sim.f_A, sim.f_B, sim.f_a, sim.f_a_perp,
            closed.f_A, closed.f_B, closed.f_a,
            delta, report["cloning_residual"],
        ]
        _emit_table(args.out, "csv", "teleport", header, [row], {})
    else:
        with _output(args.out) as stream:
            json.dump(report, stream, indent=2)
            stream.write("\n")
    if _exceeds(delta, args.tol):
        raise ResidualViolation(f"closed-form vs simulated fidelity delta {delta:.3e}")
    return 0


# -- sweeps --------------------------------------------------------------------


def cmd_sweep_qubit(args) -> int:
    grid = _alpha_grid(args)
    rng = RandomSource(_resolve_seed(args.seed))
    header = [
        "alpha", "beta", "f_A_sim", "f_B_sim", "f_a_sim", "f_a_perp_sim",
        "f_A_closed", "f_B_closed", "f_a_closed",
        "cloning_residual", "closed_sim_delta",
    ]
    rows = []
    max_residual = 0.0
    max_delta = 0.0
    for alpha in grid:
        params = params_from_alpha(float(alpha))
        state = haar_random_pure(1, rng)
        inp = InputQubit(state.amplitudes[0], state.amplitudes[1])
        record = run_pqt(inp, params, rng=rng)
        sim = record.fidelities
        closed = closed_form_fidelities(params)
        residual = cloning_residual(sim.f_A, sim.f_B)
        delta = _worst(
            abs(sim.f_A - closed.f_A),
            abs(sim.f_B - closed.f_B),
            abs(sim.f_a - closed.f_a),
        )
        max_residual = _worst(max_residual, abs(residual))
        max_delta = _worst(max_delta, delta)
        rows.append([
            params.alpha, params.beta, sim.f_A, sim.f_B, sim.f_a, sim.f_a_perp,
            closed.f_A, closed.f_B, closed.f_a, residual, delta,
        ])
    footer = {"max_abs_cloning_residual": max_residual, "max_closed_sim_delta": max_delta}
    _emit_table(args.out, args.format, "qubit-sweep", header, rows, footer)
    if _exceeds(max_residual, args.tol) or _exceeds(max_delta, args.tol):
        raise ResidualViolation(
            f"cloning residual {max_residual:.3e} / delta {max_delta:.3e} beyond {args.tol}"
        )
    return 0


def cmd_sweep_measurement(args) -> int:
    grid = _alpha_grid(args)
    seed = _resolve_seed(args.seed)
    header = [
        "alpha", "beta", "f_op_closed", "f_est_closed", "f_op_kraus", "f_est_kraus",
        "f_op_mc", "f_est_mc", "mc_stderr_op", "mc_stderr_est", "tradeoff_residual",
    ]
    rows = []
    max_formula_delta = 0.0
    max_residual = 0.0
    for index, alpha in enumerate(grid):
        params = params_from_alpha(float(alpha))
        kraus = kraus_set(params)
        closed = mean_fidelities_closed(params)
        formula = mean_fidelities_from_kraus(kraus)
        # Independent per-row substream keeps rows reproducible regardless
        # of grid slicing.
        mc = monte_carlo_mean_fidelities(
            kraus, args.mc_samples, RandomSource(seed + index)
        )
        residual = tradeoff_residual(closed)
        max_residual = _worst(max_residual, abs(residual))
        max_formula_delta = _worst(
            max_formula_delta,
            abs(closed.f_op - formula.f_op),
            abs(closed.f_est - formula.f_est),
        )
        rows.append([
            params.alpha, params.beta, closed.f_op, closed.f_est,
            formula.f_op, formula.f_est, mc.f_op, mc.f_est,
            mc.stderr_op, mc.stderr_est, residual,
        ])
    footer = {
        "max_abs_tradeoff_residual": max_residual,
        "max_formula_delta": max_formula_delta,
        "mc_samples": args.mc_samples,
    }
    _emit_table(args.out, args.format, "measurement-sweep", header, rows, footer)
    if _exceeds(max_residual, args.tol) or _exceeds(max_formula_delta, 1e-12):
        raise ResidualViolation(
            f"trade-off residual {max_residual:.3e} / formula delta {max_formula_delta:.3e}"
        )
    return 0


_CV_DEFAULT_GRIDS = {"r": (0.0, 0.5, 1.0, 2.0, 20.0), "kappa": (0.5, 1.0, 2.0)}


def cmd_sweep_cv(args) -> int:
    try:
        # Both fixed knobs are checked, the swept one's too.
        fixed = CvConfig(kappa=args.kappa, r=args.r)
        grid = _parse_grid(args, args.variable, default_values=_CV_DEFAULT_GRIDS[args.variable])
        configs = [dataclasses.replace(fixed, **{args.variable: float(v)}) for v in grid]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    header = [
        "kappa", "gamma", "r", "f_a_sim", "f_b_sim",
        "f_a_closed", "f_b_closed", "f_b_optimal", "deviation",
    ]
    rows = []
    max_dev = 0.0
    for config in configs:
        fids = cv_fidelities(config)
        deviation = _worst(
            abs(fids.f_a_sim - fids.f_a_closed), abs(fids.f_b_sim - fids.f_b_closed)
        )
        max_dev = _worst(max_dev, deviation)
        rows.append([
            config.kappa, config.gamma, config.r, fids.f_a_sim, fids.f_b_sim,
            fids.f_a_closed, fids.f_b_closed, fids.f_b_optimal, deviation,
        ])
    footer = {"max_deviation": max_dev}
    _emit_table(args.out, args.format, "cv-sweep", header, rows, footer)
    if _exceeds(max_dev, args.tol):
        raise ResidualViolation(f"simulated vs closed-form deviation {max_dev:.3e}")
    return 0


# -- bound curves --------------------------------------------------------------


def cmd_bounds(args) -> int:
    pct = pct_bound_curve(args.points)
    pqt = pqt_bound_curve(args.points)
    suffix = "csv" if args.format == "csv" else "json"
    prefix = args.out or "bounds"
    written = []
    for curve, name in ((pct, "pct"), (pqt, "pqt")):
        path = f"{prefix}_{name}.{suffix}"
        rows = [[float(a), float(b)] for a, b in curve.points]
        _emit_table(path, args.format, f"bounds-{name}", ["f_A", "f_B"], rows,
                    {"points": args.points})
        written.append(path)
    corner, margin = bound_curve_checks(pct)
    print(f"wrote {written[0]} and {written[1]}")
    print(f"pct corner gap = {_fmt(corner)}; min quantum-classical margin = {_fmt(margin)}")
    if _exceeds(corner, args.tol) or not margin > 0:
        raise ResidualViolation("bound-curve checks failed")
    return 0


# -- selftest ------------------------------------------------------------------


def cmd_selftest(args) -> int:
    """Run the acceptance registry (``pnbm.acceptance``), one line per criterion."""
    seed = _resolve_seed(args.seed)
    ok = True
    for criterion in CRITERIA:
        passed, line, _ = run_criterion(criterion, seed, args.mc_samples)
        print(line)
        ok &= passed
    print("selftest:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnbm",
        description="Partial Bell measurement and partial teleportation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teleport", help="run the qubit protocol once and report fidelities")
    p.add_argument("--alpha", type=_alpha_arg, required=True, help="discrimination knob in [0, 1]")
    p.add_argument("--state-a", type=_parse_complex, default=1 + 0j, help="amplitude of |0>")
    p.add_argument("--state-b", type=_parse_complex, default=0j, help="amplitude of |1>")
    p.add_argument("--outcome", choices=[o.bits for o in ALL_OUTCOMES], help="force a readout")
    _add_io_flags(p)
    p.set_defaults(func=cmd_teleport, format="json")

    p = sub.add_parser("sweep-qubit", help="teleportation fidelities over an alpha grid")
    _add_grid_flags(p, "alpha")
    _add_io_flags(p)
    p.set_defaults(func=cmd_sweep_qubit)

    p = sub.add_parser("sweep-measurement", help="mean-fidelity trade-off over an alpha grid")
    _add_grid_flags(p, "alpha")
    _add_io_flags(p)
    p.add_argument("--mc-samples", type=_int_at_least(MIN_MC_SAMPLES, "sample count"), default=2000, help="Haar samples per row")
    p.set_defaults(func=cmd_sweep_measurement)

    p = sub.add_parser("sweep-cv", help="continuous-variable fidelities over kappa or r")
    p.add_argument("--variable", choices=("kappa", "r"), default="r")
    _add_grid_flags(p, "grid value")
    p.add_argument("--kappa", type=float, default=1.0, help="fixed coupling when sweeping r")
    p.add_argument("--r", type=float, default=1.0, help="fixed squeezing when sweeping kappa")
    _add_io_flags(p)
    p.set_defaults(func=cmd_sweep_cv)

    p = sub.add_parser("bounds", help="emit the classical and quantum fidelity frontiers")
    p.add_argument("--points", type=_int_at_least(2, "point count"), default=201)
    p.add_argument("--out", help="output path prefix (default: bounds)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tol", type=_tol_arg, default=1e-10, help="corner-check tolerance")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("selftest", help="re-run the acceptance criteria")
    p.add_argument("--seed", type=_seed_arg)
    p.add_argument("--mc-samples", type=_int_at_least(MIN_MC_SAMPLES, "sample count"), default=100000)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentTypeError as exc:
        parser.exit(2, f"error: {exc}\n")
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResidualViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
