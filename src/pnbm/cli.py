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
import ctypes
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .acceptance import CRITERIA, failed_gates, qubit_replay_failure, run_criterion
from .acceptance import bound_curves, cv_sweep, measurement_sweep, qubit_sweep
from .ancilla import AncillaParams, params_from_alpha
from .analysis import MAX_MC_SAMPLES, MIN_MC_SAMPLES
from .cv import CvConfig
from .measurement import ALL_OUTCOMES
from .teleport import (
    closed_form_fidelities,
    haar_inputs_and_uniforms,
    normalize_amplitudes,
    run_pqt,
    run_pqt_batch,
)

DEFAULT_SEED = 20260810
SCHEMA_PREFIX = "pnbm"
SCHEMA_VERSION = "v1"


# Largest grid (--count or --values) and bound curve (--points). Peak RSS at 10^5 rows:
# sweep-measurement --mc-samples 1000 443 MiB (the largest), sweep-qubit 189, sweep-cv 106.
_MAX_GRID_POINTS = 10**5


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _bounded_int(what: str, minimum: int, maximum: int | None = None):
    """argparse type for an integer in [minimum, maximum]; usage errors exit 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"{what} must be at most {maximum}, got {value}")
        return value

    return parse


_seed_arg = _bounded_int("seed", 0)
_mc_samples_arg = _bounded_int("sample count", MIN_MC_SAMPLES, MAX_MC_SAMPLES)
_grid_size_arg = _bounded_int("grid size", 2, _MAX_GRID_POINTS)
_points_arg = _bounded_int("point count", 2, _MAX_GRID_POINTS)


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


def _gate(values, gates) -> None:
    """One ValueError (exit 1) naming every gate in ``failed_gates(values, gates)``."""
    failed = failed_gates(values, gates)
    if failed:
        raise ValueError("; ".join(failed))


@contextlib.contextmanager
def _output(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as stream:
            yield stream


def _emit_table(path, fmt, schema, columns, footer):
    """Write ``{header: column}`` as CSV (with schema/footer comment lines) or JSON.

    The CSV body is one ``%`` over every cell: ``%.12g`` (as ``_fmt``) for a
    float column, ``%s`` for any other, such as an outcome string. No cell
    needs quoting: each is a number or a 2-bit outcome string.
    """
    header = list(columns)
    arrays = [np.asarray(column) for column in columns.values()]
    rows = list(zip(*(array.tolist() for array in arrays)))
    with _output(path) as stream:
        if fmt == "csv":
            line = ",".join("%.12g" if a.dtype.kind == "f" else "%s" for a in arrays) + "\n"
            stream.write(f"# schema: {SCHEMA_PREFIX}-{schema}-{SCHEMA_VERSION}\n")
            stream.write(",".join(header) + "\n")
            stream.write((line * len(rows)) % tuple(itertools.chain.from_iterable(rows)))
            for key, value in footer.items():
                stream.write(f"# {key} = {_fmt(value)}\n")
        else:
            payload = {
                "schema": f"{SCHEMA_PREFIX}-{schema}-{SCHEMA_VERSION}",
                "rows": [dict(zip(header, row)) for row in rows],
                "footer": footer,
            }
            stream.write(json.dumps(payload, indent=2) + "\n")


def _emit_gated(args, schema, columns, footer, gates) -> int:
    """Emit a builder's table, then gate its footer (see ``_gate``)."""
    _emit_table(args.out, args.format, schema, columns, footer)
    _gate(footer, gates)
    return 0


def _parse_grid(args, name: str, default_linear=None, default_values=None) -> np.ndarray:
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
        if len(grid) > _MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(
                f"--values must hold at most {_MAX_GRID_POINTS} numbers, got {len(grid)}"
            )
        return np.array(grid)
    if any(v is not None for v in linear):
        if default_linear is None:
            missing = [f for f, v in zip(flags, linear) if v is None]
            if missing:
                raise argparse.ArgumentTypeError(
                    f"a linear {name} grid needs {', '.join(missing)}"
                )
            default_linear = linear
        start, stop, count = (d if v is None else v for v, d in zip(linear, default_linear))
        # np.linspace warns and fills NaN when an endpoint or the span is not finite.
        if not all(map(math.isfinite, (start, stop, stop - start))):
            raise argparse.ArgumentTypeError(
                f"--start and --stop must be finite with a finite span, got {start!r} and {stop!r}"
            )
        # With a finite span only the last point's count * step can overflow,
        # and np.linspace overwrites that point with stop.
        with np.errstate(over="ignore"):
            return np.linspace(start, stop, count)
    if default_values is not None:
        return np.array(default_values)
    return np.linspace(*default_linear)


def _add_grid_flags(parser, what):
    parser.add_argument("--start", type=float, help=f"first {what} of a linear grid")
    parser.add_argument("--stop", type=float, help=f"last {what} of a linear grid")
    parser.add_argument("--count", type=_grid_size_arg, help="number of linear grid points")
    parser.add_argument("--values", help=f"explicit comma-separated {what} list")


def _add_io_flags(parser, seeded=True):
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if seeded:
        parser.add_argument("--seed", type=_seed_arg, help="RNG seed (default $PNBM_SEED or fixed)")
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


def _alpha_params(args) -> AncillaParams:
    """The sweep's alpha grid as one stacked AncillaParams; a bad entry is a usage error."""
    try:
        return params_from_alpha(_parse_grid(args, "alpha", default_linear=(0.0, 1.0, 101)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# -- teleport ------------------------------------------------------------------


# The report's qubit orders, of the final state's amplitudes and of the
# marginals, and its keys for the four columns of a fidelity row.
_FINAL_STATE_LABELS = ("A", "a", "B")
_MARGINAL_LABELS = ("A", "B", "a")
_FIDELITY_KEYS = ("f_A", "f_B", "f_a", "f_a_perp")


def _complex_pairs(values) -> list:
    """``[real, imag]`` in place of each entry of a complex array, as nested lists."""
    return np.stack([values.real, values.imag], axis=-1).tolist()


def cmd_teleport(args) -> int:
    params = params_from_alpha(args.alpha)
    try:
        a, b, norm = normalize_amplitudes(args.state_a, args.state_b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    rng = np.random.default_rng(_resolve_seed(args.seed))
    run = run_pqt((a, b), params, forced_outcome=args.outcome, rng=rng)
    columns, footer, gates = qubit_sweep(params, run.fidelities, args.tol)
    row = {key: np.ravel(column)[0].item() for key, column in columns.items()}
    outcome, probability = ALL_OUTCOMES[run.outcomes[0]], run.probabilities[0].item()
    if args.format == "csv":
        table = {
            "alpha": row["alpha"], "beta": row["beta"],
            "outcome": outcome, "probability": probability,
            **{key: row[key] for key in row if key.endswith(("_sim", "_closed"))},
            "max_closed_sim_delta": footer["max_closed_sim_delta"],
            "cloning_residual": row["cloning_residual"],
        }
        _emit_table(args.out, "csv", "teleport", {k: [v] for k, v in table.items()}, {})
    else:
        report = {
            "alpha": row["alpha"],
            "beta": row["beta"],
            "input": {
                "a": [a.real, a.imag],
                "b": [b.real, b.imag],
                "was_normalized": abs(norm - 1.0) > 1e-12,
            },
            "fidelities_closed": dict(zip(_FIDELITY_KEYS, closed_form_fidelities(params).tolist())),
            "max_closed_sim_delta": footer["max_closed_sim_delta"],
            "cloning_residual": row["cloning_residual"],
            "outcome": outcome,
            "probability": probability,
            "fidelities": dict(zip(_FIDELITY_KEYS, run.fidelities[0].tolist())),
            "final_state": {
                "labels": list(_FINAL_STATE_LABELS),
                "amplitudes": _complex_pairs(run.final_states[0]),
            },
            "marginals": {
                label: {"labels": [label], "matrix": _complex_pairs(rho)}
                for label, rho in zip(_MARGINAL_LABELS, run.marginals[0])
            },
        }
        with _output(args.out) as stream:
            stream.write(json.dumps(report, indent=2) + "\n")
    _gate(footer, gates)
    return 0


# -- sweeps --------------------------------------------------------------------


def cmd_sweep_qubit(args) -> int:
    seed = _resolve_seed(args.seed)
    params = _alpha_params(args)
    inputs, uniforms = haar_inputs_and_uniforms(params.alpha.size, np.random.default_rng(seed))
    batch = run_pqt_batch(inputs, params, uniforms=uniforms)
    failure = qubit_replay_failure(seed, params.alpha, batch)
    if failure:
        raise ValueError(failure)
    return _emit_gated(args, "qubit-sweep", *qubit_sweep(params, batch.fidelities, args.tol))


def cmd_sweep_measurement(args) -> int:
    params = _alpha_params(args)
    table = measurement_sweep(params, args.tol, args.mc_samples, _resolve_seed(args.seed))
    return _emit_gated(args, "measurement-sweep", *table)


_CV_DEFAULT_GRIDS = {"r": (0.0, 0.5, 1.0, 2.0, 20.0), "kappa": (0.5, 1.0, 2.0)}


def cmd_sweep_cv(args) -> int:
    try:
        # Both fixed knobs are checked, the swept one's too.
        knobs = {"kappa": args.kappa, "r": args.r}
        CvConfig(**knobs)
        knobs[args.variable] = _parse_grid(
            args, args.variable, default_values=_CV_DEFAULT_GRIDS[args.variable]
        )
        config = CvConfig(**knobs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return _emit_gated(args, "cv-sweep", *cv_sweep(config, args.tol))


# -- bound curves --------------------------------------------------------------


def cmd_bounds(args) -> int:
    tables, footer, gates = bound_curves(args.points, args.tol)
    prefix = args.out or "bounds"
    written = [f"{prefix}_{name}.{args.format}" for name in tables]
    for path, (name, columns) in zip(written, tables.items()):
        _emit_table(path, args.format, f"bounds-{name}", columns, {"points": args.points})
    print(f"wrote {written[0]} and {written[1]}")
    corner, margin = _fmt(footer["corner"]), _fmt(footer["margin"])
    print(f"pct corner gap = {corner}; min quantum-classical margin = {margin}")
    _gate(footer, gates)
    return 0


# -- selftest ------------------------------------------------------------------


def cmd_selftest(args) -> int:
    """Run the acceptance registry (``pnbm.acceptance``), one line per criterion."""
    seed = _resolve_seed(args.seed)
    ok = True
    for criterion in CRITERIA:
        passed, line, seconds = run_criterion(criterion, seed, args.mc_samples)
        print(f"{line}  [{seconds:.4f} s]" if args.timings else line)
        ok &= passed
    print("selftest:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


# -- entry point ---------------------------------------------------------------


@functools.cache  # set-up, built once per process: main parses with the same parser
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
    p.add_argument("--outcome", choices=ALL_OUTCOMES, help="force a readout")
    _add_io_flags(p)
    p.set_defaults(func=cmd_teleport, format="json")

    p = sub.add_parser("sweep-qubit", help="teleportation fidelities over an alpha grid")
    _add_grid_flags(p, "alpha")
    _add_io_flags(p)
    p.set_defaults(func=cmd_sweep_qubit)

    p = sub.add_parser("sweep-measurement", help="mean-fidelity trade-off over an alpha grid")
    _add_grid_flags(p, "alpha")
    _add_io_flags(p)
    p.add_argument("--mc-samples", type=_mc_samples_arg, default=2000, help="Haar samples per row")
    p.set_defaults(func=cmd_sweep_measurement)

    p = sub.add_parser("sweep-cv", help="continuous-variable fidelities over kappa or r")
    p.add_argument("--variable", choices=("kappa", "r"), default="r")
    _add_grid_flags(p, "grid value")
    p.add_argument("--kappa", type=float, default=1.0, help="fixed coupling when sweeping r")
    p.add_argument("--r", type=float, default=1.0, help="fixed squeezing when sweeping kappa")
    _add_io_flags(p, seeded=False)
    p.set_defaults(func=cmd_sweep_cv)

    p = sub.add_parser("bounds", help="emit the classical and quantum fidelity frontiers")
    p.add_argument("--points", type=_points_arg, default=201)
    p.add_argument("--out", help="output path prefix (default: bounds)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tol", type=_tol_arg, default=1e-10, help="corner-check tolerance")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("selftest", help="re-run the acceptance criteria")
    p.add_argument("--seed", type=_seed_arg)
    p.add_argument("--mc-samples", type=_mc_samples_arg, default=100000)
    p.add_argument("--timings", action="store_true", help="append each criterion's seconds")
    p.set_defaults(func=cmd_selftest)

    return parser


# numpy's OpenBLAS thread-count functions, by the names its wheels have exported:
# scipy-openblas with 64-bit and with 32-bit integers, then a plain OpenBLAS build.
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache  # looked up on the first main call, never at import (setup_s is gated)
def _blas_thread_controls():
    """``(get, set)`` of numpy's OpenBLAS thread count, or None where none is found.

    ``dlsym`` on numpy's core extension also searches the libraries it links,
    so the OpenBLAS numpy was built against is found without a path.
    """
    try:
        library = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_FUNCTIONS:
        try:
            get, set_ = getattr(library, get_name), getattr(library, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run BLAS on one thread inside the block, then restore the caller's count.

    The Monte Carlo's two threads are this program's parallelism. After a
    multi-threaded BLAS call, OpenBLAS's helper thread spins for about 130 ms,
    and on two cores it takes the core the Monte Carlo's worker needs. pnbm's
    largest product, ``(n, 32) @ (32, 32)`` complex, takes under a millisecond
    at 10^3 rows on either count; only near the 10^5-row grid cap does a
    second BLAS thread save time. Every BLAS call of a command, the worker's
    too, has returned before the block ends.
    """
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv=None) -> int:
    parser = build_parser()
    with _one_blas_thread():
        try:
            args = parser.parse_args(argv)
        except argparse.ArgumentTypeError as exc:
            parser.exit(2, f"error: {exc}\n")
        try:
            return args.func(args)
        except argparse.ArgumentTypeError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, KeyError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
