#!/usr/bin/env python3
"""End-to-end benchmark of the pnbm CLI, with a traced run per layer.

    python3 bench/run.py --workload qubit-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --workload selftest --smoke --seconds 1 --out bench/results/x

One process, one client, closed loop: the harness calls ``pnbm.cli.main(argv)``
in-process and waits for each invocation before starting the next. The
program sees only the generated argv. Each invocation's output is verified
(see workloads.py); a failed invocation counts in ``failed`` and is not
timed. One verified warm-up invocation runs before timing.

``--trace 0`` reports the end-to-end metrics, timed with tracing off.
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer spans of the median traced invocation (see spans.py).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The package is imported from
``src/`` next to this directory; without it the harness exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

import spans
from compare import spread
from workloads import WORKLOADS, VerifyError

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 7
SETUP_SNIPPET = """\
import time
start = time.perf_counter()
import pnbm.cli
pnbm.cli.build_parser()
elapsed = time.perf_counter() - start
print(pnbm.cli.__file__)
print(repr(elapsed))
"""

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap every BLAS/OpenMP thread variable at the usable core count."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def short_argv(argv: list[str]) -> list[str]:
    return [a if len(a) <= 80 else f"<{a.count(',') + 1} values>" for a in argv]


def measure_setup(repeats: int) -> list[float]:
    """Seconds from a fresh interpreter to a built parser, once per child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        module_file, elapsed = done.stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC):
            raise SystemExit(f"set-up child imported pnbm from {module_file}, not {SRC}")
        times.append(float(elapsed))
    return times


class Session:
    """Invokes one workload's argv in-process and verifies every output."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli  # looked up per call, so a traced cli.main is the one run
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None
        self.rows = 0

    def call(self):
        """Run one invocation; return its seconds if its output verified."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(self.workload.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "traceback:\n" + traceback.format_exc()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit {code}: {err.getvalue().strip()[-2000:]}"
        else:
            try:
                rows = self.workload.verify(out.getvalue())
            except VerifyError as exc:
                problem = f"output check failed: {exc}"
            else:
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                if self.digest is None:
                    self.digest, self.rows = digest, rows
                elif digest != self.digest:
                    problem = f"output digest {digest} differs from {self.digest} for the same argv"
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)
            print(f"invocation {self.attempted} failed: {problem}", file=sys.stderr)
            return None
        return elapsed


def repeat_for(seconds: float, step) -> None:
    """Call ``step`` at least once, and again while the next call should end
    within ``seconds`` of the start, judged by the median call so far."""
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def run_untraced(session: Session, seconds: float) -> tuple[dict, dict]:
    session.call()  # warm-up: lazy numpy set-up stays out of wall_s
    # After the warm-up, so set-up is timed on a machine as busy as the loop's.
    setup = measure_setup(SETUP_REPEATS)
    times = []

    def step():
        elapsed = session.call()
        if elapsed is not None:
            times.append(elapsed)

    repeat_for(seconds, step)
    if not times:
        raise SystemExit("no invocation verified; see the errors above")
    wall = statistics.median(times)
    metrics = {
        "wall_s": wall,
        "rows_per_s": session.rows / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"wall_s": times, "setup_s": setup}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, samples


def run_traced(session: Session, seconds: float) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    session.call()  # warm-up
    untraced, traced = [], []

    def step():
        elapsed = session.call()
        if elapsed is not None:
            untraced.append(elapsed)
        tracer.reset()
        with tracer.installed():
            elapsed = session.call()
        if elapsed is not None:
            traced.append((elapsed, tracer.snapshot()))

    repeat_for(seconds, step)
    if not untraced or not traced:
        raise SystemExit("no invocation verified; see the errors above")

    counts = {json.dumps({n: s["calls"] for n, s in snap["spans"].items()}, sort_keys=True)
              for _, snap in traced}
    if len(counts) != 1:
        session.problems.append("span call counts differ between traced invocations")
    traced.sort(key=lambda item: item[0])
    wall, snapshot = traced[(len(traced) - 1) // 2]
    missing = spans.missing_spans(snapshot, session.workload.name)
    if missing:
        raise SystemExit(
            f"spans recorded no calls on {session.workload.name}: {', '.join(missing)}")
    unattributed = wall - sum(spans.layer_self_times(snapshot["spans"]).values())
    if not 0.0 <= unattributed <= 0.01 * wall + 1e-4:
        session.problems.append(
            f"layer self times leave {unattributed:.6f} s of {wall:.6f} s unattributed")
    metrics = spans.per_layer_metrics(snapshot, wall, statistics.median(untraced))
    samples = {"untraced_wall_s": untraced, "traced_wall_s": [t for t, _ in traced],
               "unattributed_s": unattributed, "spans": snapshot}
    return metrics, samples


def manifest(args, workload) -> dict:
    import numpy
    import pnbm

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "argv": workload.argv,
        "argv_sha256": hashlib.sha256("\0".join(workload.argv).encode()).hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pnbm": pnbm.__version__,
        "nproc": nproc(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_describe": git_describe(),
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    sys.path.insert(0, str(SRC))
    import pnbm.cli

    if not Path(pnbm.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported pnbm from {pnbm.cli.__file__}, not {SRC}")
    info = manifest(args, workload)
    started = datetime.now(timezone.utc).isoformat()
    session = Session(workload, pnbm.cli)
    runner = run_traced if args.trace else run_untraced
    metrics, samples = runner(session, args.seconds)

    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    shown = dict(info, argv=short_argv(workload.argv))
    print("# manifest " + json.dumps(shown, sort_keys=True))
    print(f"# output sha256 {session.digest} ({session.rows} rows)")
    for problem in session.problems:
        print(f"# problem: {problem}")
    for name, (value, unit) in metrics.items():
        detail = ""
        if name in samples and len(samples[name]) > 1:
            q1, _, q3 = spread(samples[name])
            detail = f"  (median of n={len(samples[name])}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"{name} = {value:.6g} {unit}{detail}")
    print(f"error_rate = {session.failed / session.attempted:.6g} "
          f"({session.failed} failed of {session.attempted} attempted)")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        stamp = started.replace(":", "").replace("+0000", "Z")
        record = {"manifest": info, "started_at": started, "digest": session.digest,
                  "problems": session.problems, "samples": samples, "result": result}
        path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"# record written to {path}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run each workload in its own child process, so peak RSS is not shared."""
    summaries = {}
    total_attempted = total_failed = 0
    correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", args.out]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summaries[name] = result
        total_attempted += result["attempted"]
        total_failed += result["failed"]
        correct &= result["correct"]
    if not args.trace:
        print(f"{'workload':<18} {'wall_s':>10} {'rows_per_s':>12} {'setup_s':>9} "
              f"{'peak_rss_mb':>12} {'error_rate':>11}")
        for name, result in summaries.items():
            m = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{name:<18} {m['wall_s']:>10.4f} {m['rows_per_s']:>12.1f} "
                  f"{m['setup_s']:>9.4f} {m['peak_rss_mb']:>12.1f} "
                  f"{result['failed'] / result['attempted']:>11.3g}")
        print("units: wall_s s, rows_per_s 1/s (criteria/s for selftest), "
              "setup_s s, peak_rss_mb MB, error_rate failed/attempted")
    else:
        for name, result in summaries.items():
            for metric, entry in result["metrics"].items():
                print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    combined = {f"{name}.{metric}": entry for name, result in summaries.items()
                for metric, entry in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, to check the harness itself quickly")
    parser.add_argument("--out", help="directory for a full JSON record of the run")
    args = parser.parse_args(argv)
    if not (SRC / "pnbm" / "__init__.py").is_file():
        print(f"error: no pnbm sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()  # before numpy is first imported
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
