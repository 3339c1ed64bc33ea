"""Mutation check: every mutant of ``src/pnbm`` must be killed by ``pnbm selftest`` or tier-1.

Run from anywhere, with the test dependencies installed::

    python3 tests/mutation.py

First the unmutated tree must pass both runs. Then, for each mutant, the
script copies ``src/`` to a temporary directory, applies one text edit, and
runs ``python -m pnbm.cli selftest`` and ``python -m pytest -x tests``
against the copy. It prints whether each run killed the mutant (a nonzero
exit), by which criterion or test, and the seconds each run took. It exits 1
when a mutant survives both runs, unless ``EQUIVALENT`` lists it with the
reason no check can see it, and 2 when an edit no longer applies.

The file is not named ``test_*``, so tier-1 does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/pnbm
    old: str  # must occur exactly once
    new: str
    reason: str


MUTANTS = (
    Mutant(
        "wrong-pauli", "measurement.py",
        '"00": (PAULI_Y, PAULI_Y),', '"00": (PAULI_X, PAULI_Y),',
        "readout 00 corrects the pair qubit a with X instead of Y",
    ),
    Mutant(
        "dropped-gate", "measurement.py",
        "        cnot(qb, anc_phase),\n", "",
        "the network loses its second phase-parity CNOT",
    ),
    Mutant(
        "cv-feed-forward-sign", "cv.py",
        'frame[..., _index("B", "p"), :] += pv_k', 'frame[..., _index("B", "p"), :] -= pv_k',
        "the receiver's p displacement has the wrong sign",
    ),
    Mutant(
        "permuted-guess-weights", "analysis.py",
        "f_est = (m[..., 4:, :] * u).sum", "f_est = (m[..., 4:, :] * u[[1, 0, 2, 3]]).sum",
        "outcome k is scored against the Bell weight of another outcome's guess",
    ),
    Mutant(
        "uniform-drift", "teleport.py",
        "uniforms[i] = g.random()", "uniforms[i] = g.random() if i == 0 else 1.0 - g.random()",
        "every row after the first picks its outcome from another uniform than run_pqt",
    ),
    Mutant(
        "closed-f_B", "teleport.py",
        "f_B=1.0 - b2 / 2.0,", "f_B=1.0 - a2 / 2.0,",
        "the closed-form F_B of the qubit protocol reads alpha instead of beta",
    ),
    Mutant(
        "closed-f_est", "analysis.py",
        "np.float_power(a + b / 2.0, 2.0)) / 5.0", "np.float_power(a / 2.0 + b, 2.0)) / 5.0",
        "the closed-form mean estimation fidelity swaps the weights of alpha and beta",
    ),
    Mutant(
        "cv-closed-f_b", "cv.py",
        "2.0 / (2.0 * (1.0 + e2r) + 1.0 / k2)", "2.0 / (2.0 * (1.0 + e2r / 2.0) + 1.0 / k2)",
        "the CV closed-form F_B halves the squeezing noise term",
    ),
    Mutant(
        "pct-curve-branch", "teleport.py",
        "(np.sqrt(f_b - 1 / 3) + np.sqrt(", "(np.sqrt(f_b - 1 / 3) - np.sqrt(",
        "the PCT frontier takes the lower root of its defining equality",
    ),
    Mutant(
        "pqt-frontier", "teleport.py",
        "np.float_power(params.beta, 2.0) / 2.0\n", "np.float_power(params.beta, 2.0)\n",
        "the PQT frontier's F_B loses the 1/2 in front of beta^2",
    ),
    Mutant(
        "prep-wiring-order", "ancilla.py",
        "    psi = psi @ hrm.T  # H on anc2\n"
        "    psi = psi @ hwh.swapaxes(-1, -2)  # H W H on anc2\n",
        "    psi = psi @ hwh.swapaxes(-1, -2)  # H W H on anc2\n"
        "    psi = psi @ hrm.T  # H on anc2\n",
        "the stacked prep circuit applies W before the Hadamard on anc2",
    ),
    Mutant(
        "contraction-plan-order", "qsim.py",
        "out.reshape(out_shape).transpose(back)", "out.reshape(out_shape).transpose(into)",
        "a gate's product is moved back by the forward transpose instead of its inverse",
    ),
    Mutant(
        "oracle-no-displacement", "cv.py",
        '    mu[_index("a", "x")] -= xu / k\n'
        '    mu[_index("a", "p")] -= pv / k\n'
        '    mu[_index("B", "x")] -= xu / k\n'
        '    mu[_index("B", "p")] += pv / k\n',
        "",
        "the conditioning oracle skips the feed-forward displacement",
    ),
    Mutant(
        "delta-three-fidelities", "acceptance.py",
        "zip(fidelities.T, astuple(closed))", "zip(fidelities[:, :3].T, astuple(closed))",
        "the qubit builder's closed-form delta leaves out f_a_perp",
    ),
    Mutant(
        "teleport-marginal-order", "cli.py",
        '_MARGINAL_LABELS = ("A", "B", "a")', '_MARGINAL_LABELS = ("A", "a", "B")',
        "the teleport report files rho_B under a and rho_a under B",
    ),
    Mutant(
        "no-criterion-replay", "acceptance.py",
        "_REPLAY_ROWS = 3", "_REPLAY_ROWS = 0",
        "criteria 2, 5 and 10 and sweep-qubit replay no row through the scalar engine",
    ),
)

# Mutants that no check can kill, by name, each with the reason.
EQUIVALENT: dict[str, str] = {}

RUNS = {
    "selftest": ["-m", "pnbm.cli", "selftest"],
    "pytest -x": ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
}


def _copy_src(dest: Path, mutant: Mutant | None) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / "pnbm" / mutant.file
        text = path.read_text()
        found = text.count(mutant.old)
        if found != 1:
            print(f"{mutant.name}: its text occurs {found} times in {mutant.file}", file=sys.stderr)
            raise SystemExit(2)
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def _run(args: list[str], src: Path) -> tuple[int, str, float]:
    """Run ``python args`` in the repository root with ``src`` first on the path."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PNBM_SEED", None)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout + proc.stderr, time.perf_counter() - started


def _killer(run: str, code: int, output: str) -> str:
    """What made the run fail: the failed criteria, the first failed test, or
    else the last line of output, such as the exception that ended the run."""
    if run == "selftest":
        failed = re.findall(r"^FAIL  criterion (\d+):", output, re.MULTILINE)
        if failed:
            return "criterion " + ", ".join(failed)
    else:
        first = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
        if first:
            return first.group(1)
    lines = output.strip().splitlines()
    return lines[-1][:80] if lines else f"exit {code}"


def _check(src: Path) -> dict[str, tuple[str | None, float]]:
    """Per run: what killed the tree (None if it passed) and the seconds it took."""
    result = {}
    for run, args in RUNS.items():
        code, output, seconds = _run(args, src)
        result[run] = (_killer(run, code, output) if code else None, seconds)
    return result


def _row(name: str, result) -> str:
    """One line per run: the tree, the run, its seconds, and what killed the tree."""
    return "\n".join(
        f"{name:24} {run:9} {seconds:5.1f} s  {killer or 'passed'}"
        for run, (killer, seconds) in result.items()
    )


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp) / "unmutated", None)
        _, where, _ = _run(["-c", "import pnbm; print(pnbm.__file__)"], src)
        if not Path(where.strip()).is_relative_to(src):
            print(f"pnbm imports from {where.strip()}, not from the copy", file=sys.stderr)
            return 2
        baseline = _check(src)
        print(_row("unmutated", baseline))
        if any(killer for killer, _ in baseline.values()):
            print("the unmutated tree fails; no mutant can be judged", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            result = _check(_copy_src(Path(tmp) / mutant.name, mutant))
            print(_row(mutant.name, result))
            if not any(killer for killer, _ in result.values()):
                why = EQUIVALENT.get(mutant.name)
                print(f"  {'equivalent: ' + why if why else 'SURVIVED: ' + mutant.reason}")
                if not why:
                    survivors.append(mutant.name)
    if survivors:
        print(f"mutation check: {len(survivors)} survived: {', '.join(survivors)}")
        return 1
    print("mutation check: every mutant was killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
