"""Mutation check: every mutant of ``src/pnbm`` must be killed by ``pnbm selftest`` or tier-1.

Run from anywhere, with the test dependencies installed::

    python3 tests/mutation.py

First the unmutated tree must pass both runs. Then, for each mutant, the
script copies ``src/`` to a temporary directory, applies one text edit, and
runs ``python -m pnbm.cli selftest`` and ``python -m pytest -x tests``
against the copy. Tier-1 runs without ``tests/test_golden.py``: a byte digest
is re-recorded on purpose when a table changes, so a mutant that only a digest
sees counts as surviving. It prints whether each run killed the mutant (a nonzero
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
        "        *[cnot(q, ANCILLAS[1]) for q in _PAIR],\n",
        "        cnot(_PAIR[0], ANCILLAS[1]),\n",
        "the network loses its second phase-parity CNOT",
    ),
    Mutant(
        "cv-feed-forward-sign", "cv.py",
        'frame[..., _index("B", "p"), :] += pv_k', 'frame[..., _index("B", "p"), :] -= pv_k',
        "the receiver's p displacement has the wrong sign",
    ),
    Mutant(
        "permuted-guess-weights", "analysis.py",
        "block *= u\n", "block *= u[[1, 0, 2, 3]]\n",
        "outcome k is scored against the Bell weight of another outcome's guess",
    ),
    Mutant(
        "uniform-drift", "teleport.py",
        "uniforms[i] = rng.random()",
        "uniforms[i] = rng.random() if i == 0 else 1.0 - rng.random()",
        "every row after the first picks its outcome from another uniform than run_pqt",
    ),
    Mutant(
        "closed-f_B", "teleport.py",
        "1.0 - b2 / 2.0", "1.0 - a2 / 2.0",
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
        "2.0 * (1.0 - f_A)", "1.0 - f_A",
        "the PQT frontier inverts F_A = 1 - alpha^2/2 without the factor 2",
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
        "fidelities - closed", "fidelities[..., :3] - closed[..., :3]",
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
    Mutant(
        "pct-lower-root", "teleport.py",
        "u = (1 / 3 + np.sqrt(", "u = (1 / 3 - np.sqrt(",
        "the classical teleportation fidelity takes the lower root of the PCT equality",
    ),
    Mutant(
        "density-lowest-eigenvalue", "qsim.py",
        "lowest = (p + q) / 2.0 - np.hypot(", "lowest = (p + q) / 2.0 + np.hypot(",
        "the shared density check reads a 2x2's larger eigenvalue as its lowest",
    ),
    Mutant(
        "unitary-tolerance", "qsim.py",
        "require_entries(residual <= TOL_ALGEBRA,", "require_entries(residual <= 1.0,",
        "the shared unitarity check passes any residual up to 1 instead of TOL_ALGEBRA",
    ),
    Mutant(
        "mc-entry-seed", "analysis.py",
        "np.random.default_rng(seed + index)", "np.random.default_rng(seed)",
        "every entry of a stacked Monte Carlo draws on the first entry's seed",
    ),
    Mutant(
        "mc-row-split", "analysis.py",
        "rows[1::2]", "rows[0::2]",
        "the Monte-Carlo worker thread takes the calling thread's rows, and the odd rows go unset",
    ),
    Mutant(
        "mc-alias-unread", "analysis.py",
        "f_op = flat[:n]", "f_op = flat[-n:]",
        "a row's f_op samples are written over real-half rows that are not read yet",
    ),
    Mutant(
        "mean-row-order", "analysis.py",
        "np.stack([f_op, f_est], axis=-1)", "np.stack([f_est, f_op], axis=-1)",
        "every mean-fidelity estimator returns its row as (f_est, f_op)",
    ),
    Mutant(
        "mc-stderr-order", "acceptance.py",
        "mc_stderr_op=stderrs[..., 0], mc_stderr_est=stderrs[..., 1]",
        "mc_stderr_op=stderrs[..., 1], mc_stderr_est=stderrs[..., 0]",
        "sweep-measurement files the Monte Carlo's two stderr columns under each other's names",
    ),
    Mutant(
        "cv-deviation-one-mode", "acceptance.py",
        'np.abs(columns["f_a_sim"] - columns["f_a_closed"])',
        'np.abs(columns["f_b_sim"] - columns["f_b_closed"])',
        "the sweep-cv deviation reads only mode B's pair, so no gate sees f_a_sim",
    ),
    Mutant(
        "mean-range-bound", "analysis.py",
        "(column <= 1.0)", "(column <= 2.0)",
        "the mean-fidelity range check passes means up to 2",
    ),
)

# Mutants that no check can kill, by name, each with the reason.
EQUIVALENT: dict[str, str] = {}

RUNS = {
    "selftest": ["-m", "pnbm.cli", "selftest"],
    "pytest -x": [
        "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--ignore", "tests/test_golden.py", "tests",
    ],
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
        f"{name:25} {run:9} {seconds:5.1f} s  {killer or 'passed'}"
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
