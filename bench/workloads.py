"""The benchmark workloads: CLI argv generated from a seed, and output checks.

Each workload turns the benchmark seed into the argv of one ``pnbm``
invocation and checks that invocation's output table on its own terms:
every numeric field finite, every residual or deviation column within the
``--tol`` the argv passes, and the row count the argv asked for. The CSV
footer is not trusted, because ``max(0.0, nan)`` hides a NaN row there.

Only the standard library is used here, so the harness can cap the BLAS
thread count before numpy is first imported.
"""

from __future__ import annotations

import csv
import io
import math
import random

TOL = 1e-10  # the CLI default, passed explicitly so the check uses the same value
# The sweep tables print 12 significant digits, so two printed values in
# [0, 1] that the CLI compared at 1e-12 may differ by up to 2e-12.
FORMULA_TOL = 2e-12
# Monte-Carlo columns are checked against the closed form at 6 standard
# errors (a false alarm about once in 10^9 rows).
MC_SIGMAS = 6.0


class VerifyError(ValueError):
    """The output of an invocation failed its workload's check."""


def _derived_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}:{seed}").randrange(1, 2 ** 31)


def _read_table(text: str, schema: str, header: list[str]) -> list[dict[str, float]]:
    lines = text.splitlines()
    if not lines or lines[0] != f"# schema: pnbm-{schema}-v1":
        raise VerifyError(f"missing schema line for {schema}")
    body = [line for line in lines[1:] if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(body)))
    got_header = next(reader, None)
    if got_header != header:
        raise VerifyError(f"unexpected header {got_header}")
    rows = []
    for values in reader:
        try:
            row = {name: float(v) for name, v in zip(header, values, strict=True)}
        except ValueError as exc:
            raise VerifyError(f"malformed row {values}: {exc}") from None
        bad = [name for name, v in row.items() if not math.isfinite(v)]
        if bad:
            raise VerifyError(f"non-finite {bad} in row {values}")
        rows.append(row)
    return rows


def _check_columns(rows, columns, tol):
    for row in rows:
        for column in columns:
            if not abs(row[column]) <= tol:
                raise VerifyError(f"{column} = {row[column]!r} beyond {tol}")


def _check_count(rows, expected):
    if len(rows) != expected:
        raise VerifyError(f"{len(rows)} rows, expected {expected}")


class QubitSweep:
    name = "qubit-sweep"
    why = ("statevector path once per row with a sampled outcome: run_pqt, "
           "PnbmNetwork.run and the qsim constructors; no analysis or cv")
    header = [
        "alpha", "beta", "f_A_sim", "f_B_sim", "f_a_sim", "f_a_perp_sim",
        "f_A_closed", "f_B_closed", "f_a_closed", "cloning_residual", "closed_sim_delta",
    ]

    def __init__(self, seed: int, smoke: bool = False):
        self.count = 11 if smoke else 1001
        self.argv = ["sweep-qubit", "--count", str(self.count),
                     "--seed", str(_derived_seed(self.name, seed)), "--tol", repr(TOL)]

    def verify(self, out: str) -> int:
        rows = _read_table(out, self.name, self.header)
        _check_count(rows, self.count)
        _check_columns(rows, ("cloning_residual", "closed_sim_delta"), TOL)
        return len(rows)


class MeasurementSweep:
    name = "measurement-sweep"
    why = ("Haar Monte-Carlo trade-off at 1e5 samples per row: einsum and "
           "haar_two_qubit_block in analysis; no statevector layer")
    header = [
        "alpha", "beta", "f_op_closed", "f_est_closed", "f_op_kraus", "f_est_kraus",
        "f_op_mc", "f_est_mc", "mc_stderr_op", "mc_stderr_est", "tradeoff_residual",
    ]

    def __init__(self, seed: int, smoke: bool = False):
        self.count = 3 if smoke else 21
        samples = 2000 if smoke else 100000
        self.argv = ["sweep-measurement", "--count", str(self.count),
                     "--mc-samples", str(samples),
                     "--seed", str(_derived_seed(self.name, seed)), "--tol", repr(TOL)]

    def verify(self, out: str) -> int:
        rows = _read_table(out, self.name, self.header)
        _check_count(rows, self.count)
        _check_columns(rows, ("tradeoff_residual",), TOL)
        for row in rows:
            for q in ("op", "est"):
                closed = row[f"f_{q}_closed"]
                if not abs(row[f"f_{q}_kraus"] - closed) <= FORMULA_TOL:
                    raise VerifyError(f"f_{q}_kraus differs from the closed form: {row}")
                gate = MC_SIGMAS * row[f"mc_stderr_{q}"] + 1e-9
                if not abs(row[f"f_{q}_mc"] - closed) <= gate:
                    raise VerifyError(f"f_{q}_mc beyond {MC_SIGMAS} standard errors: {row}")
        return len(rows)


class CvSweep:
    name = "cv-sweep"
    why = ("dense kappa grid through build_cv_protocol and cv_fidelities; the "
           "only workload where the cv layer is more than a sliver of the time")
    header = [
        "kappa", "gamma", "r", "f_a_sim", "f_b_sim",
        "f_a_closed", "f_b_closed", "f_b_optimal", "deviation",
    ]

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(_derived_seed(self.name, seed))
        points = 20 if smoke else 2000
        self.kappas = sorted(float(f"{rng.uniform(0.25, 4.0):.12g}") for _ in range(points))
        self.r = float(f"{rng.uniform(0.25, 2.5):.12g}")
        self.argv = ["sweep-cv", "--variable", "kappa",
                     "--values", ",".join(repr(k) for k in self.kappas),
                     "--r", repr(self.r), "--tol", repr(TOL)]

    def verify(self, out: str) -> int:
        rows = _read_table(out, self.name, self.header)
        _check_count(rows, len(self.kappas))
        _check_columns(rows, ("deviation",), TOL)
        for row, kappa in zip(rows, self.kappas):
            if row["kappa"] != kappa or row["r"] != self.r:
                raise VerifyError(f"row {row} is not the requested point kappa={kappa}")
        return len(rows)


class Selftest:
    name = "selftest"
    why = ("all 12 acceptance criteria: forced outcomes, circuit beside Kraus, "
           "outcome probabilities, MC, CV oracle and bound curves")
    criteria = 12

    def __init__(self, seed: int, smoke: bool = False):
        # The default argv, whatever the seed: criterion 9 is a 3-sigma
        # Monte-Carlo gate, so an arbitrary --seed fails it a few percent of
        # the time by design, which is not a failure of the code.
        self.argv = ["selftest", "--seed", "11", "--mc-samples", "4000"] if smoke else ["selftest"]

    def verify(self, out: str) -> int:
        lines = out.splitlines()
        passed = [line for line in lines if line.startswith("PASS  ")]
        if len(passed) != self.criteria or len(lines) != self.criteria + 1:
            raise VerifyError(f"expected {self.criteria} PASS lines, got:\n{out}")
        if lines[-1] != "selftest: all checks passed":
            raise VerifyError(f"unexpected summary line {lines[-1]!r}")
        return len(passed)


WORKLOADS = {w.name: w for w in (QubitSweep, MeasurementSweep, CvSweep, Selftest)}
