"""Checks of the benchmark harness itself: ``python3 -m pytest bench -q``.

The end-to-end checks use ``--smoke`` (tiny grids), so the harness is
exercised without a full-length run. They are kept out of the tier-1 suite,
which collects ``tests/`` only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, QubitSweep, Selftest, VerifyError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(SPEC["per_layer"][i]["name"] for i in range(len(SPEC["per_layer"]))) == set(
        spans.per_layer_metrics({"spans": {}, "mc_samples": 0}, 1.0, 1.0))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_end_to_end(workload):
    done = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = result_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_counts_repeat(workload, tmp_path):
    results = []
    for _ in range(2):
        done = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                         "--trace", "1", "--smoke", "--out", str(tmp_path))
        assert done.returncode == 0, done.stderr
        results.append(result_line(done.stdout))
    first, second = results
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1]
    for name, workloads in spans.REQUIRED.items():
        if workload in workloads:
            assert counts[0][f"{name}.calls"] > 0, name
    records = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.json"))]
    assert len({r["digest"] for r in records}) == 1


def test_tracer_wraps_every_import_site(capsys):
    import pnbm.cli
    import pnbm.teleport

    original = pnbm.teleport.run_pqt
    bound_main = pnbm.cli.main  # a name bound before install stays unwrapped
    tracer = spans.Tracer()
    with tracer.installed():
        assert pnbm.cli.run_pqt is pnbm.teleport.run_pqt is not original
        assert bound_main(["sweep-qubit", "--count", "3", "--seed", "1"]) == 0
    capsys.readouterr()
    assert pnbm.cli.run_pqt is original and pnbm.teleport.run_pqt is original
    calls = tracer.snapshot()["spans"]
    assert calls["teleport.run_pqt"]["calls"] == 3
    assert calls["measurement.PnbmNetwork.run"]["calls"] == 3
    assert calls["ancilla.sigma_state"]["calls"] == 3
    assert calls["cli.main"]["calls"] == 0
    assert spans.missing_spans(tracer.snapshot(), "qubit-sweep") == ["cli.main"]


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    stats = tracer.snapshot()["spans"]
    assert stats["outer"] == {"calls": 1, "total_s": 6.0, "self_s": 4.0}
    assert stats["inner"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}


def test_seed_makes_the_argv():
    for name, workload in WORKLOADS.items():
        assert workload(3).argv == workload(3).argv
        if name != "selftest":
            assert workload(3).argv != workload(4).argv
    assert Selftest(3).argv == Selftest(4).argv == ["selftest"]


def test_nan_residual_fails_the_check():
    workload = QubitSweep(1, smoke=True)
    row = ",".join(["0.5"] * 9 + ["nan", "0"])
    table = "\n".join(["# schema: pnbm-qubit-sweep-v1", ",".join(workload.header)]
                      + [row] * workload.count + ["# max_abs_cloning_residual = 0"])
    with pytest.raises(VerifyError):
        workload.verify(table)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "cv-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _records(directory: Path, values, first_on_even: bool, delay: float = 0.0):
    """Records whose pairs alternate which side starts first."""
    directory.mkdir()
    for i, value in enumerate(values):
        start = 2 * i + delay + (0.0 if (i % 2 == 0) == first_on_even else 1.0)
        record = {
            "manifest": {"workload": "cv-sweep", "trace": 0, "seed": i, "python": "3",
                         "numpy": "2", "pnbm": "0", "nproc": 2, "git_describe": "x"},
            "started_at": f"{start:08.1f}",
            "digest": "d",
            "result": {"correct": True, "attempted": 5, "failed": 0, "metrics": {
                m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}},
        }
        (directory / f"r{i}.json").write_text(json.dumps(record))


def test_compare_verdicts(tmp_path, capsys):
    parent = [1.0 + 0.01 * (i % 3) for i in range(10)]
    _records(tmp_path / "p", parent, first_on_even=True)
    _records(tmp_path / "fast", [0.5 * v for v in parent], first_on_even=False)
    _records(tmp_path / "slow", [2.0 * v for v in parent], first_on_even=False)
    _records(tmp_path / "late", [0.5 * v for v in parent], first_on_even=False, delay=100.0)

    assert compare.main([str(tmp_path / "p"), str(tmp_path / "fast")]) == 1
    out = capsys.readouterr().out
    assert "wall_s" in out and "verdict better  bound ok" in out
    # rows_per_s is "higher is better", so halving it is the regression here
    assert "verdict worse  bound exceeded" in out
    assert "tables identical at all 10 shared seeds" in out

    compare.main([str(tmp_path / "p"), str(tmp_path / "slow")])
    assert "verdict better" in capsys.readouterr().out  # rows_per_s doubled

    compare.main([str(tmp_path / "p"), str(tmp_path / "late")])
    out = capsys.readouterr().out
    assert "pairs do not alternate" in out and "verdict better" not in out
