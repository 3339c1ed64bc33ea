#!/usr/bin/env python3
"""Compare two sets of benchmark records, workload by workload.

    python3 bench/compare.py bench/results/parent bench/results/change

Each directory holds the JSON records that ``run.py --out DIR`` writes. For
every workload and end-to-end metric the command prints each side's sample
count, median and quartiles, the pairs the change won and lost, and two
verdicts:

- ``verdict``: ``better`` when the change wins at least 9 of 10 pairs and
  the medians differ by more than the parent's quartile spread; ``worse``
  by the same rule with pairs lost; ``unresolved`` otherwise. Pairs are the
  i-th runs of each side in start order, and they must alternate which side
  ran first, with at least 10 pairs, for a ``better`` or ``worse``.
- ``bound``: ``exceeded`` when the change's median is worse than the
  parent's by more than the metric's bound in BENCHMARK.json, ``ok`` when it
  is not, and ``unresolved`` when the parent's own quartile spread is wider
  than the bound, unless every change run beats every parent run.

Per-layer metrics from traced records are listed with each side's median.
The exit code is 1 when any bound is exceeded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: str) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace), each group in start order."""
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        info = record["manifest"]
        groups[(info["workload"], info["trace"])].append(record)
    for records in groups.values():
        records.sort(key=lambda r: r["started_at"])
    return groups


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(parent: list[dict], change: list[dict], metric: dict) -> dict:
    """Verdict and bound check for one metric, by the rules in the docstring."""
    sign = -1.0 if metric["better"] == "lower" else 1.0

    def values(records):
        return [r["result"]["metrics"][metric["name"]]["value"] for r in records]

    p_vals, c_vals = values(parent), values(change)
    p_q1, p_med, p_q3 = spread(p_vals)
    c_q1, c_med, c_q3 = spread(c_vals)
    pairs = list(zip(parent, change))
    firsts = [p["started_at"] < c["started_at"] for p, c in pairs]
    alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
    gains = [sign * (c - p) for p, c in zip(p_vals, c_vals)]
    won = sum(g > 0 for g in gains)
    lost = sum(g < 0 for g in gains)
    gap_resolved = abs(c_med - p_med) > p_q3 - p_q1
    verdict = "unresolved"
    if len(pairs) >= MIN_PAIRS and alternating and gap_resolved:
        if won >= WIN_SHARE * len(pairs):
            verdict = "better"
        elif lost >= WIN_SHARE * len(pairs):
            verdict = "worse"

    worse_share = -sign * (c_med - p_med) / abs(p_med)
    change_dominates = min(sign * c for c in c_vals) > max(sign * p for p in p_vals)
    if (p_q3 - p_q1) / abs(p_med) > metric["bound"] and not change_dominates:
        bound = "unresolved"
    else:
        bound = "exceeded" if worse_share > metric["bound"] else "ok"
    return {
        "parent": (len(p_vals), p_med, p_q1, p_q3),
        "change": (len(c_vals), c_med, c_q1, c_q3),
        "won": won, "lost": lost, "pairs": len(pairs), "alternating": alternating,
        "verdict": verdict, "bound": bound, "worse_share": worse_share,
    }


def digest_report(parent: list[dict], change: list[dict]) -> str:
    p_by_seed = {r["manifest"]["seed"]: r["digest"] for r in parent}
    c_by_seed = {r["manifest"]["seed"]: r["digest"] for r in change}
    shared = sorted(set(p_by_seed) & set(c_by_seed))
    differ = [s for s in shared if p_by_seed[s] != c_by_seed[s]]
    if not shared:
        return "no shared seeds"
    if differ:
        return f"tables differ at seeds {differ} of {len(shared)} shared"
    return f"tables identical at all {len(shared)} shared seeds"


def environments(records: list[dict]) -> set[str]:
    keys = ("python", "numpy", "pnbm", "nproc", "git_describe")
    return {" ".join(f"{k}={r['manifest'][k]}" for k in keys) for r in records}


def fmt(n: int, med: float, q1: float, q3: float) -> str:
    return f"n={n:<3d} {med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of benchmark records")
    parser.add_argument("parent", help="directory of records of the parent commit")
    parser.add_argument("change", help="directory of records of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    exceeded = False

    for (workload, trace) in sorted(set(parent) & set(change)):
        p_recs, c_recs = parent[(workload, trace)], change[(workload, trace)]
        print(f"== {workload} (trace {trace}): {digest_report(p_recs, c_recs)}")
        for side, recs in (("parent", p_recs), ("change", c_recs)):
            for env in sorted(environments(recs)):
                print(f"   {side} {env}")
        if trace:
            names = sorted(set(p_recs[0]["result"]["metrics"]) & set(c_recs[0]["result"]["metrics"]))
            for name in names:
                unit = p_recs[0]["result"]["metrics"][name]["unit"]
                p_med = statistics.median(r["result"]["metrics"][name]["value"] for r in p_recs)
                c_med = statistics.median(r["result"]["metrics"][name]["value"] for r in c_recs)
                print(f"   {name:<52} {unit:<6} parent {p_med:.6g}  change {c_med:.6g}")
            continue
        for metric in spec["end_to_end"]:
            j = judge(p_recs, c_recs, metric)
            exceeded |= j["bound"] == "exceeded"
            note = "" if j["alternating"] else " (pairs do not alternate)"
            print(f"   {metric['name']:<12} {metric['unit']:<6} "
                  f"parent {fmt(*j['parent'])}  change {fmt(*j['change'])}  "
                  f"won {j['won']}/{j['pairs']} lost {j['lost']}{note}  "
                  f"verdict {j['verdict']}  bound {j['bound']} "
                  f"({j['worse_share']:+.3f} worse vs {metric['bound']})")
        p_err = sum(r["result"]["failed"] for r in p_recs), sum(r["result"]["attempted"] for r in p_recs)
        c_err = sum(r["result"]["failed"] for r in c_recs), sum(r["result"]["attempted"] for r in c_recs)
        print(f"   {'error_rate':<12} {'ratio':<6} parent {p_err[0]}/{p_err[1]}  change {c_err[0]}/{c_err[1]}")
    for missing in sorted(set(parent) ^ set(change)):
        print(f"== {missing[0]} (trace {missing[1]}): records on one side only")
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
