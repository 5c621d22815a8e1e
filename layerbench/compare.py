"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

``python3 layerbench/compare.py A B``

``A`` and ``B`` are directories holding ``result.json`` files written by
``run.py`` (any depth: one ``--out`` directory per run). For every
workload and metric the script prints each set's median and quartiles.
End-to-end metrics are judged against their bound:

* ``unresolved`` -- one set's own spread (IQR / median) exceeds the bound;
* ``REGRESSION`` -- B's median is worse than A's by more than the bound;
* ``ok``         -- otherwise.

Per-layer metrics have no bound and are only printed. Sets are compared
only when every result carries the same system fingerprint (CPU model,
core count, Python version). Exit status: 0 when nothing regressed, 1 on
a regression, a failed point-pass or any digest difference between runs
of the same workload and seed (a behaviour change), 2 when the sets
cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_set(path: str) -> List[dict]:
    results = []
    for dirpath, _dirnames, filenames in sorted(os.walk(path)):
        if "result.json" in filenames:
            with open(os.path.join(dirpath, "result.json")) as handle:
                results.append(json.load(handle))
    return results


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), with Python's default quantile method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], bound: float,
            better: str) -> str:
    worst = max(spread(a), spread(b))
    if worst > bound:
        return f"unresolved (spread {worst:.1%} > bound {bound:.0%})"
    base, new = quartiles(a)[1], quartiles(b)[1]
    change = (new - base) / abs(base) if base else 0.0
    worse = change if better == "lower" else -change
    if worse > bound:
        return f"REGRESSION ({worse:+.1%} worse, bound {bound:.0%})"
    return f"ok ({change:+.1%})"


def _by_workload(results: List[dict]) -> Dict[tuple, List[dict]]:
    groups: Dict[tuple, List[dict]] = {}
    for result in results:
        groups.setdefault((result["workload"], result["trace"]),
                          []).append(result)
    return groups


def digest_changes(a: List[dict], b: List[dict]) -> List[str]:
    """Workload/seed pairs whose runs disagree on the result digest."""
    seen: Dict[tuple, set] = {}
    for result in a + b:
        seen.setdefault((result["workload"], result["seed"]),
                        set()).add(result["digest"])
    return [f"{workload} seed {seed}: {len(digests)} distinct digests"
            for (workload, seed), digests in sorted(seen.items())
            if len(digests) > 1]


def compare(a: List[dict], b: List[dict], benchmark: dict) -> int:
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True)
                    for r in a + b}
    if len(fingerprints) != 1:
        print("compare: result sets come from different systems:")
        for fp in sorted(fingerprints):
            print(f"  {fp}")
        return 2
    declared = {m["name"]: m for m in
                benchmark["end_to_end"] + benchmark["per_layer"]}
    status = 0
    groups_a, groups_b = _by_workload(a), _by_workload(b)
    for key in sorted(set(groups_a) & set(groups_b)):
        runs_a, runs_b = groups_a[key], groups_b[key]
        workload, traced = key
        print(f"\n{workload} ({'traced' if traced else 'untraced'}; "
              f"A: {len(runs_a)} runs, B: {len(runs_b)} runs)")
        print(f"  {'metric':<30}{'A q1/median/q3':>36}"
              f"{'B q1/median/q3':>36}  verdict")
        for name in runs_a[0]["metrics"]:
            va = [r["metrics"][name]["value"] for r in runs_a]
            vb = [r["metrics"][name]["value"] for r in runs_b]
            metric = declared.get(name, {})
            cells = "".join(
                f"{'/'.join(f'{q:.4g}' for q in quartiles(v)):>36}"
                for v in (va, vb))
            judged = ""
            if "bound" in metric:
                judged = verdict(va, vb, metric["bound"], metric["better"])
                if judged.startswith("REGRESSION"):
                    status = 1
            print(f"  {name:<30}{cells}  {judged}")
        failed = sum(r["failed"] for r in runs_b)
        rates = "/".join(f"{r['error_rate']:.3g}" for r in runs_b)
        print(f"  {'error_rate (B runs)':<30}{rates:>72}  "
              f"{'ok' if failed == 0 else 'FAILED point-passes'}")
        if failed:
            status = 1
    for key in sorted(set(groups_a) ^ set(groups_b)):
        print(f"\n{key[0]}: only in one set, not compared")
    changes = digest_changes(a, b)
    for change in changes:
        print(f"BEHAVIOUR CHANGE: {change}")
    if changes:
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="layerbench/compare.py")
    parser.add_argument("a", help="directory of baseline result.json files")
    parser.add_argument("b", help="directory of candidate result.json files")
    args = parser.parse_args(argv)
    a, b = load_set(args.a), load_set(args.b)
    if not a or not b:
        print("compare: no result.json under "
              f"{args.a if not a else args.b}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    return compare(a, b, benchmark)


if __name__ == "__main__":
    sys.exit(main())
