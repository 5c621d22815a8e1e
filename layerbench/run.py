"""Layered host-time benchmark of the dIPC simulator.

``python3 layerbench/run.py --workload W --seed N --seconds S --trace 0|1``

Runs one workload (or all four when ``--workload`` is omitted) in its own
``python`` child, one child at a time. The child runs the workload's
point list in whole passes, untraced, until ``--seconds`` have gone by
(at least three passes). A host clock (``reference.py``) samples the
host's speed while each point runs, and the point's host time is
rescaled to a host of the clock's nominal speed; a point's time is the
lower quartile of its rescaled times over the passes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``wall_s`` -- sum over points of their times;
* ``sim_ops_per_s`` -- simulated operations / ``wall_s``;
* ``setup_s`` -- median over 5 fresh interpreters of the rescaled time
  from interpreter start to point list built and first ``Kernel()`` made;
* ``peak_rss_mb`` -- peak resident set of the workload child.

With ``--trace 1`` a second child runs one traced pass (see
``layers.py``) and the last line reports the per-layer metrics instead.

A point-pass fails when it raises, fails its storm audit or sanity
checks, or its result digest differs from pass 1, from the untraced run
(traced pass) or from ``golden.json``. ``attempted``/``failed`` count
point-passes; ``correct`` is true when none failed. Artifacts go to
``--out/<workload>/``: ``raw.csv``, ``meta.json``, ``result.json`` and,
when traced, ``layers.json`` and ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import workloads
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a crashed child)."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def load_benchmark() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def load_golden() -> Dict[str, str]:
    """Pinned point digests, keyed by point id (see ``golden.py``)."""
    with open(os.path.join(HERE, "golden.json")) as handle:
        return json.load(handle)["points"]


def fingerprint() -> dict:
    """What must match before two result sets are compared."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count() or 1,
            "python": platform.python_version()}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(mode: str, workload: str, seed: int, out_dir: str, *,
           seconds: float = 0.0) -> str:
    """Run ``child.py`` to completion; returns its stdout."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           "--workload", workload, "--seed", str(seed), "--out", out_dir,
           "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child for {workload} exited "
                         f"{proc.returncode}")
    return proc.stdout


def _read(out_dir: str, mode: str) -> dict:
    with open(os.path.join(out_dir, f"{mode}.json")) as handle:
        return json.load(handle)


def measure_setup(workload: str, seed: int, out_dir: str) -> List[list]:
    """Seconds from interpreter start to first kernel, per fresh child,
    each with the child's host-clock scale: ``[[seconds, scale], ...]``."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        stdout = _child("setup", workload, seed, out_dir)
        done, scale = stdout.strip().splitlines()[-1].split()
        samples.append([float(done) - start, float(scale)])
    return samples


# ---------------------------------------------------------------------------
# judging point-passes
# ---------------------------------------------------------------------------

def evaluate(points: List[dict], rows: List[dict], golden: Dict[str, str],
             expected: Optional[Dict[str, str]] = None) -> dict:
    """Judge every row; returns the counts and the failures.

    ``expected`` maps point id to the digest every row of that point
    must match; by default it is the point's own pass-0 digest.
    """
    if expected is None:
        expected = point_digests(points, rows)
    failures = []
    for row in rows:
        pid = points[row["point"]]["id"]
        reasons = []
        if row["error"]:
            reasons.append("raised: " + row["error"].strip().splitlines()[-1])
        reasons += [f"audit: {v}" for v in row["violations"]]
        reasons += [f"check: {p}" for p in row["problems"]]
        if row["digest"] != expected.get(pid):
            reasons.append("digest differs from pass 1 of the untraced run")
        if pid in golden and row["digest"] != golden[pid]:
            reasons.append("digest differs from golden.json")
        if reasons:
            failures.append({"point": points[row["point"]]["label"],
                             "pass": row["pass"], "reasons": reasons})
    return {"attempted": len(rows), "failed": len(failures),
            "failures": failures}


def lower_quartile(values: List[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def point_times(rows: List[dict], n_points: int) -> List[float]:
    """Per point, the lower quartile over passes of its rescaled time."""
    samples: List[List[float]] = [[] for _ in range(n_points)]
    for row in rows:
        samples[row["point"]].append(row["host_ns"] * row["scale"])
    return [lower_quartile(values) for values in samples]


def point_digests(points: List[dict], rows: List[dict]) -> Dict[str, str]:
    return {points[row["point"]]["id"]: row["digest"]
            for row in rows if row["pass"] == 0}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def wall_ns(timed: dict) -> float:
    return sum(point_times(timed["rows"], len(timed["points"])))


def raw_wall_ns(timed: dict) -> int:
    """Sum over points of the fastest pass, not rescaled (artifact only:
    it moves with the host's speed from run to run)."""
    best: Dict[int, int] = {}
    for row in timed["rows"]:
        best[row["point"]] = min(best.get(row["point"], row["host_ns"]),
                                 row["host_ns"])
    return sum(best.values())


def sim_ops(timed: dict) -> int:
    return sum(row["ops"] for row in timed["rows"] if row["pass"] == 0)


def ipc_us_per_call(timed: dict) -> Dict[str, float]:
    """Per primitive, the time of its 64 B Figure-11 point over the round
    trips it made, in microseconds. Only ``pingpong`` has such points."""
    out = {}
    times = point_times(timed["rows"], len(timed["points"]))
    for point, point_ns in zip(timed["points"], times):
        kwargs = point["kwargs"]
        if point["kind"] == "fig11" and kwargs["size"] == 64:
            calls = kwargs["iters"] + kwargs["warmup"]
            out[kwargs["primitive"]] = point_ns / calls / 1e3
    return out


def end_to_end(timed: dict, setup: List[list]) -> Dict[str, float]:
    wall_s = wall_ns(timed) / 1e9
    return {"wall_s": wall_s,
            "sim_ops_per_s": sim_ops(timed) / wall_s,
            "setup_s": statistics.median(
                seconds * scale for seconds, scale in setup),
            "peak_rss_mb": timed["peak_rss_kib"] / 1024.0}


def per_layer(timed: dict, traced: dict) -> Dict[str, float]:
    """The per-layer metrics: traced self time and call counts per
    layer, exact counters, and the untraced ratios that need them."""
    report = traced["layers"]
    section_s = report["section_ns"] / 1e9
    out: Dict[str, float] = {}
    for layer, totals in report["layers"].items():
        out[f"{layer}.calls"] = totals["calls"]
        out[f"{layer}.self_s"] = totals["self_ns"] / 1e9
        out[f"{layer}.self_share"] = totals["self_ns"] / 1e9 / section_s
    counts = report["counts"]
    untraced_ns = wall_ns(timed)
    ops = sim_ops(timed)
    events = counts["events"]
    out["sim.events"] = events
    out["sim.events_per_op"] = events / ops if ops else 0.0
    out["sim.host_ns_per_event"] = untraced_ns / events if events else 0.0
    out["sim.cancel_ratio"] = (counts["cancels"] / counts["posts"]
                               if counts["posts"] else 0.0)
    for name in ("charges", "context_switches", "preemptions",
                 "ipi_wakes"):
        out[f"kernel.{name}"] = counts[name]
    for name in ("kcs_pushes", "kcs_frames_pruned",
                 "stale_replies_dropped"):
        out[f"core.{name}"] = counts[name]
    traced_rows = traced["rows"]
    out["recovery.restarts"] = counts["worker_restarts"]
    out["recovery.rebuilds"] = counts["pool_rebuilds"]
    out["recovery.breaker_fast_fails"] = counts["breaker_fast_fails"]
    out["recovery.audit_violations"] = sum(len(row["violations"])
                                           for row in traced_rows)
    cache = timed["cache"]
    out["runner.cache_store_ms"] = cache["store_ns"] / 1e6
    out["runner.cache_lookup_ms"] = cache["lookup_ns"] / 1e6
    out["runner.cache_hit_ratio"] = (cache["hits"] / cache["lookups"]
                                     if cache["lookups"] else 0.0)
    per_call = ipc_us_per_call(timed)
    for primitive in timed["primitives"]:
        out[f"ipc.{primitive}.host_us_per_call"] = per_call.get(primitive,
                                                                0.0)
    traced_ns = sum(row["host_ns"] * row["scale"] for row in traced_rows)
    out["bench.trace_overhead_x"] = traced_ns / untraced_ns
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_root: str, benchmark: dict,
                 golden: Dict[str, str]) -> dict:
    """Run one workload's children, write its artifacts and return its
    result record (the contents of ``result.json``)."""
    out_dir = os.path.join(out_root, workload)
    os.makedirs(out_dir, exist_ok=True)
    setup = [] if trace else measure_setup(workload, seed, out_dir)
    _child("timed", workload, seed, out_dir, seconds=seconds)
    timed = _read(out_dir, "timed")
    points = timed["points"]
    verdict = evaluate(points, timed["rows"], golden)
    digests = point_digests(points, timed["rows"])
    problems = []
    if timed["wrapped"]:
        problems.append(f"untraced child ran {len(timed['wrapped'])} "
                        f"wrapped functions")
    if timed["cache"]["hits"] != timed["cache"]["lookups"]:
        problems.append("result cache did not return every stored point")
    attempted, failed = verdict["attempted"], verdict["failed"]
    failures = verdict["failures"]
    if trace:
        _child("traced", workload, seed, out_dir)
        traced = _read(out_dir, "traced")
        traced_verdict = evaluate(points, traced["rows"], golden,
                                  expected=digests)
        attempted += traced_verdict["attempted"]
        failed += traced_verdict["failed"]
        failures += [dict(failure, **{"pass": "traced"})
                     for failure in traced_verdict["failures"]]
        values = per_layer(timed, traced)
        declared = benchmark["per_layer"]
    else:
        values = end_to_end(timed, setup)
        declared = benchmark["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(values):
        raise BenchError(
            f"metrics computed and declared in BENCHMARK.json differ: "
            f"{sorted(set(units) ^ set(values))}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    order = [point["id"] for point in points]
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "passes": timed["passes"],
        "fingerprint": fingerprint(), "git_sha": git_sha(),
        "digest": workloads.workload_digest(digests, order),
        "point_digests": digests,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:50], "problems": problems,
        "raw_wall_s": raw_wall_ns(timed) / 1e9,
        "setup_samples": setup, "metrics": metrics}
    _write_artifacts(out_dir, result, timed)
    return result


def _write_artifacts(out_dir: str, result: dict, timed: dict) -> None:
    points = timed["points"]
    with open(os.path.join(out_dir, "raw.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["point", "pass", "host_ms", "scale", "digest"])
        for row in timed["rows"]:
            writer.writerow([points[row["point"]]["label"], row["pass"],
                             f"{row['host_ns'] / 1e6:.6f}",
                             f"{row['scale']:.6f}", row["digest"]])
    meta = {key: result[key] for key in
            ("workload", "seed", "trace", "seconds", "passes",
             "fingerprint", "git_sha")}
    meta["argv"] = sys.argv
    meta["timestamp_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                          time.gmtime())
    for name, payload in (("meta.json", meta), ("result.json", result)):
        with open(os.path.join(out_dir, name), "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")


def _print_summary(result: dict) -> None:
    traced = " + 1 traced" if result["trace"] else ""
    print(f"{result['workload']}: seed {result['seed']}, "
          f"{result['passes']} untraced passes{traced}, digest "
          f"{result['digest'][:16]}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34}{metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':<34}{result['error_rate']:>16.6g} ratio "
          f"({result['failed']}/{result['attempted']} point-passes "
          f"failed)")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure['point']} pass {failure['pass']}: "
              f"{'; '.join(failure['reasons'])}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="layerbench/run.py",
        description="Host-time benchmark of the dIPC simulator.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1 (or bare --trace): add one traced pass "
                             "and report the per-layer metrics")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="artifact directory (default layerbench/out)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"layerbench: no simulator sources under "
              f"{os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        benchmark = load_benchmark()
        golden = load_golden()
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.out, benchmark,
                                  golden)
            _print_summary(result)
            results.append(result)
    except BenchError as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric for r in results
                   for name, metric in r["metrics"].items()}
    correct = all(r["failed"] == 0 and not r["problems"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
