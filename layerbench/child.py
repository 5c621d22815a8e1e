"""One workload process of the benchmark; ``run.py`` starts it.

``python layerbench/child.py MODE --workload W --seed N --out DIR``

* ``setup``  -- build the point list and one ``Kernel()``, then print
  ``time.monotonic()`` and the host clock's scale over the run; the
  parent subtracts its own clock reading taken before it started this
  interpreter.
* ``timed``  -- run the whole point list in passes, untraced, until
  ``--seconds`` have gone by and at least :data:`MIN_PASSES` passes ran;
  then time a result-cache round. Writes ``DIR/timed.json``.
* ``traced`` -- install :class:`layers.LayerTracer`, run one pass and the
  cache round, and write ``DIR/traced.json``, ``DIR/layers.json`` and
  ``DIR/spans.jsonl``.

A :class:`reference.HostClock` samples the host's speed throughout, and
every row gets the ``scale`` of the span it timed. Every point result is
reduced to a digest here; the parent decides which point-passes failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers      # noqa: E402
import reference   # noqa: E402
import workloads   # noqa: E402

MIN_PASSES = 3


def run_spec(spec: dict) -> dict:
    """Time one point; never raises (a raising point is a failed row).

    The timed span ends with a full collection (``gc_ns`` of it), so each
    point pays for collecting its own cyclic garbage (kernels, threads,
    generators) and leaves a clean heap to the next one.
    """
    start = time.perf_counter_ns()
    try:
        result, ops, violations = workloads.run_point(spec)
        error = ""
    except Exception:  # noqa: BLE001 -- recorded, judged by the parent
        result, ops, violations = None, 0, []
        error = traceback.format_exc(limit=3)
    returned = time.perf_counter_ns()
    gc.collect()
    end = time.perf_counter_ns()
    return {"start_ns": start, "host_ns": end - start,
            "gc_ns": end - returned,
            "digest": "" if error else workloads.digest(result),
            "ops": ops, "error": error, "violations": violations,
            "problems": [] if error else workloads.check_result(spec, result),
            "result": result}


def _row(index: int, pass_no: int, outcome: dict) -> dict:
    return {key: outcome[key] for key in
            ("start_ns", "host_ns", "gc_ns", "digest", "ops", "error",
             "violations", "problems")} | {"point": index, "pass": pass_no}


def scale_rows(rows, clock: reference.HostClock) -> None:
    """Give every row the host clock's scale over the span it timed."""
    for row in rows:
        row["scale"] = clock.scale(row["start_ns"],
                                   row["start_ns"] + row["host_ns"])


def cache_round(specs, results, out_dir: str) -> dict:
    """Store every point's result in a fresh ``ResultCache``, then look
    each up again; a hit must return the stored result exactly. The store
    time includes making the cache and the point specs."""
    from repro.runner.cache import ResultCache
    from repro.runner.points import PointSpec
    root = tempfile.mkdtemp(prefix="cache-", dir=out_dir)
    try:
        start = time.perf_counter_ns()
        cache = ResultCache(root)
        points = [PointSpec(spec["kind"], "layerbench.workloads",
                            spec["kwargs"]) for spec in specs]
        for point, result in zip(points, results):
            cache.store(point, result)
        stored = time.perf_counter_ns()
        hits = 0
        for point, result in zip(points, results):
            hit, value = cache.lookup(point)
            hits += bool(hit and workloads.digest(value)
                         == workloads.digest(result))
        done = time.perf_counter_ns()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"store_ns": stored - start, "lookup_ns": done - stored,
            "hits": hits, "lookups": len(points)}


def timed(args, specs) -> dict:
    rows = []
    results = [None] * len(specs)
    gc.collect()
    started = time.perf_counter()
    pass_no = 0
    while pass_no < MIN_PASSES or \
            time.perf_counter() - started < args.seconds:
        for index, spec in enumerate(specs):
            outcome = run_spec(spec)
            if pass_no == 0:
                results[index] = outcome["result"]
            rows.append(_row(index, pass_no, outcome))
        pass_no += 1
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    from repro import primitives
    return {"mode": "timed", "passes": pass_no, "rows": rows,
            "peak_rss_kib": peak_kib,
            "cache": cache_round(specs, results, args.out),
            "primitives": list(primitives.names()),
            "wrapped": layers.wrapped_names()}


#: load-point result fields the recovery metrics sum
RECOVERY_FIELDS = ("worker_restarts", "pool_rebuilds", "breaker_fast_fails")


def _kernel_counts(kernels) -> dict:
    counts = {"events": 0, "context_switches": 0, "preemptions": 0,
              "ipi_wakes": 0, "kcs_frames_pruned": 0}
    for kernel in kernels:
        counts["events"] += kernel.engine.events_processed
        scheduler = kernel.scheduler
        counts["context_switches"] += scheduler.context_switches
        counts["preemptions"] += scheduler.preemptions
        counts["ipi_wakes"] += scheduler.ipi_wakes
        counts["kcs_frames_pruned"] += sum(
            thread.kcs.pruned_frames
            for process in kernel.processes
            for thread in process.threads if thread.kcs is not None)
    return counts


def traced(args, specs) -> dict:
    tracer = layers.LayerTracer()
    tracer.install()
    rows = []
    results = []
    counts = dict.fromkeys(list(_kernel_counts([])) + list(RECOVERY_FIELDS),
                           0)
    gc.collect()
    section_start = time.perf_counter_ns()
    try:
        for index, spec in enumerate(specs):
            tracer.point = spec["id"]
            outcome = run_spec(spec)
            results.append(outcome["result"])
            rows.append(_row(index, 0, outcome))
            for key, value in _kernel_counts(tracer.take_kernels()).items():
                counts[key] += value
            for key in RECOVERY_FIELDS:
                counts[key] += (outcome["result"] or {}).get(key, 0)
        tracer.point = "cache"
        cache = cache_round(specs, results, args.out)
    finally:
        tracer.uninstall()
    # the traced section: every point call plus the cache round, not the
    # collections after the calls (they traverse the tracer's own span
    # records) or the counter reads between them
    section_ns = (sum(row["host_ns"] - row["gc_ns"] for row in rows)
                  + cache["store_ns"] + cache["lookup_ns"])
    totals = tracer.layer_totals()
    attributed = sum(layer["self_ns"] for layer in totals.values())
    report = {
        "section_ns": section_ns,
        "attributed_ns": attributed,
        "unattributed_ns": section_ns - attributed,
        "top_level_ns": tracer.root[1],
        "layers": totals,
        "counts": counts | {
            "charges": tracer.calls(
                "repro.kernel.scheduler.Scheduler._do_charge"),
            "posts": tracer.calls("repro.sim.engine.Engine.post_at"),
            "cancels": tracer.calls("repro.sim.engine.Engine.cancel"),
            "kcs_pushes": tracer.calls(
                "repro.core.kcs.KernelControlStack.push"),
            "stale_replies_dropped": tracer.stale_replies},
        "sites": {site.name: {"layer": site.layer, "calls": site.calls,
                              "self_ns": site.self_ns}
                  for site in sorted(tracer.sites.values(),
                                     key=lambda s: -s.self_ns)
                  if site.calls},
    }
    with open(os.path.join(args.out, "layers.json"), "w") as handle:
        json.dump(report, handle, indent=1)
    with open(os.path.join(args.out, "spans.jsonl"), "w") as handle:
        for layer, spans in tracer.spans.items():
            for site, start, end, parent, span, point in spans:
                handle.write(json.dumps(
                    {"name": site.name, "layer": layer,
                     "start_ns": start - section_start,
                     "end_ns": end - section_start, "parent": parent,
                     "span": span, "point": point}) + "\n")
    return {"mode": "traced", "passes": 1, "rows": rows, "cache": cache,
            "layers": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    clock = reference.HostClock().start()
    specs = workloads.specs(args.workload, args.seed)
    if args.mode == "setup":
        from repro.kernel import Kernel
        Kernel()
        done = time.monotonic()
        clock.stop()
        print(f"{done!r} {clock.scale(0, time.perf_counter_ns())!r}")
        return 0
    report = timed(args, specs) if args.mode == "timed" \
        else traced(args, specs)
    clock.stop()
    scale_rows(report["rows"], clock)
    report["points"] = [{key: spec[key] for key in
                         ("id", "label", "kind", "kwargs")}
                        for spec in specs]
    with open(os.path.join(args.out, f"{args.mode}.json"), "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
