"""The ``bench`` verb: timing harness + append-only results history.

``python -m repro.experiments bench`` times two things:

* the quick point suite cold-serial, cold-parallel and warm-cached
  (the PR-3 harness, unchanged semantics);
* the bare engine micro-loop (events/sec).

The payload is written twice: ``BENCH_PR8.json`` under ``--out`` (the
CI artifact) and an append-only copy under :data:`HISTORY_DIR`
(``bench/results/NNNN-<label>.json``), which holds the whole
BENCH_PR*.json trajectory since PR 3.

``python -m repro.experiments bench --compare`` reads the two newest
history entries, prints per-point-normalized deltas (suites grew from
110 to 254+ points across PRs, so raw wall-clock is not comparable),
and exits non-zero when a gated metric regressed by more than
``--tolerance`` (default 10%): engine events/sec down, cold-serial or
warm-cached ms/point up.

Verdicts are honest about the host: with ``cpu_count == 1`` a process
pool cannot speed anything up, so the cold-parallel *leg is not run at
all* (its verdict reads ``skipped (single-cpu host)`` and
``cold_parallel_s`` is recorded as null) instead of spending minutes to
report a misleading ~1x as a regression.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import List, Tuple

#: the append-only history (repo-relative; CI runs from the repo root)
HISTORY_DIR = os.path.join("bench", "results")

#: default --compare regression tolerance (fraction)
DEFAULT_TOLERANCE = 0.10

#: gated metrics: (key in the normalized view, direction)
_GATES = (
    ("engine_events_per_sec", "higher"),
    ("cold_serial_ms_per_point", "lower"),
    ("warm_cached_ms_per_point", "lower"),
)

#: ignore sub-epsilon absolute wobble on the per-point timings — the
#: warm-cached pass reads a few hundred cache files in ~0.2s total, so
#: a pure-percentage gate would flap on filesystem noise
_EPSILON_MS = 0.25


def engine_events_per_sec(n: int = 200_000, repeats: int = 3) -> float:
    """Post-and-fire throughput of the bare event loop (events/sec).

    Best of ``repeats`` passes — the metric gates regressions across
    history entries, so transient host load must not read as one.
    """
    from repro.sim.engine import Engine
    best = 0.0
    for _ in range(repeats):
        engine = Engine()

        def tick():
            if engine.events_processed < n:
                engine.post(1.0, tick)

        engine.post(0.0, tick)
        start = time.perf_counter()
        engine.run()
        best = max(best, engine.events_processed
                   / (time.perf_counter() - start))
    return best


# -- the history ------------------------------------------------------------


def history_entries(history_dir: str = HISTORY_DIR
                    ) -> List[Tuple[str, dict]]:
    """Every history entry, oldest first (lexicographic file order)."""
    if not os.path.isdir(history_dir):
        return []
    entries = []
    for name in sorted(os.listdir(history_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(history_dir, name)) as fh:
            entries.append((name, json.load(fh)))
    return entries


def append_history(payload: dict, label: str,
                   history_dir: str = HISTORY_DIR) -> str:
    """Append one run to the history; never overwrites an entry."""
    os.makedirs(history_dir, exist_ok=True)
    taken = [name for name in os.listdir(history_dir)
             if name.endswith(".json")]
    index = len(taken) + 1
    while True:
        name = f"{index:04d}-{label}.json"
        path = os.path.join(history_dir, name)
        if not os.path.exists(path):
            break
        index += 1
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _normalized(payload: dict) -> dict:
    """The cross-PR-comparable view: per-point times in ms."""
    points = payload.get("points") or 1
    view = {"engine_events_per_sec":
            payload.get("engine_events_per_sec")}
    for key in ("cold_serial_s", "cold_parallel_s", "warm_cached_s"):
        value = payload.get(key)
        view[key[:-2] + "_ms_per_point"] = \
            None if value is None else value / points * 1e3
    return view


def compare(history_dir: str = HISTORY_DIR,
            tolerance: float = DEFAULT_TOLERANCE) -> int:
    """Print deltas between the two newest entries; 1 on regression."""
    entries = history_entries(history_dir)
    if len(entries) < 2:
        print(f"bench --compare needs >= 2 entries under "
              f"{history_dir}/ (found {len(entries)})", file=sys.stderr)
        return 2
    (prev_name, prev), (new_name, new) = entries[-2], entries[-1]
    prev_view, new_view = _normalized(prev), _normalized(new)
    print(f"bench compare: {prev_name} -> {new_name} "
          f"(tolerance {tolerance:.0%}, times per-point-normalized; "
          f"prev: {prev.get('points')} points, "
          f"new: {new.get('points')} points)")
    print(f"{'metric':<28}{'prev':>14}{'new':>14}{'delta':>9}")

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:,.3f}"
        return str(value)

    regressions = []
    for key in sorted(set(prev_view) | set(new_view)):
        old_value, new_value = prev_view.get(key), new_view.get(key)
        if old_value and new_value is not None:
            shown = f"{(new_value - old_value) / old_value:+.1%}"
        else:
            shown = "n/a"
        print(f"{key:<28}{fmt(old_value):>14}{fmt(new_value):>14}"
              f"{shown:>9}")
    for key, direction in _GATES:
        old_value, new_value = prev_view.get(key), new_view.get(key)
        if old_value is None or new_value is None or not old_value:
            continue
        if direction == "higher":
            worse = (old_value - new_value) / old_value
        else:
            worse = (new_value - old_value) / old_value
            if abs(new_value - old_value) <= _EPSILON_MS:
                worse = 0.0
        if worse > tolerance:
            regressions.append(f"{key}: {old_value:,.3f} -> "
                               f"{new_value:,.3f} ({worse:+.1%} worse)")
    if regressions:
        for line in regressions:
            print(f"REGRESSION: {line}")
        print(f"bench compare: FAILED ({len(regressions)} "
              f"regression(s) > {tolerance:.0%})")
        return 1
    print("bench compare: no regression beyond tolerance")
    return 0


# -- the CLI entry point ----------------------------------------------------


def run_bench(quick: bool, jobs: int, out_dir: str, *,
              label: str = "pr8",
              history_dir: str = HISTORY_DIR) -> int:
    """Time the suite + engine; write ``BENCH_PR8.json`` and append
    the history entry."""
    import platform
    import tempfile

    from repro.runner import registry
    from repro.runner.cache import ResultCache
    from repro.runner.pool import run_points, summary

    cpu = os.cpu_count() or 1
    jobs = jobs if jobs > 1 else 4
    specs = [spec for name in registry.SUPPORTED
             for spec in registry.specs_for(name, quick)]
    print(f"\n{'=' * 78}\nbench: {len(specs)} points, jobs={jobs}, "
          f"{'quick' if quick else 'full'} mode\n{'=' * 78}")

    def timed(run_jobs: int, cache, label_text: str):
        start = time.perf_counter()
        results, stats = run_points(specs, jobs=run_jobs, cache=cache)
        elapsed = time.perf_counter() - start
        print(f"{label_text}: {elapsed:.1f}s  ({summary(stats)})")
        return elapsed, results, stats

    with tempfile.TemporaryDirectory() as tmp:
        serial_cache = ResultCache(os.path.join(tmp, "serial"))
        cold_serial_s, serial_results, _ = timed(1, serial_cache,
                                                 "cold serial")
        if cpu == 1:
            # a process pool cannot speed anything up here; don't spend
            # a second cold pass proving it — identity is still checked
            # across the serial and warm-cached passes
            cold_parallel_s = None
            parallel_results = serial_results
            print("cold parallel: skipped (single-cpu host)")
        else:
            parallel_cache = ResultCache(os.path.join(tmp, "parallel"))
            cold_parallel_s, parallel_results, _ = timed(
                jobs, parallel_cache, "cold parallel")
        warm_cached_s, warm_results, warm_stats = timed(1, serial_cache,
                                                        "warm cached")
    identical = serial_results == parallel_results == warm_results
    events_per_sec = engine_events_per_sec()
    print(f"engine micro-loop: {events_per_sec:,.0f} events/sec")
    speedup = cold_serial_s / cold_parallel_s if cold_parallel_s \
        else None
    if cpu == 1:
        parallel_verdict = "skipped (single-cpu host)"
    else:
        parallel_verdict = (f"{speedup:.2f}x across {jobs} jobs on "
                            f"{cpu} cpus")
    print(f"cold-parallel verdict: {parallel_verdict}")

    payload = {
        "bench_version": 3,
        "mode": "quick" if quick else "full",
        "jobs": jobs,
        "points": len(specs),
        "cold_serial_s": round(cold_serial_s, 3),
        "cold_parallel_s": round(cold_parallel_s, 3)
        if cold_parallel_s is not None else None,
        "warm_cached_s": round(warm_cached_s, 3),
        "parallel_speedup": round(speedup, 3) if speedup else None,
        "parallel_speedup_per_cpu": round(
            speedup / min(jobs, cpu), 3) if speedup else None,
        "parallel_verdict": parallel_verdict,
        "warm_skipped_fraction": round(warm_stats.skipped_fraction, 4),
        "engine_events_per_sec": round(events_per_sec),
        "results_identical": identical,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": cpu,
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_PR8.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    history_path = append_history(payload, label,
                                  history_dir=history_dir)
    print(f"\nwrote {path} and {history_path}")
    if not identical:
        print("ERROR: serial/parallel/cached results diverged",
              file=sys.stderr)
        return 1
    return 0
