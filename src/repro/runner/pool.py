"""The work queue: cache lookups, fan-out, in-order merge, crash-safety.

All cache and journal I/O happens in the parent process — workers only
simulate — so a shared cache directory never sees concurrent writers
racing on the same key from one run, and a worker crash cannot leave a
half-written entry behind.

Crash-safety (PR 5): every completed point is appended to a
:class:`~repro.recovery.checkpoint.CheckpointJournal` the moment it
finishes, so an interrupted sweep (SIGINT, OOM-killed worker, crashed
parent) resumes with ``--resume`` recomputing only the unfinished
points. Pool workers that die or wedge are retried: a broken pool or a
stall (no point completing within ``timeout_s``) charges one attempt to
every outstanding point, rebuilds the pool after a seeded wall-clock
backoff, and resubmits; a point that keeps failing past ``retries``
raises :class:`PointFailure` naming it.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Union

from repro.recovery.checkpoint import CheckpointJournal
from repro.runner.cache import ResultCache
from repro.runner.points import PointSpec, _execute_payload, execute_spec


class PointFailure(RuntimeError):
    """One point kept failing after its retry budget was spent."""


def _point_failure(spec: PointSpec, index: int, reason: str,
                   journal: Optional[CheckpointJournal]) -> PointFailure:
    """Build a :class:`PointFailure` that carries its own repro.

    The message names the point's content-addressed cache hash, writes
    a ``point`` repro bundle, and quotes the one-line replay command;
    the same details land in the checkpoint journal as a ``failed``
    entry so an aborted sweep's journal records *why* it aborted.
    """
    from repro.check.bundle import (default_bundle_dir, make_point_bundle,
                                    write)
    key = ResultCache().key(spec)
    path = os.path.join(default_bundle_dir(), f"point-{key}.json")
    try:
        write(path, make_point_bundle(spec))
    except OSError:
        path = "<bundle write failed>"
    replay = f"python -m repro.experiments check --replay {path}"
    if journal is not None and journal._fh is not None:
        journal.record_failure(index, {
            "point": spec.label(), "hash": key,
            "bundle": path, "reason": reason})
    return PointFailure(
        f"point {spec.label()} {reason} [cache hash {key}]; "
        f"repro: {replay}")


@dataclass
class RunStats:
    """What one ``run_points`` call did, for summary lines."""

    total: int = 0
    cache_hits: int = 0
    computed: int = 0
    jobs: int = 1
    #: points recovered from a checkpoint journal instead of computed
    resumed: int = 0
    #: point attempts that were retried after a crash/stall/failure
    retried: int = 0

    @property
    def skipped_fraction(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0


def run_points(specs: Sequence[PointSpec], *, jobs: int = 1,
               cache: Optional[ResultCache] = None,
               checkpoint: Union[str, CheckpointJournal, None] = None,
               resume: bool = False,
               timeout_s: Optional[float] = None,
               retries: int = 2, retry_seed: int = 0) -> tuple:
    """Compute every point, returning ``(results, stats)``.

    ``results`` is aligned with ``specs`` — the merge is by position,
    never by completion order, which is what keeps parallel renders
    byte-identical to serial ones. ``jobs <= 1`` computes in-process;
    ``jobs > 1`` farms cache misses to a process pool one point at a
    time so one slow OLTP point cannot strand a ladder of cheap ones
    behind it.

    ``checkpoint`` (a directory, or a prepared journal) journals every
    completed point; with ``resume=True`` previously journaled results
    are reused. On any error or interrupt the journal file is *kept*
    for the next ``--resume``; it is deleted only when the sweep
    completes. ``timeout_s`` bounds how long the parallel path waits
    without any point completing before declaring the pool wedged.
    """
    jobs = max(int(jobs), 1)
    stats = RunStats(total=len(specs), jobs=jobs)
    results: List[Any] = [None] * len(specs)
    journal: Optional[CheckpointJournal] = None
    recovered = {}
    if checkpoint is not None:
        journal = (checkpoint if isinstance(checkpoint, CheckpointJournal)
                   else CheckpointJournal.for_specs(checkpoint, specs))
        recovered = journal.start(resume=resume)

    def finish(index: int, value: Any) -> None:
        results[index] = value
        if cache is not None:
            cache.store(specs[index], value)
        if journal is not None:
            journal.record(index, value)

    misses: List[int] = []
    try:
        for index, spec in enumerate(specs):
            if index in recovered:
                finish(index, recovered[index])
                stats.resumed += 1
                continue
            if cache is not None:
                hit, value = cache.lookup(spec)
                if hit:
                    finish(index, value)
                    stats.cache_hits += 1
                    continue
            misses.append(index)
        stats.computed = len(misses)
        if misses:
            if jobs > 1 and len(misses) > 1:
                _run_parallel(specs, misses, jobs, finish, stats,
                              timeout_s=timeout_s, retries=retries,
                              retry_seed=retry_seed, journal=journal)
            else:
                # in-process: an exception here is deterministic
                # simulation behaviour, not a crashed worker — no retry
                for index in misses:
                    finish(index, execute_spec(specs[index]))
    except BaseException:
        if journal is not None:
            journal.close()  # keep the file: it is the --resume handle
        raise
    if journal is not None:
        journal.complete()
    return results, stats


def _run_parallel(specs, misses, jobs, finish, stats, *,
                  timeout_s, retries, retry_seed, journal=None) -> None:
    """Fan outstanding points over a process pool, surviving crashes.

    Runs in rounds: each round submits every outstanding point to a
    fresh pool and harvests completions as they land. A worker crash
    (``BrokenProcessPool``) or a stall (nothing completed within
    ``timeout_s``) ends the round — every point still outstanding is
    charged one attempt and resubmitted after a seeded backoff sleep.
    """
    rng = random.Random(retry_seed * 9_176 + 11)
    attempts = {index: 0 for index in misses}
    outstanding = set(misses)
    round_no = 0
    while outstanding:
        round_no += 1
        if round_no > 1:
            # wall-clock backoff between pool rebuilds (seeded jitter);
            # never affects simulated results, only scheduling
            delay = min(0.05 * 2 ** (round_no - 2), 1.0)
            time.sleep(delay * (1.0 + rng.uniform(0.0, 0.25)))
        executor = ProcessPoolExecutor(
            max_workers=min(jobs, len(outstanding)))
        broken = False
        try:
            futures = {}
            for index in sorted(outstanding):
                spec = specs[index]
                payload = (spec.module, spec.func, spec.kwargs)
                futures[executor.submit(_execute_payload, payload)] = index
            pending = set(futures)
            while pending and not broken:
                done, pending = wait(pending, timeout=timeout_s,
                                     return_when=FIRST_COMPLETED)
                if not done:
                    broken = True  # stall: nothing finished in time
                    break
                for future in done:
                    index = futures[future]
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken = True
                        break
                    except Exception as exc:
                        attempts[index] += 1
                        stats.retried += 1
                        if attempts[index] > retries:
                            raise _point_failure(
                                specs[index], index,
                                f"failed {attempts[index]} time(s): "
                                f"{type(exc).__name__}: {exc}",
                                journal) from exc
                    else:
                        outstanding.discard(index)
                        finish(index, value)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        if broken and outstanding:
            # can't know which point killed the pool: charge everyone
            # still out, and fail on whichever exhausted its budget
            for index in sorted(outstanding):
                attempts[index] += 1
                stats.retried += 1
                if attempts[index] > retries:
                    raise _point_failure(
                        specs[index], index,
                        f"did not complete after {attempts[index]} "
                        f"attempt(s) (crashed or stalled pool)", journal)


def summary(stats: RunStats) -> str:
    """The runner's one-line account, e.g.
    ``runner: 45 points, 42 from cache (93% skipped), 3 computed, jobs=4``.
    """
    line = (f"runner: {stats.total} points, "
            f"{stats.cache_hits} from cache "
            f"({stats.skipped_fraction:.0%} skipped), "
            f"{stats.computed} computed, jobs={stats.jobs}")
    if stats.resumed:
        line += f", {stats.resumed} resumed from checkpoint"
    if stats.retried:
        line += f", {stats.retried} retried"
    return line
