"""Discrete-event simulation engine.

The engine owns the global simulated clock (nanoseconds, float) and a
priority queue of timestamped callbacks. Everything above it — CPUs,
scheduler, IPC blocking, disk I/O — is expressed as events posted here.

Determinism: events at equal timestamps fire in posting order (a
monotonically increasing sequence number breaks ties), so simulations are
fully reproducible.

Hot-path notes (``tests/sim/test_engine.py`` counts the Python calls
per event):

* queue entries are ``[time_ns, seq, fn]`` lists, which ``heapq``
  compares in C; ``seq`` is unique, so a comparison never reaches
  ``fn``. The entry is the handle :meth:`Engine.post` returns:
  :meth:`Engine.cancel` tombstones it (``fn = None``), and the run loop
  drops tombstones as they surface. Popping an entry clears its ``fn``
  as well, so cancelling an event that already fired does nothing;
* :meth:`Engine.run` is the one event loop. Per event it checks whether
  a schedule controller is installed and, only then, whether the next
  entry ties with the popped one; it skips the count-trigger peek while
  no triggers are armed;
* :meth:`Engine.skip_to` lets a callback whose last act would be to
  post its own continuation run that continuation inline instead,
  when no other event could fire first (see its docstring). The
  scheduler does so for every ``Charge`` not split at the timeslice,
  which is most events of every workload.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.trace.tracer import NULL_TRACER


class Engine:
    """Event queue + simulated clock."""

    def __init__(self):
        #: heap of ``[time_ns, seq, fn]`` entries; ``fn`` is None once
        #: the entry is cancelled or popped
        self._queue: list = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        #: the active run()'s time and event-count stops (skip_to's bounds)
        self._stop_ns = inf
        self._stop_count = inf
        #: cancelled events still sitting in the heap (pruned lazily)
        self._cancelled_in_queue = 0
        self.events_processed = 0
        #: (count, seq, fn) heap fired when events_processed reaches count
        self._count_triggers: list = []
        #: span/counter recorder; NULL_TRACER unless a TraceSession (or a
        #: caller) installs a live repro.trace.Tracer
        self.tracer = NULL_TRACER
        #: schedule-exploration hook (repro.check.ScheduleController);
        #: when set, run() lets it break every same-timestamp tie, each
        #: a recorded decision point
        self.controller = None
        #: zero-arg callable invoked when run() drains the queue with no
        #: live event left; raises DeadlockError if threads are wedged
        #: (installed by Kernel.enable_deadlock_detection)
        self.deadlock_detector = None

    # -- clock --------------------------------------------------------------

    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def post(self, delay_ns: float, fn: Callable[[], None]) -> list:
        """Schedule ``fn()`` to run ``delay_ns`` from now.

        Events posted for the same timestamp fire in posting order.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot post event in the past ({delay_ns})")
        return self.post_at(self._now + delay_ns, fn)

    def post_at(self, time_ns: float, fn: Callable[[], None]) -> list:
        """Schedule ``fn()`` at absolute simulated time ``time_ns``.

        Returns the queue entry as an opaque handle for :meth:`cancel`.
        """
        if time_ns < self._now:
            raise SimulationError(
                f"cannot post event at {time_ns} before now ({self._now})"
            )
        entry = [time_ns, self._seq, fn]
        self._seq += 1
        heapq.heappush(self._queue, entry)
        return entry

    def at_event_count(self, count: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` right after the ``count``-th event executes.

        Used by the fault injector for event-count triggers: unlike a
        timestamped post, the firing point is a position in the
        deterministic event order, so it is invariant under cost-model
        changes. Triggers whose count is never reached simply never fire;
        they do not keep :meth:`run` alive.
        """
        if count <= self.events_processed:
            raise SimulationError(
                f"event-count trigger at {count} already passed "
                f"({self.events_processed} processed)")
        heapq.heappush(self._count_triggers, (count, self._seq, fn))
        self._seq += 1

    def cancel(self, entry: list) -> None:
        """Cancel a pending event; cancelling twice is harmless.

        Cancelled events stay in the heap until popped, but once they
        outnumber half the queue the heap is rebuilt without them — long
        runs that cancel heavily (timeouts that rarely fire) would
        otherwise grow the queue without bound.
        """
        if entry[2] is None:
            return  # already cancelled, or already fired
        entry[2] = None
        self._cancelled_in_queue += 1
        if self._cancelled_in_queue > len(self._queue) // 2 \
                and len(self._queue) >= 64:
            self._prune()

    def _prune(self) -> None:
        """Rebuild the heap without cancelled events.

        The rebuild is in place (slice assignment): ``run()`` holds a
        local alias of the queue list across callbacks, and a callback
        is allowed to cancel enough events to trigger this prune —
        rebinding ``self._queue`` would silently split the two views.
        """
        self._queue[:] = [e for e in self._queue if e[2] is not None]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0

    # -- running -------------------------------------------------------------

    def run(self, until_ns: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Drain the queue, optionally stopping at a time or event budget.

        When ``until_ns`` is given, the clock is advanced toward that
        time on return (even if the queue drained earlier), so
        utilization accounting over a fixed window is well defined. If
        ``max_events`` stops the run first, the clock only advances to
        the next still-pending event — never past work that has yet to
        execute — keeping time monotonic across resumed runs.

        With a schedule controller installed, every time several live
        events share the earliest timestamp the controller picks which
        one fires (see :meth:`_choose`); a baseline controller (always
        picks 0) keeps posting order, so schedule 0 reproduces the
        uncontrolled run.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        try:
            # local aliases for the hot loop; _prune() and
            # at_event_count() mutate these lists in place, never rebind
            queue = self._queue
            triggers = self._count_triggers
            controller = self.controller
            heappop = heapq.heappop
            stop_ns = self._stop_ns = inf if until_ns is None else until_ns
            stop_count = self._stop_count = inf if max_events is None \
                else self.events_processed + max_events
            while queue:
                if self.events_processed >= stop_count:
                    break
                entry = queue[0]
                if entry[2] is None:
                    heappop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                time_ns = entry[0]
                if time_ns > stop_ns:
                    break
                heappop(queue)
                if controller is not None and queue \
                        and queue[0][0] == time_ns:
                    entry = self._choose(entry)
                fn = entry[2]
                entry[2] = None
                self._now = time_ns
                self.events_processed += 1
                fn()
                if triggers:
                    while triggers and \
                            triggers[0][0] <= self.events_processed:
                        _count, _seq, trigger_fn = heappop(triggers)
                        trigger_fn()
            if until_ns is not None and self._now < until_ns:
                target = until_ns
                head = self._next_live_time()
                if head is not None:
                    target = min(target, head)
                if target > self._now:
                    self._now = target
            self._check_drained()
        finally:
            self._running = False

    def skip_to(self, delay_ns: float) -> bool:
        """Fire the event ``delay_ns`` from now inline, if it would be next.

        A callback that ends by posting a continuation ``delay_ns``
        ahead may call this instead: on True the clock has moved to
        ``now + delay_ns`` and the continuation counts as processed, so
        the caller runs it at once. That is the event :meth:`run` would
        have popped next when all of these hold:

        * a :meth:`run` is active;
        * no queued entry, live or tombstoned, is due at or before the
          new time (an equal time was posted earlier, so fires first);
        * the new time is within the run's ``until_ns``;
        * the run's ``max_events`` budget admits one more event;
        * no :meth:`at_event_count` trigger is due by that event.

        A skipped event never ties with another, so a schedule
        controller sees the same decision points either way.
        """
        time_ns = self._now + delay_ns
        queue = self._queue
        if not self._running or (queue and queue[0][0] <= time_ns) \
                or time_ns > self._stop_ns \
                or self.events_processed >= self._stop_count:
            return False
        triggers = self._count_triggers
        if triggers and triggers[0][0] <= self.events_processed + 1:
            return False
        self._now = time_ns
        self.events_processed += 1
        return True

    def _choose(self, head: list) -> list:
        """Let the controller pick among the live entries tied with the
        popped ``head``; the others go back with their seq, so posting
        order still breaks the next tie. Every such pick is a recorded
        decision point; tombstoned ties are dropped."""
        queue = self._queue
        time_ns = head[0]
        batch = [head]
        while queue and queue[0][0] == time_ns:
            entry = heapq.heappop(queue)
            if entry[2] is None:
                self._cancelled_in_queue -= 1
                continue
            batch.append(entry)
        if len(batch) == 1:
            return head
        chosen = batch.pop(self.controller.choose("event", len(batch)))
        for entry in batch:
            heapq.heappush(queue, entry)
        return chosen

    def _check_drained(self) -> None:
        """Run the deadlock detector when the queue has fully drained.

        Only a *true* drain counts: after a ``max_events`` or
        ``until_ns`` stop, pending events may still wake blocked
        threads, so the detector stays quiet.
        """
        if self.deadlock_detector is not None \
                and self._next_live_time() is None:
            self.deadlock_detector()

    def _next_live_time(self) -> Optional[float]:
        """Timestamp of the earliest non-cancelled queued event.

        Discards tombstoned heads with the same bookkeeping ``run()``
        inlines, so ``_cancelled_in_queue`` stays
        exact no matter how often the clamp path re-enters here between
        cancels and prunes (see
        ``tests/sim/test_engine.py::test_clamp_cancel_interleaving``).
        """
        queue = self._queue
        while queue:
            if queue[0][2] is None:
                heapq.heappop(queue)
                self._cancelled_in_queue -= 1
                continue
            return queue[0][0]
        return None

    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return len(self._queue) - self._cancelled_in_queue

    def __repr__(self) -> str:
        return f"<Engine now={self._now:.1f} pending={self.pending()}>"
