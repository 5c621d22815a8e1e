"""Discrete-event simulation engine.

The engine owns the global simulated clock (nanoseconds, float) and a
priority queue of timestamped callbacks. Everything above it — CPUs,
scheduler, IPC blocking, disk I/O — is expressed as events posted here.

Determinism: events at equal timestamps fire in posting order (a
monotonically increasing sequence number breaks ties), so simulations are
fully reproducible.

Hot-path notes (``benchmarks/test_engine_micro.py`` keeps the floor):

* :meth:`Event.__lt__` compares fields directly instead of building two
  tuples per heap comparison;
* :meth:`Engine.run` inlines the pop/fire loop and skips the
  count-trigger heap peek entirely while no triggers are armed;
* popped events are recycled through a freelist when — and only when —
  no outside reference to the handle survives (checked via
  ``sys.getrefcount``), cutting allocator churn in long OLTP runs
  without ever letting a stale handle cancel a recycled event.
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.trace.tracer import NULL_TRACER

#: recycled-Event pool cap; beyond this, retired events go to the GC
_FREELIST_MAX = 512


class Event:
    """A scheduled callback. Returned by :meth:`Engine.post` for cancelling."""

    __slots__ = ("time", "seq", "fn", "cancelled", "popped")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.popped = False

    def __lt__(self, other: "Event") -> bool:
        # heapq calls this O(log n) times per push/pop; comparing fields
        # directly avoids allocating two tuples per comparison
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.1f} seq={self.seq} {state}>"


class Engine:
    """Event queue + simulated clock."""

    def __init__(self):
        self._queue: list[Event] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        #: cancelled events still sitting in the heap (pruned lazily)
        self._cancelled_in_queue = 0
        self.events_processed = 0
        #: (count, seq, fn) heap fired when events_processed reaches count
        self._count_triggers: list = []
        #: retired Event objects awaiting reuse (see :meth:`_retire`)
        self._freelist: list[Event] = []
        #: span/counter recorder; NULL_TRACER unless a TraceSession (or a
        #: caller) installs a live repro.trace.Tracer
        self.tracer = NULL_TRACER
        #: schedule-exploration hook (repro.check.ScheduleController);
        #: when set, run() routes through _run_controlled so every
        #: same-timestamp tie-break becomes a recorded decision point.
        #: None keeps the inlined hot loop below completely untouched.
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

    def post(self, delay_ns: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn()`` to run ``delay_ns`` from now.

        Events posted for the same timestamp fire in posting order.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot post event in the past ({delay_ns})")
        return self.post_at(self._now + delay_ns, fn)

    def post_at(self, time_ns: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn()`` at absolute simulated time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot post event at {time_ns} before now ({self._now})"
            )
        if self._freelist:
            event = self._freelist.pop()
            event.time = time_ns
            event.seq = self._seq
            event.fn = fn
            event.cancelled = False
            event.popped = False
        else:
            event = Event(time_ns, self._seq, fn)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

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

    def cancel(self, event: Event) -> None:
        """Cancel a pending event; cancelling twice is harmless.

        Cancelled events stay in the heap until popped, but once they
        outnumber half the queue the heap is rebuilt without them — long
        runs that cancel heavily (timeouts that rarely fire) would
        otherwise grow the queue without bound.
        """
        if event.cancelled or event.popped:
            return
        event.cancelled = True
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
        Pruned events are not recycled: their handles are typically
        still referenced by whoever cancelled them.
        """
        self._queue[:] = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0

    def _retire(self, event: Event) -> None:
        """Drop a popped event; recycle it when provably unreferenced.

        Reusing an Event whose handle somebody still holds would let a
        stale ``cancel()`` kill an unrelated future event, so an event
        only enters the freelist when the caller's local variable, this
        parameter and ``getrefcount``'s own argument are the only
        references left (CPython refcounting makes that check exact).
        """
        event.fn = None
        if len(self._freelist) < _FREELIST_MAX and getrefcount(event) <= 3:
            self._freelist.append(event)

    def _pop(self) -> Event:
        event = heapq.heappop(self._queue)
        event.popped = True
        if event.cancelled:
            self._cancelled_in_queue -= 1
        return event

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
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        try:
            if self.controller is not None:
                self._run_controlled(until_ns, max_events)
                return
            # local aliases for the hot loop; _prune() and
            # at_event_count() mutate these lists in place, never rebind
            queue = self._queue
            triggers = self._count_triggers
            heappop = heapq.heappop
            processed = 0
            while queue:
                if max_events is not None and processed >= max_events:
                    break
                event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    event.popped = True
                    self._cancelled_in_queue -= 1
                    self._retire(event)
                    continue
                if until_ns is not None and event.time > until_ns:
                    break
                heappop(queue)
                event.popped = True
                self._now = event.time
                self.events_processed += 1
                fn = event.fn
                self._retire(event)
                fn()
                processed += 1
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

    def _check_drained(self) -> None:
        """Run the deadlock detector when the queue has fully drained.

        Only a *true* drain counts: after a ``max_events`` or
        ``until_ns`` stop, pending events may still wake blocked
        threads, so the detector stays quiet.
        """
        if self.deadlock_detector is not None \
                and self._next_live_time() is None:
            self.deadlock_detector()

    def _run_controlled(self, until_ns: Optional[float],
                        max_events: Optional[int]) -> None:
        """The :meth:`run` loop with schedule exploration enabled.

        Semantically identical to the inlined hot loop except that when
        several live events share the earliest timestamp, the installed
        controller picks which one fires — every such tie-break is a
        recorded decision point. With a baseline controller (always
        picks 0) the event order is exactly the hot loop's seq order,
        which is what makes schedule 0 reproduce the untouched run.
        """
        queue = self._queue
        triggers = self._count_triggers
        heappop = heapq.heappop
        heappush = heapq.heappush
        controller = self.controller
        processed = 0
        while queue:
            if max_events is not None and processed >= max_events:
                break
            head = queue[0]
            if head.cancelled:
                heappop(queue)
                head.popped = True
                self._cancelled_in_queue -= 1
                self._retire(head)
                continue
            if until_ns is not None and head.time > until_ns:
                break
            # gather every live event at the head timestamp: each is a
            # legal next step under the simulated-time semantics
            batch = [heappop(queue)]
            now_ns = batch[0].time
            while queue and queue[0].time == now_ns:
                event = heappop(queue)
                if event.cancelled:
                    event.popped = True
                    self._cancelled_in_queue -= 1
                    self._retire(event)
                    continue
                batch.append(event)
            if len(batch) > 1:
                choice = controller.choose("event", len(batch))
                event = batch.pop(choice)
                for other in batch:
                    heappush(queue, other)  # seq preserved: still stable
            else:
                event = batch[0]
            event.popped = True
            self._now = now_ns
            self.events_processed += 1
            fn = event.fn
            self._retire(event)
            fn()
            processed += 1
            while triggers and triggers[0][0] <= self.events_processed:
                _count, _seq, trigger_fn = heappop(triggers)
                trigger_fn()
        if until_ns is not None and self._now < until_ns:
            target = until_ns
            head_time = self._next_live_time()
            if head_time is not None:
                target = min(target, head_time)
            if target > self._now:
                self._now = target
        self._check_drained()

    def _next_live_time(self) -> Optional[float]:
        """Timestamp of the earliest non-cancelled queued event.

        Discards cancelled heads through ``_pop``/``_retire`` (the same
        bookkeeping ``run()`` inlines), so ``_cancelled_in_queue`` stays
        exact no matter how often the clamp path re-enters here between
        cancels and prunes (see
        ``tests/sim/test_engine.py::test_clamp_cancel_interleaving``).
        """
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                self._retire(self._pop())
                continue
            return head.time
        return None

    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return len(self._queue) - self._cancelled_in_queue

    def __repr__(self) -> str:
        return f"<Engine now={self._now:.1f} pending={self.pending()}>"
