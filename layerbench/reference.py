"""A host-speed clock: a background thread that keeps timing a fixed task.

Shared machines change speed by tens of percent, and not only over tens of
seconds: on a 2-CPU VM the time of one fixed task flips between two levels
(about 0.08 and 0.12 ms for :func:`reference_task`) several times a
second. Timing the task before and after a 300 ms point misses most of
that, so :class:`HostClock` samples it *during* every point instead. Its
thread sleeps :data:`PERIOD_S`, then runs the task once while holding the
GIL (so the measured code pauses meanwhile), and records when the sample
started and how long it took. While the clock runs, the interpreter's
switch interval is :data:`SWITCH_INTERVAL_S`, so that a waking sampler
gets the GIL within a millisecond rather than five.

:meth:`HostClock.scale` turns the samples that fall inside a span into
the factor that rescales the span's host time to a host that runs the
task in exactly :data:`REFERENCE_NS`: the mean over those samples of
``REFERENCE_NS / duration``, i.e. the host's mean speed over the span
relative to that nominal one.

The task mixes what the simulator spends its time on (a heap of
timestamped events, generator resumes, slotted objects, dict updates), so
a host slowdown moves both alike. It imports nothing from ``repro``, so
no change to the simulator can move it.
"""

from __future__ import annotations

import bisect
import heapq
import sys
import threading
import time
from typing import List

#: nominal duration of :func:`reference_task` (between its fast and slow
#: levels between points on a 2-CPU Xeon VM); rescaled times are host
#: times on a host this fast
REFERENCE_NS = 100_000

_EVENTS = 100

#: sleep between samples; with the GIL hand-off a sample is taken every
#: 4-5 ms, which costs the measured code about 3% of its time. On a
#: 2-CPU Xeon VM, sampling every 16 ms instead left a point's rescaled
#: time 6% (standard deviation) from pass to pass, every 4.5 ms 4%
PERIOD_S = 0.003
SWITCH_INTERVAL_S = 0.001


class _Event:
    __slots__ = ("time", "target", "value")

    def __init__(self, time_ns: int, target: int):
        self.time = time_ns
        self.target = target
        self.value = 0


def _accumulator(offset: int):
    total = 0
    while True:
        total += yield total + offset


def reference_task() -> int:
    """Deterministic work of a fixed size; returns a checksum."""
    heap = []
    table = {}
    resumers = [_accumulator(k) for k in range(16)]
    for resumer in resumers:
        next(resumer)
    checksum = 0
    for seq in range(_EVENTS):
        event = _Event((seq * 7919) % 1000, seq & 15)
        heapq.heappush(heap, (event.time, seq, event))
        table[seq & 255] = event
        if len(heap) > 48:
            _time, _seq, due = heapq.heappop(heap)
            due.value = resumers[due.target].send(due.time)
            checksum += due.value + len(table)
    return checksum


class HostClock:
    """Samples the host's speed from a daemon thread between
    :meth:`start` and :meth:`stop`; see the module doc."""

    def __init__(self):
        #: start of each sample and its duration, in ``perf_counter_ns``
        self._starts: List[int] = []
        self._durations: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="host-clock")
        self._switch_interval = sys.getswitchinterval()

    def _sample(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter_ns()
            reference_task()
            duration = time.perf_counter_ns() - start
            self._durations.append(duration)
            self._starts.append(start)
            time.sleep(PERIOD_S)

    def start(self) -> "HostClock":
        """Start sampling; returns once the first sample is in."""
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._thread.start()
        while not self._starts:
            time.sleep(0.001)
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch_interval)

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Mean of ``REFERENCE_NS / duration`` over the samples started in
        ``[start_ns, end_ns]``; a span with fewer than two also uses the
        sample right before it and the one right after it."""
        count = len(self._starts)       # the thread only appends
        starts, durations = self._starts[:count], self._durations[:count]
        first = bisect.bisect_left(starts, start_ns)
        last = bisect.bisect_right(starts, end_ns)
        if last - first < 2:
            first, last = max(0, first - 1), min(count, last + 1)
        if first == last:
            raise RuntimeError("the host clock has taken no sample yet")
        window = durations[first:last]
        return sum(REFERENCE_NS / d for d in window) / len(window)
