"""Futexes: the kernel sleep/wake primitive under POSIX semaphores (§2.2).

``Futex.wait``/``Futex.wake`` charge the Figure-2 syscall-path blocks and
the futex kernel work the cost model decomposes; sleeping and waking go
through the scheduler so cross-CPU wakes pay the IPI path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.kernel.thread import Thread


class Futex:
    """A single kernel wait queue with a user-space counter."""

    def __init__(self, kernel, value: int = 0):
        self.kernel = kernel
        self.value = value
        self._waiters: Deque[Thread] = deque()
        self.wait_count = 0
        self.wake_count = 0

    def wait(self, thread: Thread):
        """Sub-generator: FUTEX_WAIT — block while the value is zero,
        then atomically consume one unit."""
        costs = self.kernel.costs
        tracer = self.kernel.tracer
        span = tracer.begin("futex.wait", "ipc", thread=thread) \
            if tracer.enabled else None
        while True:
            yield from thread.syscall(0)
            yield from thread.kwork(costs.FUTEX_WAIT_WORK)
            self.wait_count += 1
            if self.value > 0:
                self.value -= 1
                if span is not None:
                    tracer.end(span)
                return
            self._waiters.append(thread)
            yield thread.block("futex")
            yield from thread.kwork(costs.FUTEX_RESUME)
            if self.value > 0:
                self.value -= 1
                if span is not None:
                    tracer.end(span)
                return
            # lost a race with another waiter: go around again

    def wake(self, thread: Thread, count: int = 1):
        """Sub-generator: FUTEX_WAKE — add a unit and wake waiters."""
        costs = self.kernel.costs
        tracer = self.kernel.tracer
        span = tracer.begin("futex.wake", "ipc", thread=thread) \
            if tracer.enabled else None
        yield from thread.syscall(0)
        yield from thread.kwork(costs.FUTEX_WAKE_WORK)
        self.value += count
        self.wake_count += 1
        woken = 0
        while self._waiters and woken < count:
            waiter = self._waiters.popleft()
            if waiter.is_done:
                continue
            self.kernel.wake(waiter, from_thread=thread)
            woken += 1
        if span is not None:
            tracer.end(span, args={"woken": woken})

    def wake_from_event(self, count: int = 1) -> None:
        """Wake from interrupt/event context (no syscall, no waker CPU)."""
        self.value += count
        woken = 0
        while self._waiters and woken < count:
            waiter = self._waiters.popleft()
            if waiter.is_done:
                continue
            self.kernel.wake(waiter)
            woken += 1

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)
