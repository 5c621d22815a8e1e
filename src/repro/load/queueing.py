"""Admission control and request deadlines for the load harness.

Two queueing pieces, one per traffic mode:

* :class:`RequestQueue` (open loop) — the bounded accept queue between
  the arrival processes and the pool of persistent runner threads.
  Policy ``"shed"`` drops an arrival when ``depth`` requests are
  already pending (M/M/c/K-style loss); ``"block"`` always enqueues,
  so overload shows up as unbounded queueing delay instead of drops.
* :class:`AdmissionGate` (closed loop) — a bounded in-flight counter
  the client threads pass through. ``"shed"`` drops on a full gate,
  ``"block"`` waits FIFO for a slot.

:func:`with_deadline` bounds any transport interaction in simulated
time: if the sub-generator has not finished when the deadline fires,
the waiting thread is woken with :class:`RequestTimeout` injected at
its next effect boundary and a transport-specific cleanup unhooks it
from whatever wait queue it died in. This is what keeps a killed
worker (PR-2 fault injector) from wedging the pool: its in-flight
requests fail, their runners move on to the next arrival, and closed
clients release their gate slot in ``finally``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import DipcError, KernelError, ProtectionFault

#: failures a request may observe without crashing its thread: kernel
#: errno-style errors (EPIPE, ECONNRESET, timeouts, full buffers),
#: dIPC faults (callee killed mid-call) and injected protection
#: faults — anything else is a harness bug and propagates
LOAD_SURVIVABLE = (KernelError, DipcError, ProtectionFault)

POLICIES = ("shed", "block")


class RequestTimeout(KernelError):
    """A load request exceeded its deadline (dead worker, full queue)."""


class RequestQueue:
    """Bounded FIFO between open-loop arrivals and the runner pool."""

    def __init__(self, kernel, *, depth: int, policy: str):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"unknown queue policy {policy!r}")
        self.kernel = kernel
        self.depth = depth
        self.policy = policy
        self.pending: Deque = deque()
        self.enqueued = 0
        self.shed = 0
        self.peak_depth = 0
        self.closed = False
        self._waiters: Deque = deque()

    def put(self, item) -> bool:
        """Offer one arrival (plain function: the traffic source never
        blocks — that is what makes the loop *open*). Returns False if
        the arrival was shed."""
        if self.policy == "shed" and len(self.pending) >= self.depth:
            self.shed += 1
            return False
        self.pending.append(item)
        self.enqueued += 1
        if len(self.pending) > self.peak_depth:
            self.peak_depth = len(self.pending)
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.is_done:
                self.kernel.wake(waiter)
                break
        return True

    def close(self) -> None:
        """No more arrivals: runners drain the backlog, then exit."""
        self.closed = True
        for waiter in list(self._waiters):
            if not waiter.is_done:
                self.kernel.wake(waiter)
        self._waiters.clear()

    def get(self, thread):
        """Sub-generator: pop the next request; None once closed and
        drained. Re-checks after every wake (wakes are level-triggered
        and may be spurious) and always unhooks itself, so a runner
        killed mid-wait never leaves a stale queue entry."""
        while not self.pending:
            if self.closed:
                return None
            self._waiters.append(thread)
            try:
                yield thread.block("load-queue")
            finally:
                try:
                    self._waiters.remove(thread)
                except ValueError:
                    pass
        return self.pending.popleft()


class AdmissionGate:
    """Bounded in-flight counter with shed/block backpressure."""

    def __init__(self, kernel, *, depth: int, policy: str):
        if depth < 1:
            raise ValueError("gate depth must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"unknown admission policy {policy!r}")
        self.kernel = kernel
        self.depth = depth
        self.policy = policy
        self.in_flight = 0
        self.peak_in_flight = 0
        self.admitted = 0
        self.shed = 0
        self._waiters: Deque = deque()

    def admit(self, thread):
        """Sub-generator: take a slot; returns True when admitted.

        Under ``"shed"`` a full gate returns False immediately; under
        ``"block"`` the thread waits FIFO, re-checking after every wake
        and unhooking itself on any exit path.
        """
        # admission check: a futex-class user/kernel handshake
        yield from thread.kwork(thread.costs.FUTEX_WAIT_WORK)
        if self.in_flight < self.depth:
            return self._take()
        if self.policy == "shed":
            self.shed += 1
            return False
        while self.in_flight >= self.depth:
            self._waiters.append(thread)
            try:
                yield thread.block("load-gate")
            finally:
                try:
                    self._waiters.remove(thread)
                except ValueError:
                    pass
        return self._take()

    def _take(self) -> bool:
        self.in_flight += 1
        self.admitted += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        return True

    def release(self) -> None:
        """Free a slot and wake the next live waiter (plain function so
        it is callable from ``finally`` without yielding)."""
        if self.in_flight <= 0:
            raise KernelError("gate release without admit")
        self.in_flight -= 1
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.is_done:
                self.kernel.wake(waiter)
                return


def with_deadline(thread, subgen, deadline_ns: float,
                  cleanup: Optional[Callable[[], None]] = None):
    """Sub-generator: run ``subgen`` with a simulated-time deadline.

    On expiry ``cleanup()`` (if given) unhooks the thread from the
    transport's wait queues, then :class:`RequestTimeout` is injected
    at the thread's next effect boundary. If ``subgen`` finishes first
    the timer is cancelled in the same engine step, so a completed
    request can never observe its own stale timeout.
    """
    kernel = thread.kernel
    fired = [False]

    def _expire():
        fired[0] = True
        if cleanup is not None:
            cleanup()
        if not thread.is_done and thread.pending_exception is None:
            thread.pending_exception = RequestTimeout(
                f"request on {thread.name} exceeded "
                f"{deadline_ns:.0f}ns deadline")
            kernel.wake(thread)

    timer = kernel.engine.post(deadline_ns, _expire)
    try:
        result = yield from subgen
    finally:
        if not fired[0]:
            kernel.engine.cancel(timer)
    return result
