"""The effect protocol between simulated thread bodies and the scheduler.

A thread body is a Python generator. It ``yield``s effect objects; the
scheduler interprets them, advances simulated time on the thread's CPU,
and resumes the generator with a value when appropriate:

* :class:`Charge` — consume CPU time, attributed to a Figure-2 block;
* :class:`BlockThread` — deschedule until someone calls ``thread.wake``;
  the value passed to ``wake`` becomes the result of the ``yield``;
* :class:`YieldCPU` — voluntarily move to the back of the runqueue.

Composite operations (system calls, IPC primitives, dIPC proxies) are
sub-generators used with ``yield from``, so a blocking semaphore wait is
written exactly like straight-line code.

Bodies charge CPU time with ``yield from t.compute(ns)``,
``t.kwork(ns, block)`` or ``t.syscall(work_ns)``. These sub-generators
charge through ``Scheduler.charge`` from inside the body's own frame:
when the engine can fast-forward to the charge's end, the body keeps
running without suspending its ``yield from`` chain; otherwise they
yield :data:`SUSPENDED` (the continuation is already posted) or a
:class:`Charge`. A bare ``yield Charge(...)`` still works and takes the
posted path.
"""

from __future__ import annotations

from repro.sim.stats import Block


class Charge:
    """Consume ``ns`` of CPU time attributed to ``block``."""

    __slots__ = ("ns", "block")

    def __init__(self, ns: float, block: Block = Block.USER):
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        self.ns = ns
        self.block = block

    def __repr__(self) -> str:
        return f"<Charge {self.ns}ns {self.block.name}>"


class BlockThread:
    """Deschedule the thread until ``thread.wake(value)`` is called.

    ``reason`` is a debugging label ("futex", "pipe-read", "disk", ...).
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = ""):
        self.reason = reason

    def __repr__(self) -> str:
        return f"<BlockThread {self.reason}>"


class YieldCPU:
    """Voluntarily yield the CPU (sched_yield)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<YieldCPU>"


class Handoff:
    """Block this thread and switch the CPU *directly* to another thread,
    delivering ``value`` — L4's direct thread switch, bypassing the
    general scheduler pass (the reason L4 IPC beats POSIX primitives in
    Figure 2). The target must be blocked and runnable on this CPU."""

    __slots__ = ("to", "value")

    def __init__(self, to, value=None):
        self.to = to
        self.value = value

    def __repr__(self) -> str:
        return f"<Handoff to={self.to.name}>"


class _Suspended:
    """Type of :data:`SUSPENDED`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<SUSPENDED>"


#: yielded by a body whose inline charge (``Scheduler.charge``) already
#: posted its continuation; the scheduler just ends the engine event
SUSPENDED = _Suspended()
