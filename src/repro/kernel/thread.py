"""Kernel threads.

A :class:`Thread` wraps a generator body and the state the kernel and
CODOMs need: scheduling state, CPU affinity, the per-thread CODOMs
context (capability registers + DCS), and — once dIPC is active — the
kernel control stack and per-process identifiers managed by
``repro.core``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Generator, List, Optional

from repro.codoms.access import CodomsContext
from repro.errors import SimulationError
from repro.kernel.effects import BlockThread, YieldCPU
from repro.sim.stats import KERNEL, SYSCALL, TRAMPOLINE, USER, Block

_tid_counter = itertools.count(1)

NEW = "new"
RUNNABLE = "runnable"
RUNNING = "running"
BLOCKED = "blocked"
DONE = "done"


class Thread:
    """One schedulable thread, bound to an owning process."""

    def __init__(self, kernel, process, body: Callable[["Thread"], Generator],
                 *, name: str = "", pin: Optional[int] = None,
                 daemon: bool = False):
        self.kernel = kernel
        self.process = process
        self.tid = next(_tid_counter)
        self.name = name or f"{process.name}/t{self.tid}"
        self.pin = pin
        #: daemon threads (server loops that block forever by design)
        #: are exempt from deadlock detection (repro.check)
        self.daemon = daemon
        #: why the thread last blocked (BlockThread reason or handoff
        #: target), recorded by the scheduler for deadlock diagnostics
        self.block_reason: Optional[str] = None
        self.state = NEW
        self.gen = body(self)
        self.cpu = None
        self.last_cpu_index = pin if pin is not None else 0
        #: when the thread last ran (cache-hotness for the scheduler)
        self.last_ran = None
        #: value delivered by the next wake(), handed to the generator
        self.next_send_value = None
        #: remainder of a Charge split at a preemption boundary
        self.pending_charge = None
        self.slice_used = 0.0
        #: per-thread CODOMs architectural state
        self.codoms = CodomsContext(tag=process.default_tag)
        #: process the thread is currently accounted to — changes during a
        #: cross-process dIPC call (track_process_call, §6.1.2)
        self.current_process = process
        #: exception to inject at the next effect boundary (KCS unwinding
        #: after a process kill, §5.2.1)
        self.pending_exception = None
        #: set when the scheduler must destroy the thread outright
        self.killed = False
        #: True for the callee half of a §5.4 timeout split; the
        #: invariant auditor checks every split half was reaped
        self.is_split_half = False
        #: dIPC kernel control stack, installed by repro.core on first use
        self.kcs = None
        #: dIPC per-(thread, process) identifier map (§5.2.1)
        self.per_process_tids = {}
        #: open on-CPU tracing span, owned by the scheduler
        self.run_span = None
        #: dIPC track_process cache-array + tree (§6.1.2), set by repro.core
        self.track_state = None
        self.result = None
        self.exception: Optional[BaseException] = None
        self._join_waiters: List["Thread"] = []
        self.on_exit: List[Callable[["Thread"], None]] = []
        process.threads.append(self)

    # -- effect helpers (used by bodies with `yield` / `yield from`) -----------

    def compute(self, ns: float):
        """Sub-generator: user-mode computation (block 1).

        Charges through ``Scheduler.charge`` and yields only when the
        charge cannot complete inside the running body (see
        :mod:`repro.kernel.effects`).
        """
        effect = self.kernel.scheduler.charge(self, ns, USER)
        if effect is not None:
            yield effect

    def kwork(self, ns: float, block: Block = KERNEL):
        """Sub-generator: kernel/privileged-mode computation."""
        effect = self.kernel.scheduler.charge(self, ns, block)
        if effect is not None:
            yield effect

    def block(self, reason: str = "") -> BlockThread:
        return BlockThread(reason)

    def yield_cpu(self) -> YieldCPU:
        return YieldCPU()

    def syscall(self, work_ns: float = 0.0):
        """Sub-generator: the full syscall path of Figure 2.

        Charges block 2 (syscall + 2×swapgs + sysret), block 3 (dispatch
        trampoline) and ``work_ns`` of block 4.
        """
        costs = self.kernel.costs
        charge = self.kernel.scheduler.charge
        effect = charge(self, costs.SYSCALL_HW, SYSCALL)
        if effect is not None:
            yield effect
        effect = charge(self, costs.SYSCALL_TRAMPOLINE, TRAMPOLINE)
        if effect is not None:
            yield effect
        if work_ns > 0:
            effect = charge(self, work_ns, KERNEL)
            if effect is not None:
                yield effect

    def sleep(self, ns: float):
        """Sub-generator: block for ``ns`` of simulated time."""
        self.kernel.machine.engine.post(ns, lambda: self.kernel.wake(self))
        yield BlockThread("sleep")

    def join(self, other: "Thread"):
        """Sub-generator: block until ``other`` exits; returns its result."""
        if other.state != DONE:
            other._join_waiters.append(self)
            yield BlockThread(f"join:{other.name}")
        if other.exception is not None:
            raise other.exception
        return other.result

    # -- introspection -----------------------------------------------------------

    def now(self) -> float:
        return self.kernel.machine.engine.now()

    @property
    def costs(self):
        return self.kernel.costs

    @property
    def is_done(self) -> bool:
        return self.state == DONE

    def _notify_exit(self) -> None:
        for waiter in self._join_waiters:
            self.kernel.wake(waiter)
        self._join_waiters.clear()
        for callback in self.on_exit:
            callback(self)

    def __repr__(self) -> str:
        return f"<Thread {self.name} tid={self.tid} {self.state}>"
