"""The kernel façade: processes, threads, wakes, fork/exec, CODOMs wiring.

This is the "Linux 3.9.10 + KML" of the reproduction. It owns the
machine, physical memory, the scheduler, and the CODOMs plumbing that
dIPC-enabled processes share (one page table, one APL registry, the
global virtual address space, per-CPU APL caches).
"""

from __future__ import annotations

import itertools
from typing import Callable, Generator, List, Optional

from repro import units
from repro.codoms.access import AccessEngine
from repro.codoms.apl import APLRegistry
from repro.codoms.aplcache import APLCache
from repro.codoms.tags import TagAllocator
from repro.errors import DeadProcessError
from repro.hw.machine import Machine
from repro.kernel.libraries import LibraryRegistry
from repro.kernel.process import Process
from repro.kernel.scheduler import Scheduler
from repro.kernel.thread import Thread
from repro.mem.addrspace import AddressSpace
from repro.mem.gvas import GlobalVAS
from repro.mem.pagetable import PageTable
from repro.mem.phys import PhysicalMemory
from repro.session import KERNEL_HOOKS


class Kernel:
    """A booted simulated system."""

    def __init__(self, machine: Optional[Machine] = None, *,
                 num_cpus: int = 4):
        self.machine = machine if machine is not None else Machine(num_cpus)
        self.costs = self.machine.costs
        self.engine = self.machine.engine
        # active sessions instrument every kernel built inside them: a
        # TraceSession records spans, a ChaosSession arms a fault storm,
        # a CheckSession installs its schedule controller + deadlock
        # detector (+ optional storm)
        for session in KERNEL_HOOKS:
            session.attach(self)
        self.phys = PhysicalMemory(total_frames=256 * units.MB
                                   // units.PAGE_SIZE)
        self.scheduler = Scheduler(self)
        #: monotonic process-generation epoch (stamped into KCS frames)
        self._generations = itertools.count(1)
        self.processes: List[Process] = []
        self.crashed_threads: List[Thread] = []
        #: callbacks run after a process is killed (IPC peer-death
        #: notification: pipes flag EPIPE, sockets reset, L4 hangs up)
        self._kill_hooks: List[Callable[[Process], None]] = []

        # -- CODOMs / dIPC shared infrastructure (§5.2, §6.1.3) ------------
        self.tags = TagAllocator()
        self.shared_table = PageTable(self.phys)
        self.shared_space = AddressSpace(self.shared_table)
        self.apls = APLRegistry()
        self.access = AccessEngine(self.shared_space, self.apls,
                                   engine=self.engine)
        self.gvas = GlobalVAS()
        for cpu in self.machine.cpus:
            cpu.apl_cache = APLCache()
        #: dIPC manager, attached lazily by repro.core.runtime
        self.dipc = None
        #: shared libraries with per-process virtual copies (§6.1.3)
        self.libraries = LibraryRegistry(self)

    @property
    def tracer(self):
        """The engine's span/counter recorder (NULL_TRACER when off)."""
        return self.engine.tracer

    # -- process / thread management -----------------------------------------------

    def next_generation(self) -> int:
        """Next process-generation epoch (every Process takes one at
        construction; supervisor rebuilds therefore advance it)."""
        return next(self._generations)

    def spawn_process(self, name: str, *, dipc: bool = False) -> Process:
        """Create a process; ``dipc=True`` loads it into the shared page
        table with a fresh default domain (§5.2)."""
        if dipc:
            tag = self.tags.alloc()
            process = Process(self, name, page_table=self.shared_table,
                              shared_table=True, default_tag=tag)
        else:
            process = Process(self, name, page_table=PageTable(self.phys),
                              shared_table=False)
        self.processes.append(process)
        return process

    def spawn(self, process: Process,
              body: Callable[[Thread], Generator], *,
              name: str = "", pin: Optional[int] = None,
              start: bool = True, daemon: bool = False) -> Thread:
        """Create (and by default start) a thread in ``process``.

        ``daemon=True`` marks server loops that block forever by
        design; the deadlock detector (``repro.check``) ignores them.
        """
        if not process.alive:
            raise DeadProcessError(f"{process.name} has exited")
        thread = Thread(self, process, body, name=name, pin=pin,
                        daemon=daemon)
        if start:
            self.scheduler.start(thread)
        return thread

    def wake(self, thread: Thread, value=None,
             from_thread: Optional[Thread] = None) -> None:
        self.scheduler.wake(thread, value, from_thread)

    def on_process_kill(self,
                        hook: Callable[[Process], None]) -> None:
        """Register a peer-death notification, run after every
        ``kill_process`` (used by the IPC layers for EPIPE/ECONNRESET
        semantics and by the fault injector for bookkeeping)."""
        self._kill_hooks.append(hook)

    def kill_process(self, process: Process, *,
                     exit_code: int = -9) -> None:
        """Terminate a process and all its threads (SIGKILL-style).

        Threads currently executing *in another process* through dIPC are
        unwound by the dIPC fault machinery rather than destroyed
        (§5.2.1); plain threads are cancelled outright. Killing an
        already-dead process is a no-op, so kills arriving in any order
        (caller first, callee first, twice) never unwind a thread twice.
        """
        if not process.alive:
            return
        process.exit(exit_code)
        for thread in list(process.threads):
            if thread.is_done:
                continue
            if self.dipc is not None and self.dipc.thread_is_abroad(thread):
                self.dipc.unwind_on_kill(thread, process)
            else:
                self.scheduler.cancel(thread)
        if self.dipc is not None:
            # threads from *other* processes currently executing inside the
            # victim (or with it on their call chain) are unwound, not
            # destroyed: their callers may still be alive (§5.2.1); a
            # thread of the victim itself is never in this set, so it
            # cannot be unwound a second time
            for thread in self.dipc.threads_visiting(process):
                self.dipc.unwind_on_kill(thread, process)
            # the injected unwinds above are asynchronous (delivered at
            # each thread's next effect boundary); prune the victim's KCS
            # frames synchronously so no audit — and no reply racing a
            # pool rebuild — can ever observe a frame naming the corpse.
            # Must run after the unwind_on_kill loops: threads_visiting
            # keys off KCS contents, which this sweep erases.
            self.dipc.unwind_dead(process)
            # revoke every grant into or out of the victim's domains so
            # a replacement process can never be reached through a stale
            # APL edge (A9: no dangling resources after death)
            self.dipc.reclaim_process(process)
        for hook in list(self._kill_hooks):
            hook(process)

    def unwind_dead(self, process) -> int:
        """Re-run the kill-time KCS sweep for an already-dead process;
        returns the number of frames pruned. The supervisor calls this
        immediately before its pre-rebuild reclamation audit as a
        belt-and-braces pass (a clean system prunes nothing)."""
        if self.dipc is None:
            return 0
        repaired = self.dipc.unwind_dead(process)
        return sum(len(frames) for _thread, frames in repaired)

    # -- fork / exec (§6.1.3 backwards compatibility) ----------------------------------

    def fork(self, parent: Process) -> Process:
        """POSIX fork: COW copy; dIPC is disabled in the child until exec."""
        # the child gets a private COW copy of the parent's pages; a dIPC
        # parent's child leaves the global address space until it execs
        table = parent.page_table.clone_for_fork()
        child = Process(self, f"{parent.name}-child", page_table=table,
                        shared_table=False, default_tag=None)
        child.fdtable = parent.fdtable.clone()
        child.uid = parent.uid
        child.dipc_enabled = False  # "temporarily disables dIPC" (§6.1.3)
        self.processes.append(child)
        return child

    def exec_process(self, process: Process, name: str, *,
                     pic: bool = True) -> Process:
        """POSIX exec: with a PIC executable, dIPC is re-enabled and the
        image is loaded at a unique global virtual address (§6.1.3)."""
        process.name = name
        if pic:
            process.page_table = self.shared_table
            process.space = AddressSpace(self.shared_table)
            process.uses_shared_table = True
            process.default_tag = self.tags.alloc()
            process.domain_tags.add(process.default_tag)
            process.dipc_enabled = True
        return process

    def enable_deadlock_detection(self) -> None:
        """Raise :class:`repro.errors.DeadlockError` whenever the event
        queue drains with live non-daemon threads still blocked, instead
        of returning from ``run()`` as if nothing were wrong."""
        from repro.check.deadlock import install_detector
        install_detector(self)

    # -- running ---------------------------------------------------------------------------

    def run(self, until_ns: Optional[float] = None) -> None:
        self.engine.run(until_ns=until_ns)
        self.machine.flush_idle()

    def run_all(self) -> None:
        self.run()

    def check(self) -> None:
        """Raise the first unobserved simulated-thread crash, if any."""
        for thread in self.crashed_threads:
            if thread.exception is not None:
                raise thread.exception

    # -- small syscall used by the micro-benchmarks --------------------------------------------

    def syscall_nop(self, thread: Thread):
        """Sub-generator: an empty system call (getpid-style, ~34 ns)."""
        yield from thread.syscall(self.costs.SYSCALL_MINWORK)

    def __repr__(self) -> str:
        return (f"<Kernel cpus={self.machine.num_cpus} "
                f"procs={len(self.processes)}>")
