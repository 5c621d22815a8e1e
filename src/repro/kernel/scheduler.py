"""Per-CPU scheduler with runqueues, timeslice preemption and IPI wakes.

Time conservation invariant: every nanosecond of every CPU's wall-clock
is attributed exactly once — to a :class:`Block` while work (or a context
switch) occupies the CPU, or to ``Block.IDLE`` while it sits in the idle
loop. That is what makes Figure 1/2/8's breakdowns trustworthy.

Wake paths, matching §2.2's cost analysis:

* waking a thread onto a **busy** CPU just enqueues it; it runs after a
  context switch (blocks 5+6) at the next scheduling point;
* waking an **idle remote** CPU costs an IPI (send + flight + handle)
  plus pulling the CPU out of the idle loop (``IDLE_WAKE_SCHED``) — the
  expensive path that makes cross-CPU IPC slow;
* event-context wakes (timers, disk completions) of an idle CPU charge
  only the idle-exit scheduling cost.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Optional, Set

from repro.errors import SimulationError
from repro.kernel.effects import (SUSPENDED, BlockThread, Charge,
                                  Handoff, YieldCPU)
from repro.kernel import thread as thread_mod
from repro.kernel.thread import Thread
from repro.sim.stats import PTSW, SCHED


class Scheduler:
    """Event-driven per-CPU scheduler."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.machine = kernel.machine
        self.engine = kernel.machine.engine
        self.costs = kernel.machine.costs
        self.runqueues: List[deque] = [deque() for _ in self.machine.cpus]
        #: CPUs with a start event in flight (current still None)
        self._claimed: Set[int] = set()
        self.context_switches = 0
        self.preemptions = 0
        self.ipi_wakes = 0
        self.steals = 0
        self.pt_switches = 0
        # _do_charge and _begin_run write the CPU accounts unchecked, so
        # refuse the costs that could bill a negative amount: the jitter
        # factor 1 ± JITTER must stay positive, and PT_SWITCH is billed
        # as it stands
        if not 0 <= self.costs.JITTER < 1:
            raise ValueError(
                f"JITTER must be in [0, 1), got {self.costs.JITTER!r}")
        if self.costs.PT_SWITCH < 0:
            raise ValueError(
                f"PT_SWITCH must be >= 0, got {self.costs.PT_SWITCH!r}")
        #: seeded timing-noise source (JITTER=0 keeps runs exact)
        self._jitter_rng = random.Random(self.costs.JITTER_SEED) \
            if self.costs.JITTER > 0 else None

    # -- public API --------------------------------------------------------------

    def start(self, thread: Thread) -> None:
        """Admit a NEW thread."""
        self.wake(thread)

    def wake(self, thread: Thread, value=None,
             from_thread: Optional[Thread] = None) -> None:
        """Make a blocked/new thread runnable, delivering ``value``."""
        if thread.state in (thread_mod.RUNNING, thread_mod.RUNNABLE):
            return  # already awake: wake is level-triggered here
        if thread.state == thread_mod.DONE:
            return
        thread.next_send_value = value
        index = self._choose_cpu(thread)
        cpu = self.machine.cpus[index]
        waker_cpu = from_thread.cpu if from_thread is not None else None
        if self._cpu_free(index):
            self._claimed.add(index)
            thread.state = thread_mod.RUNNABLE
            if waker_cpu is not None and waker_cpu is not cpu:
                # cross-CPU wake of an idle CPU: the IPI path
                self.ipi_wakes += 1
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.instant(f"ipi:{thread.name}", "sched",
                                   track=f"cpu{waker_cpu.index}",
                                   args={"target_cpu": cpu.index})
                self.machine.send_ipi(
                    waker_cpu, cpu,
                    lambda: self._claimed_start(cpu, thread))
            else:
                self.engine.post(0, lambda: self._claimed_start(cpu, thread))
        else:
            thread.state = thread_mod.RUNNABLE
            self.runqueues[index].append(thread)

    def runnable_count(self) -> int:
        return sum(len(rq) for rq in self.runqueues)

    def charge(self, thread: Thread, ns: float, block):
        """Charge ``ns`` of ``block`` from inside ``thread``'s own body.

        The inline form of a yielded :class:`Charge`, which
        ``Thread.compute``/``kwork``/``syscall`` build on. When
        ``thread`` is the one executing (its generator is running, it is
        RUNNING as its CPU's ``current``, and no kill or unwind waits to
        land at its next effect boundary), :meth:`_do_charge` runs right
        here, so a charge the engine fast-forwards does not suspend and
        resume the body's whole ``yield from`` chain. Returns None when
        the thread keeps running, and :data:`SUSPENDED` when the charge
        posted its continuation (the skip was refused, the charge split
        at the timeslice, or the thread was preempted): the body yields
        it and :meth:`_advance` returns. Otherwise returns
        ``Charge(ns, block)`` for the body to yield, which takes the
        posted path.
        """
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        cpu = thread.cpu
        if cpu is not None and cpu.current is thread \
                and thread.state == thread_mod.RUNNING \
                and thread.gen.gi_running and not thread.killed \
                and thread.pending_exception is None:
            if self._do_charge(cpu, thread, ns, block):
                return None
            return SUSPENDED
        return Charge(ns, block)

    # -- CPU selection ---------------------------------------------------------------

    def _cpu_free(self, index: int) -> bool:
        return (self.machine.cpus[index].current is None
                and index not in self._claimed)

    def _choose_cpu(self, thread: Thread) -> int:
        if thread.pin is not None:
            return thread.pin
        last = thread.last_cpu_index
        if self._cpu_free(last):
            return last
        # cache-hot threads stay on their last CPU even when it is busy
        # (sched_migration_cost): the woken thread queues behind whoever
        # runs there while other CPUs may sit idle — the "temporary
        # imbalance" of §7.4 that synchronous IPC then waits on
        if self._is_cache_hot(thread):
            return last
        for cpu in self.machine.cpus:
            if self._cpu_free(cpu.index):
                return cpu.index
        # least-loaded runqueue; ties keep the thread where it last ran
        def load(i: int) -> tuple:
            return (len(self.runqueues[i]), 0 if i == last else 1, i)
        return min(range(len(self.runqueues)), key=load)

    def _is_cache_hot(self, thread: Thread) -> bool:
        last_ran = thread.last_ran
        if last_ran is None:
            return False
        return (self.engine.now() - last_ran) < \
            self.costs.SCHED_MIGRATION_COST

    # -- running machinery ----------------------------------------------------------------

    def _claimed_start(self, cpu, thread: Thread) -> None:
        self._claimed.discard(cpu.index)
        self._begin_run(cpu, thread, self.costs.IDLE_WAKE_SCHED)

    def _begin_run(self, cpu, thread: Thread, sched_cost: float) -> None:
        """Install ``thread`` on ``cpu``, pay switch costs, then advance."""
        cpu.end_idle(self.engine.now())
        cpu.current = thread
        thread.block_reason = None
        thread.cpu = cpu
        thread.last_cpu_index = cpu.index
        thread.state = thread_mod.RUNNING
        thread.slice_used = 0.0
        account = cpu.account.ns
        total = 0.0
        if sched_cost > 0:
            account[SCHED] += sched_cost
            total += sched_cost
        page_table = thread.process.page_table
        if cpu.percpu.get("page_table") is not page_table:
            # the page-table switch of block 6 (plus, on CODOMs, an APL
            # cache swap — free in hardware, so only the PT cost shows)
            if cpu.percpu.get("page_table") is not None:
                account[PTSW] += self.costs.PT_SWITCH
                total += self.costs.PT_SWITCH
                self.pt_switches += 1
            cpu.percpu["page_table"] = page_table
        tracer = self.engine.tracer
        if tracer.enabled:
            thread.run_span = tracer.begin(
                thread.name, "oncpu", track=f"cpu{cpu.index}",
                args={"tid": thread.tid})
        self.engine.post(total, lambda: self._advance(cpu, thread))

    def _end_run_span(self, thread: Thread) -> None:
        """Close the thread's on-CPU span when it leaves its CPU."""
        span = thread.run_span
        if span is not None:
            self.engine.tracer.end(span)
            thread.run_span = None

    def _dispatch(self, cpu) -> None:
        """The CPU is free: run the next queued thread or go idle."""
        runqueue = self.runqueues[cpu.index]
        cpu.current = None
        if not runqueue:
            stolen = self._steal_for(cpu)
            if stolen is None:
                cpu.begin_idle(self.engine.now())
                return
            self.context_switches += 1
            self.steals += 1
            self._begin_run(cpu, stolen, self.costs.CTX_SWITCH)
            return
        controller = self.engine.controller
        if controller is not None and len(runqueue) > 1:
            # schedule exploration: the ready-queue pick is a decision
            # point — any queued thread is a legal next choice
            choice = controller.choose("runqueue", len(runqueue))
            thread = runqueue[choice]
            del runqueue[choice]
        else:
            thread = runqueue.popleft()
        self.context_switches += 1
        self._begin_run(cpu, thread, self.costs.CTX_SWITCH)

    def _steal_for(self, cpu) -> Optional[Thread]:
        """newidle load balancing: pull a runnable thread from another
        runqueue — but never a cache-hot one (sched_migration_cost)."""
        best = None
        for other in self.machine.cpus:
            if other is cpu:
                continue
            runqueue = self.runqueues[other.index]
            for thread in runqueue:
                if thread.pin is not None:
                    continue
                if self._is_cache_hot(thread):
                    continue
                best = thread
                break
            if best is not None:
                runqueue.remove(best)
                return best
        return None

    def _advance(self, cpu, thread: Thread) -> None:
        """Pull and interpret the thread's next effects.

        Keeps going while each Charge completes inline (see
        :meth:`_do_charge`); every other effect ends the engine event,
        :data:`SUSPENDED` (an inline :meth:`charge` already posted the
        continuation) without further work.
        """
        while True:
            if cpu.current is not thread \
                    or thread.state != thread_mod.RUNNING:
                return  # stale continuation (thread was killed)
            if thread.pending_charge is not None:
                ns, block = thread.pending_charge
                thread.pending_charge = None
                if self._do_charge(cpu, thread, ns, block):
                    continue
                return
            try:
                if thread.killed:
                    effect = thread.gen.throw(
                        _ThreadKilled(f"{thread.name} killed"))
                elif thread.pending_exception is not None:
                    injected = thread.pending_exception
                    thread.pending_exception = None
                    effect = thread.gen.throw(injected)
                else:
                    value = thread.next_send_value
                    thread.next_send_value = None
                    effect = thread.gen.send(value)
            except StopIteration as stop:
                thread.result = stop.value
                self._finish(cpu, thread, None)
                return
            except _ThreadKilled:
                self._finish(cpu, thread, None)
                return
            except BaseException as exc:  # a simulated crash, not a sim bug
                self._finish(cpu, thread, exc)
                return
            if effect is SUSPENDED:
                return
            if isinstance(effect, Charge):
                if self._do_charge(cpu, thread, effect.ns, effect.block):
                    continue
            elif isinstance(effect, BlockThread):
                thread.state = thread_mod.BLOCKED
                thread.block_reason = effect.reason
                thread.cpu = None
                thread.last_ran = self.engine.now()
                self._end_run_span(thread)
                self._dispatch(cpu)
            elif isinstance(effect, Handoff):
                target = effect.to
                if target.state != thread_mod.BLOCKED:
                    self._finish(cpu, thread, SimulationError(
                        f"handoff to non-blocked thread {target.name}"))
                    return
                if target.pin is not None and target.pin != cpu.index:
                    self._finish(cpu, thread, SimulationError(
                        f"handoff to {target.name} pinned to "
                        f"CPU{target.pin}"))
                    return
                thread.state = thread_mod.BLOCKED
                thread.block_reason = f"handoff:{target.name}"
                thread.cpu = None
                thread.last_ran = self.engine.now()
                self._end_run_span(thread)
                target.next_send_value = effect.value
                self._begin_run(cpu, target, 0.0)
            elif isinstance(effect, YieldCPU):
                runqueue = self.runqueues[cpu.index]
                if runqueue:
                    thread.state = thread_mod.RUNNABLE
                    runqueue.append(thread)
                    self._dispatch(cpu)
                else:
                    self.engine.post(0, lambda: self._advance(cpu, thread))
            else:
                self._finish(cpu, thread, TypeError(
                    f"{thread.name} yielded a non-effect: {effect!r}"))
            return

    def _do_charge(self, cpu, thread: Thread, ns: float, block) -> bool:
        """Charge CPU time, splitting at the timeslice for preemption.

        Time is billed to the thread's *current* process — a thread
        executing inside another process via dIPC donates its slice and
        bills the callee (§5.2.1, §6.1.2).

        Returns True when the thread should keep running now: the
        charge's continuation was the next event, so ``Engine.skip_to``
        fired it inline instead of posting ``_after_charge``. Only
        :meth:`_advance` and :meth:`charge` call this, the one for the
        thread it is about to resume and the other from inside that
        thread's running body. Either way what runs next is the thread's
        own continuation (on True) or the end of the engine event, so
        nothing else can run between the skipped post and its pop.

        The CPU account is written in place, not through ``CPU.charge``
        and ``Breakdown.add``, so nothing here rejects a negative
        amount. None can arrive: :meth:`charge` and ``Charge()`` reject
        ``ns < 0``, both parts of a timeslice split are positive, and
        ``__init__`` bounds ``JITTER`` to [0, 1), so the jitter factor
        stays positive.
        """
        billed = thread.current_process
        if self._jitter_rng is not None and ns > 0:
            ns *= 1.0 + self._jitter_rng.uniform(-self.costs.JITTER,
                                                 self.costs.JITTER)
        remaining = self.costs.TIMESLICE - thread.slice_used
        if 0 < remaining < ns and self.runqueues[cpu.index]:
            cpu.account.ns[block] += remaining
            billed.cpu_ns += remaining
            thread.slice_used += remaining
            thread.pending_charge = (ns - remaining, block)
            self.engine.post(remaining, lambda: self._preempt(cpu, thread))
            return False
        cpu.account.ns[block] += ns
        billed.cpu_ns += ns
        thread.slice_used += ns
        if not self.engine.skip_to(ns):
            self.engine.post(ns, lambda: self._after_charge(cpu, thread))
            return False
        # _after_charge's checks, inline
        if cpu.current is not thread or thread.state != thread_mod.RUNNING:
            return False
        if (thread.slice_used >= self.costs.TIMESLICE
                and self.runqueues[cpu.index]):
            self._preempt(cpu, thread)
            return False
        return True

    def _after_charge(self, cpu, thread: Thread) -> None:
        if cpu.current is not thread or thread.state != thread_mod.RUNNING:
            return
        if (thread.slice_used >= self.costs.TIMESLICE
                and self.runqueues[cpu.index]):
            self._preempt(cpu, thread)
        else:
            self._advance(cpu, thread)

    def _preempt(self, cpu, thread: Thread) -> None:
        if cpu.current is not thread or thread.state != thread_mod.RUNNING:
            return
        self.preemptions += 1
        thread.state = thread_mod.RUNNABLE
        thread.slice_used = 0.0
        thread.cpu = None
        thread.last_ran = self.engine.now()
        self._end_run_span(thread)
        self.runqueues[cpu.index].append(thread)
        self._dispatch(cpu)

    def _finish(self, cpu, thread: Thread,
                exc: Optional[BaseException]) -> None:
        thread.state = thread_mod.DONE
        thread.cpu = None
        self._end_run_span(thread)
        thread.exception = exc
        if exc is not None:
            self.kernel.crashed_threads.append(thread)
        thread._notify_exit()
        self._dispatch(cpu)

    # -- forced termination (process kill) ---------------------------------------------

    def cancel(self, thread: Thread) -> None:
        """Terminate a thread wherever it is (§5.2.1 process kills)."""
        if thread.state == thread_mod.DONE:
            return
        if thread.state == thread_mod.RUNNING:
            thread.killed = True  # takes effect at the next effect boundary
            return
        if thread.state == thread_mod.RUNNABLE:
            for runqueue in self.runqueues:
                try:
                    runqueue.remove(thread)
                except ValueError:
                    continue
                break
        thread.killed = True
        # unwind the suspended generator so its cleanup handlers run
        # (cancelling posted timers, releasing wait-queue slots): a
        # thread abandoned mid-block must not leak pending events
        try:
            thread.gen.throw(_ThreadKilled(f"{thread.name} killed"))
        except (StopIteration, _ThreadKilled):
            pass
        except BaseException as exc:  # noqa: BLE001 — a crash in cleanup
            thread.exception = exc
            self.kernel.crashed_threads.append(thread)
        else:
            # the body swallowed the kill and yielded another effect;
            # drop it — the thread is dead regardless
            thread.gen.close()
        thread.state = thread_mod.DONE
        thread._notify_exit()


class _ThreadKilled(BaseException):
    """Injected into a generator to terminate it; BaseException so user
    ``except Exception`` blocks in simulated code cannot swallow it."""
