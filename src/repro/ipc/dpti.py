"""DPTI — tagged-page-table domain switching (arxiv 2111.10876).

A DPTI domain call traps into the kernel, which validates a domain
descriptor and switches to the callee domain's PCID-tagged page table
*without flushing the TLB*, then runs the callee inline on the
caller's thread.  That puts it squarely between the classic baselines
and dIPC:

* unlike pipes/sockets/L4 there is **no thread switch** — the caller's
  thread executes the callee, so no context switch, no scheduler pass,
  no worker pool on the far side;
* unlike dIPC it **still traps**: syscall entry/exit, a kernel gate
  and two tagged CR3 writes per round trip, plus kernel-mediated
  argument copies (no capability passing).

Peer-death hardening follows the PR 2 pattern of the other endpoints:
the kernel keeps a table of live tagged-PT contexts
(``kernel.dpti_domains``: pcid → owner process).  When the owner dies,
the kill hook retires the PCID *before* any visitor can resume — a
dangling tagged entry would be a protection hole — and every thread
currently executing inside the domain is unwound with
:class:`~repro.errors.PeerResetError`.  Invariant A10 in
``repro.fault.auditor`` checks the table never references a dead
process.
"""

from __future__ import annotations

from typing import Optional

from repro import units
from repro.errors import PeerResetError
from repro.kernel.thread import Thread
from repro.sim.stats import PTSW, SYSCALL


def domain_table(kernel) -> dict:
    """The kernel's live tagged-PT contexts (pcid → owner process),
    created on first use so kernels without DPTI pay nothing."""
    table = getattr(kernel, "dpti_domains", None)
    if table is None:
        table = {}
        kernel.dpti_domains = table
    return table


def copy_gate_ns(costs, cache, size: int) -> float:
    """One kernel-mediated argument copy at the domain gate: memcpy
    plus per-page mapping checks on large transfers (the kernel must
    validate both domains' mappings before touching the data)."""
    if size <= 0:
        return 0.0
    ns = cache.copy_ns(size, startup=costs.MEMCPY_STARTUP)
    if size > units.PAGE_SIZE:
        ns += units.pages_for(size) * costs.KERNEL_COPY_PAGE_CHECK
    return ns


def kernel_copy_ns(kernel, size: int) -> float:
    return copy_gate_ns(kernel.costs, kernel.machine.cache, size)


class DptiEndpoint:
    """A callable domain: a handler generator owned by a process.

    ``handler(thread, payload)`` is a sub-generator run inline on the
    *caller's* thread after the tagged-PT switch; its return value is
    copied back as the reply.
    """

    def __init__(self, kernel, handler=None):
        self.kernel = kernel
        self.handler = handler
        self.pcid: Optional[int] = None
        self.calls = 0
        self.hung_up = False
        self._owner = None
        #: threads currently executing inside the domain (list, not
        #: set: unwind order on owner death must be deterministic)
        self._visiting: list = []
        self._kill_hook_installed = False

    # -- lifecycle ---------------------------------------------------------------

    def bind_owner(self, process) -> None:
        """Tie the domain to its owner process and allocate a fresh
        PCID-tagged page-table context for it.  Re-binding (after a
        supervisor respawn) retires the old tag first — a reborn
        domain must never be reachable through its predecessor's
        PCID."""
        table = domain_table(self.kernel)
        if self.pcid is not None:
            table.pop(self.pcid, None)
        self.pcid = getattr(self.kernel, "_dpti_next_pcid", 1)
        self.kernel._dpti_next_pcid = self.pcid + 1
        self._owner = process
        self.hung_up = False
        table[self.pcid] = process
        if not self._kill_hook_installed:
            self._kill_hook_installed = True
            self.kernel.on_process_kill(self._on_process_kill)

    def _on_process_kill(self, process) -> None:
        if process is not self._owner or self.hung_up:
            return
        self.hung_up = True
        # retire the tagged-PT context first: no visitor may re-enter
        # (or resume) through a stale PCID once the owner is gone
        domain_table(self.kernel).pop(self.pcid, None)
        for thread in list(self._visiting):
            # threads of the dying process itself are unwound by
            # kill_process before hooks run; skip anything already
            # done or being torn down
            if thread.is_done or not thread.process.alive:
                continue
            thread.pending_exception = PeerResetError(
                f"dpti domain owner {process.name} died mid-call")
            self.kernel.wake(thread)
        self._visiting.clear()

    # -- the call ----------------------------------------------------------------

    def call(self, thread: Thread, payload=None, *,
             size: int = 0, reply_size: int = 0):
        """Sub-generator: one domain call round trip.

        ``size`` / ``reply_size`` bytes are copied by the kernel gate
        in each direction (DPTI has no capability passing).
        """
        costs = self.kernel.costs
        tracer = self.kernel.tracer
        span = tracer.begin("dpti.call", "ipc", thread=thread) \
            if tracer.enabled else None
        # request leg: stub, trap, gate, tagged switch
        yield from thread.compute(costs.DPTI_USER_STUB)
        yield from thread.kwork(costs.SYSCALL_HW, SYSCALL)
        yield from thread.kwork(costs.DPTI_KERNEL_PATH)
        if self.hung_up or self._owner is None or not self._owner.alive:
            if span is not None:
                tracer.end(span, args={"fault": "hangup"})
            raise PeerResetError("dpti domain owner is dead")
        if size:
            yield from thread.kwork(kernel_copy_ns(self.kernel, size))
        yield from thread.kwork(costs.DPTI_SWITCH, PTSW)
        self.calls += 1
        self._visiting.append(thread)
        try:
            reply = yield from self.handler(thread, payload)
        finally:
            # leave the domain on *any* path — normal return, an
            # exception from the handler, or an unwind injected at a
            # yield inside it (timeout, kill, peer reset)
            if thread in self._visiting:
                self._visiting.remove(thread)
        if self.hung_up:
            # the owner died while we were inside and the handler
            # swallowed the injected unwind (e.g. a nested hop treated
            # it as a downstream fault): the domain no longer exists,
            # so there is no return gate to go through
            if span is not None:
                tracer.end(span, args={"fault": "hangup"})
            raise PeerResetError("dpti domain owner died mid-call")
        # return leg: tagged switch back, reply copy, half-gate, exit
        yield from thread.kwork(costs.DPTI_SWITCH, PTSW)
        if reply_size:
            yield from thread.kwork(kernel_copy_ns(self.kernel, reply_size))
        yield from thread.kwork(0.5 * costs.DPTI_KERNEL_PATH)
        yield from thread.kwork(costs.SYSCALL_HW, SYSCALL)
        if span is not None:
            tracer.end(span)
        return reply
