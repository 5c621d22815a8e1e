"""L4 Fiasco.OC-style synchronous IPC (§2.2's "L4" bars).

L4's fast path passes the message inline in registers, performs a
*direct* thread switch (no general scheduler pass) and keeps the kernel
path short — which is why it lands two orders of magnitude under POSIX
IPC yet is still 474× a function call (page-table switch + syscall
entry remain). Cross-CPU, it degrades to the IPI wake path like any
other primitive.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.errors import KernelError, PeerResetError
from repro.kernel.effects import Handoff
from repro.kernel.thread import Thread
from repro.sim.stats import SCHED, SYSCALL

#: wake value delivered to callers when the endpoint's owner dies
_HANGUP = object()


class L4Endpoint:
    """A rendezvous endpoint owned by a server thread."""

    def __init__(self, kernel):
        self.kernel = kernel
        self._server: Optional[Thread] = None
        self._pending: Deque[Tuple[Thread, object]] = deque()
        self.calls = 0
        #: callers currently waiting for a reply (list, not set: wake
        #: order on hangup must be deterministic)
        self._outstanding: list = []
        #: per-caller call counter — bumped on every ``call`` entry, so
        #: a reply can be matched against the *specific* call it answers
        self._epoch: dict = {}
        #: the caller epoch in force when the server took each request
        self._serving: dict = {}
        self.hung_up = False
        self._owner = None
        self._kill_hook_installed = False

    def bind_owner(self, process) -> None:
        """Tie the endpoint to its server's process: if that process is
        killed, queued and in-flight callers get :class:`PeerResetError`
        instead of blocking forever."""
        self._owner = process
        if not self._kill_hook_installed:
            self._kill_hook_installed = True
            self.kernel.on_process_kill(self._on_process_kill)

    def _on_process_kill(self, process) -> None:
        if process is not self._owner or self.hung_up:
            return
        self.hung_up = True
        self._server = None
        for caller, _message in list(self._pending):
            if not caller.is_done:
                self.kernel.wake(caller, _HANGUP)
        self._pending.clear()
        for caller in list(self._outstanding):
            if not caller.is_done:
                self.kernel.wake(caller, _HANGUP)
        self._outstanding.clear()
        self._serving.clear()

    # -- cost fragments ---------------------------------------------------------

    def _entry(self, thread: Thread):
        costs = self.kernel.costs
        yield from thread.compute(costs.L4_USER_STUB)
        yield from thread.kwork(costs.SYSCALL_HW, SYSCALL)
        yield from thread.kwork(costs.L4_KERNEL_PATH)

    def _switch_cost(self, thread: Thread):
        costs = self.kernel.costs
        yield from thread.kwork(costs.L4_DIRECT_SWITCH, SCHED)
        # the page-table switch itself is charged by the scheduler's
        # handoff when the address space actually changes

    # -- client side ---------------------------------------------------------------

    def call(self, thread: Thread, message=None):
        """Sub-generator: l4_ipc_call — send and wait for the reply."""
        tracer = self.kernel.tracer
        span = tracer.begin("l4.call", "ipc", thread=thread) \
            if tracer.enabled else None
        yield from self._entry(thread)
        if self.hung_up:
            if span is not None:
                tracer.end(span, args={"fault": "hangup"})
            raise PeerResetError("l4 endpoint owner is dead")
        self.calls += 1
        # each call is a new epoch: a reply to an earlier, timed-out
        # call of this same thread must never satisfy this one
        epoch = self._epoch.get(thread, 0) + 1
        self._epoch[thread] = epoch
        server = self._server
        if server is not None and self._same_cpu(thread, server):
            self._server = None
            self._outstanding.append(thread)
            self._serving[thread] = epoch
            try:
                yield from self._switch_cost(thread)
                reply = yield Handoff(server, (thread, message))
            finally:
                # an exception landing on the yield (injected crash,
                # timeout, unwind) must deregister the rendezvous, or a
                # late reply would be delivered into whatever this
                # thread blocks on next
                self._unhook(thread)
            if reply is _HANGUP:
                if span is not None:
                    tracer.end(span, args={"fault": "hangup"})
                raise PeerResetError("l4 server died before replying")
            if span is not None:
                tracer.end(span)
            return reply
        # server not yet waiting, or on another CPU: queue + block
        self._pending.append((thread, message))
        self._outstanding.append(thread)
        if server is not None:
            self._server = None
            self.kernel.wake(server, self._take_pending(),
                             from_thread=thread)
        try:
            reply = yield thread.block("l4-call")
        finally:
            self._unhook(thread)
        if reply is _HANGUP:
            if span is not None:
                tracer.end(span, args={"fault": "hangup"})
            raise PeerResetError("l4 server died before replying")
        if span is not None:
            tracer.end(span)
        return reply

    # -- server side -----------------------------------------------------------------

    def wait(self, thread: Thread):
        """Sub-generator: l4_ipc_wait — returns (caller, message)."""
        yield from self._entry(thread)
        if self._pending:
            return self._take_pending()
        if self._server is not None:
            raise KernelError("endpoint already has a waiting server")
        self._server = thread
        return (yield thread.block("l4-wait"))

    def _take_pending(self) -> Tuple[Thread, object]:
        """Pop the next queued request, recording which call epoch the
        server is now answering. ``_unhook`` prunes a departed caller's
        queue entries, so anything still queued here belongs to the
        caller's *current* epoch."""
        entry = self._pending.popleft()
        caller = entry[0]
        self._serving[caller] = self._epoch.get(caller, 0)
        return entry

    def _unhook(self, thread: Thread) -> None:
        """Deregister a caller leaving ``call`` by any path — normal
        return, hangup, timeout or an exception injected at the yield."""
        if thread in self._outstanding:
            self._outstanding.remove(thread)
        if any(entry[0] is thread for entry in self._pending):
            self._pending = deque(entry for entry in self._pending
                                  if entry[0] is not thread)

    def _abandoned(self, caller: Thread) -> bool:
        """A caller that timed out (and unhooked itself from
        ``_outstanding``) or crashed has walked away from the
        rendezvous: its reply must be dropped, not delivered — the wake
        would land on whatever that thread blocks on *next* (another
        call, or a server ``wait``) and be mistaken for its value.

        Membership in ``_outstanding`` alone is not enough: the caller
        may have timed out and already *re-registered* for its next
        call, in which case it is outstanding again — but for a newer
        epoch than the one this reply answers. Comparing the epoch the
        server took the request under against the caller's current
        epoch closes that window."""
        return (caller.is_done
                or caller not in self._outstanding
                or self._serving.get(caller) != self._epoch.get(caller))

    def reply_and_wait(self, thread: Thread, caller: Thread, reply=None):
        """Sub-generator: l4_ipc_reply_and_wait — the server fast path."""
        yield from self._entry(thread)
        stale = self._abandoned(caller)
        if self._pending:
            # someone is already queued: wake the old caller normally and
            # take the next request without blocking
            if not stale:
                self.kernel.wake(caller, reply, from_thread=thread)
            return self._take_pending()
        self._server = thread
        if not stale:
            if self._same_cpu(thread, caller) and caller.state == "blocked":
                yield from self._switch_cost(thread)
                return (yield Handoff(caller, reply))
            self.kernel.wake(caller, reply, from_thread=thread)
        return (yield thread.block("l4-wait"))

    def reply(self, thread: Thread, caller: Thread, reply=None):
        """Sub-generator: plain reply, server does not re-wait."""
        yield from self._entry(thread)
        if self._abandoned(caller):
            return
        if self._same_cpu(thread, caller) and caller.state == "blocked":
            yield from self._switch_cost(thread)
            yield Handoff(caller, reply)
        else:
            self.kernel.wake(caller, reply, from_thread=thread)

    @staticmethod
    def _same_cpu(a: Thread, b: Thread) -> bool:
        if a.pin is not None and b.pin is not None:
            return a.pin == b.pin
        return False
