"""Trusted proxies: the runtime-generated thunks that bridge calls across
domains and processes (§3.1, §5.2.3, §6.1).

A proxy is the only privileged code on dIPC's fast path. Its job is
minimal by design: guarantee where and when cross-domain calls and
returns execute (P2/P3), switch ``current`` and stacks when the policy
asks for it, and keep enough state in the KCS to survive a callee crash
(P5). Everything else — register save/zero, stack-argument capabilities —
lives in untrusted user stubs where the compiler can co-optimize it.

Functionally, a call here really crosses CODOMs domains: the caller's
context must hold CALL permission to the proxy's (aligned) entry point,
the proxy jumps into the callee's domain, and the return re-enters the
proxy through a return capability. Timing-wise, each step charges the
calibrated cost fragments that make Figure 5's dIPC bars.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.codoms.apl import Permission
from repro.errors import DipcError, RemoteFault
from repro.core.kcs import KCSEntry, KernelControlStack
from repro.core.objects import EntryDescriptor, Signature
from repro.core.policies import IsolationPolicy
from repro.core.templates import ProxyTemplate
from repro.sim.stats import SYSCALL

_proxy_serial = itertools.count(1)


class CalleeTerminated(BaseException):
    """Injected into a thread when a process on its call chain is killed
    (§5.2.1); converted into a RemoteFault at the nearest live caller.

    Derives from BaseException so simulated user code catching Exception
    cannot swallow a kill — only proxies handle it, mirroring the kernel
    doing the unwind rather than the application.
    """

    def __init__(self, victim):
        super().__init__(f"process {victim.name} was killed")
        self.victim = victim


class _KCSUnwind(BaseException):
    """The in-flight kernel unwind skipping frames whose caller is dead.

    BaseException on purpose: a dead process's user code must not get a
    chance to intercept the unwind — the kernel walks the KCS, not the
    application's handlers (§5.2.1).
    """

    def __init__(self, origin: str, unwound_frames: int):
        super().__init__(f"KCS unwind from {origin}")
        self.origin = origin
        self.unwound_frames = unwound_frames


class Proxy:
    """One generated proxy for one entry point."""

    def __init__(self, manager, *, descriptor: EntryDescriptor,
                 template: ProxyTemplate,
                 caller_process, callee_process,
                 callee_tag: int, proxy_tag: int,
                 entry_address: int, target_address: int,
                 policy: IsolationPolicy, stub_policy: IsolationPolicy,
                 stubs_in_proxy: bool = True):
        self.manager = manager
        self.kernel = manager.kernel
        self.serial = next(_proxy_serial)
        self.descriptor = descriptor
        self.template = template
        self.caller_process = caller_process
        self.callee_process = callee_process
        self.callee_tag = callee_tag
        self.proxy_tag = proxy_tag
        self.entry_address = entry_address
        self.target_address = target_address
        #: proxy-enforced properties (stub-side ones stripped by the
        #: runtime when compiler-generated stubs exist, §5.3.2)
        self.policy = policy
        #: stub-side properties; charged here too when ``stubs_in_proxy``
        #: (no compiler backend: "folded into the proxies", §7.4)
        self.stub_policy = stub_policy
        self.stubs_in_proxy = stubs_in_proxy
        self.calls = 0

    @property
    def cross_process(self) -> bool:
        return self.caller_process is not self.callee_process

    @property
    def signature(self) -> Signature:
        return self.descriptor.signature

    # -- the call path ------------------------------------------------------------

    def call(self, thread, *args):
        """Sub-generator: a full cross-domain call through this proxy."""
        costs = self.kernel.costs
        manager = self.manager
        ctx = thread.codoms
        self.calls += 1
        tracer = self.kernel.tracer
        span = None
        if tracer.enabled:
            tracer.count("dipc.proxy_calls")
            span = tracer.begin(
                f"dipc:{self.descriptor.name or 'entry'}", "dipc",
                thread=thread,
                args={"proxy": self.serial,
                      "cross_process": self.cross_process})

        # ---- caller-side stub (isolate_call / user code) ----
        if self.stubs_in_proxy:
            yield from self._stub_call_charges(thread)

        # ---- architectural transfer into the proxy (P1, P2) ----
        # the CALL-permission + 64-byte-alignment check is what stops a
        # caller without a grant, or a jump into the middle of the proxy
        caller_tag = ctx.current_tag
        caller_priv = ctx.privileged
        manager.access.check_call(ctx, self.entry_address, thread=thread)
        yield from thread.compute(costs.FUNC_CALL)

        # ---- trusted proxy entry ----
        yield from thread.compute(costs.PROXY_MIN_CALL)
        if self.cross_process and not self.callee_process.alive:
            # a call into a killed process fails errno-style at the proxy
            # instead of executing dead code: nothing was pushed yet, so
            # there is no frame to unwind (§5.2.1)
            if span is not None:
                tracer.end(span, args={"fault": True, "dead_callee": True})
            raise RemoteFault(
                f"callee process {self.callee_process.name} is dead",
                origin=self.callee_process.name, unwound_frames=0)
        caller_proc = getattr(thread, "current_process", thread.process)
        caller_stack = manager.stacks.stack_for(thread, caller_proc)
        if not caller_stack.contains(caller_stack.sp):
            raise DipcError("invalid stack pointer at proxy entry (P2)")

        frame = KCSEntry(
            proxy=self,
            caller_process=caller_proc,
            caller_tag=caller_tag,
            caller_privileged=caller_priv,
            return_address=self.entry_address + 8,  # proxy_ret landing pad
            saved_stack_pointer=caller_stack.sp,
            saved_stack=caller_stack,
            callee_process=self.callee_process,
            caller_generation=getattr(caller_proc, "generation", 0),
            callee_generation=getattr(self.callee_process,
                                      "generation", 0),
        )
        if self.cross_process:
            # time-slice donation bookkeeping (§5.2.1): the remainder of
            # the caller's slice travels with the frame so the auditor can
            # verify donations are restored after faults
            frame.donated_slice = thread.slice_used
        kcs = self.kcs_of(thread)
        kcs.push(frame)

        active_stack = caller_stack
        try:
            # ---- cross-process bookkeeping (§6.1.2) ----
            if self.cross_process:
                yield from manager.track.track_call(
                    thread, self.callee_process, self.callee_tag)
                yield from thread.compute(costs.TLS_SWITCH)
                yield from thread.compute(costs.TRACK_DONATION)

            # ---- proxy-side isolation properties (isolate_pcall) ----
            if self.policy.stack_confidentiality:
                if self.cross_process:
                    yield from thread.compute(costs.PROXY_STACK_LOCATE)
                yield from thread.compute(costs.PROXY_STACK_SWITCH * 5 / 8)
                active_stack = manager.stacks.stack_for(
                    thread, self.callee_process)
                if self.signature.stack_bytes:
                    # copy in-stack arguments to the callee stack
                    copy_ns = self.kernel.machine.cache.copy_ns(
                        self.signature.stack_bytes,
                        startup=costs.MEMCPY_STARTUP)
                    yield from thread.compute(copy_ns)
            if self.policy.dcs_integrity:
                yield from thread.compute(costs.PROXY_DCS_ADJUST * 2 / 3)
                frame.saved_dcs_base = ctx.dcs.set_base(ctx.dcs.top_index())
            if self.policy.dcs_confidentiality:
                yield from thread.compute(costs.PROXY_DCS_SWITCH * 2.5 / 4.3)
                frame.saved_dcs = ctx.dcs
                ctx.dcs = manager.dcs_pool.acquire()

            # ---- jump into the target function's domain ----
            ctx.current_tag = self.proxy_tag
            ctx.privileged = True
            manager.access.check_call(ctx, self.target_address,
                                      thread=thread)
            active_stack.push_frame(max(self.signature.stack_bytes, 16))
            try:
                result = yield from self.descriptor.func(thread, *args)
            finally:
                active_stack.pop_frame(max(self.signature.stack_bytes, 16))

            # ---- return into the proxy via the return capability (P3) ----
            ctx.current_tag = self.proxy_tag
            ctx.privileged = True
            popped_live = yield from self._unwind_state(thread, frame,
                                                        ctx, charge=True)
            if not popped_live:
                # the frame was retired while we were abroad (its process
                # died and the kernel pruned it, or the reply raced a
                # pool rebuild into a new incarnation): drop the reply
                # instead of popping someone else's frame
                if tracer.enabled:
                    tracer.count("dipc.stale_replies_dropped")
                raise DipcError(
                    f"stale reply dropped: {frame.unwound_reason} "
                    f"({frame.describe()})")
            yield from thread.compute(costs.PROXY_MIN_RET)
            if self.stubs_in_proxy:
                yield from self._stub_ret_charges(thread)
            if span is not None:
                tracer.end(span)
            return result

        except (Exception, CalleeTerminated, _KCSUnwind) as exc:
            # ---- crash/kill path: the kernel unwinds the KCS (§5.2.1) ----
            ctx.current_tag = self.proxy_tag
            ctx.privileged = True
            yield from self._unwind_state(thread, frame, ctx, charge=False)
            yield from thread.kwork(costs.SYSCALL_HW, SYSCALL)
            yield from thread.kwork(costs.KCS_UNWIND_FRAME)
            manager.faults_unwound += 1
            if span is not None:
                tracer.count("dipc.kcs_unwinds")
                tracer.instant("kcs_unwind", "dipc", thread=thread,
                               args={"proxy": self.serial,
                                     "error": str(exc)})
                tracer.end(span, args={"fault": True})
            if isinstance(exc, (_KCSUnwind, RemoteFault)):
                origin = exc.origin
                frames = exc.unwound_frames + 1
            else:
                origin = (self.callee_process.name
                          if self.cross_process else
                          f"domain {self.callee_tag}")
                frames = 1
            if frame.caller_process.alive:
                # flag the error to the (live) caller, errno-style
                raise RemoteFault(
                    f"callee failed in {origin}: {exc}", origin=origin,
                    unwound_frames=frames) from exc
            # the caller is dead too: keep the kernel unwind going, past
            # its user code, to the next proxy outward
            raise _KCSUnwind(origin, frames) from exc

    # -- helpers --------------------------------------------------------------------

    def kcs_of(self, thread) -> KernelControlStack:
        if thread.kcs is None:
            thread.kcs = KernelControlStack(owner=thread)
        return thread.kcs

    def _unwind_state(self, thread, frame: KCSEntry, ctx, *,
                      charge: bool):
        """Restore everything the KCS frame recorded (deisolate_pcall,
        track_process_ret, deprepare_ret). Used by both the normal return
        and the fault unwind; the fault path skips the fine-grained
        charges (the kernel does the restore wholesale).

        Returns True when the frame was live and popped here, False when
        it had already been retired (kill-time prune, outer unwind, or a
        generation mismatch after a pool rebuild) — the reply is stale.
        Re-entrant: a pending kill delivered mid-restore re-runs this
        from the fault path, so each one-shot restore (the saved DCS and
        its base) is nulled out once applied.
        """
        costs = self.kernel.costs
        manager = self.manager
        if self.policy.dcs_confidentiality and frame.saved_dcs is not None:
            if charge:
                yield from thread.compute(costs.PROXY_DCS_SWITCH * 1.8 / 4.3)
            manager.dcs_pool.release(ctx.dcs)
            ctx.dcs = frame.saved_dcs
            frame.saved_dcs = None
        if self.policy.dcs_integrity and frame.saved_dcs_base is not None:
            if charge:
                yield from thread.compute(costs.PROXY_DCS_ADJUST * 1 / 3)
            ctx.dcs.set_base(frame.saved_dcs_base)
            frame.saved_dcs_base = None
        if self.policy.stack_confidentiality and charge:
            yield from thread.compute(costs.PROXY_STACK_SWITCH * 3 / 8)
        if self.cross_process:
            if charge:
                yield from thread.compute(costs.TLS_SWITCH)
            yield from manager.track.track_ret(thread, frame.caller_process)
        # retire the KCS entry and restore the caller's execution state
        popped_live = self.kcs_of(thread).pop_frame(frame)
        frame.saved_stack.sp = frame.saved_stack_pointer
        ctx.current_tag = frame.caller_tag
        ctx.privileged = frame.caller_privileged
        return popped_live

    def _stub_call_charges(self, thread):
        costs = self.kernel.costs
        if self.stub_policy.reg_integrity:
            yield from thread.compute(costs.STUB_REG_SAVE)
        if self.stub_policy.reg_confidentiality:
            yield from thread.compute(costs.STUB_REG_ZERO * 5 / 8)
        if self.stub_policy.stack_integrity:
            yield from thread.compute(costs.STUB_STACK_CAPS)

    def _stub_ret_charges(self, thread):
        costs = self.kernel.costs
        if self.stub_policy.reg_confidentiality:
            yield from thread.compute(costs.STUB_REG_ZERO * 3 / 8)
        if self.stub_policy.reg_integrity:
            yield from thread.compute(costs.STUB_REG_RESTORE)

    def __repr__(self) -> str:
        kind = "+proc" if self.cross_process else "local"
        return (f"<Proxy#{self.serial} {self.descriptor.name or 'entry'} "
                f"{kind} policy={self.policy}>")
