"""Cross-process call time-outs via thread splitting (§5.4).

The paper *designs* this but does not implement it ("we have not
implemented them, since they are not used by the applications we
evaluated") — we implement it as the extension work. Semantics follow
§5.4: on a time-out the thread is "split" at the timed-out proxy — the
kernel duplicates the thread structure and KCS, unwinds the caller's
side to the proxy, flags the error there, and lets the callee side run
to completion, deleting it when it returns into the proxy that produced
the split. Splitting requires the caller to use a stack separate from
the callee's, i.e. stack confidentiality+integrity must be enabled.

Mechanically, a timeout-protected call runs the callee half on a service
thread (the pre-materialized "split half") pinned to the caller's CPU;
if it finishes in time the caller resumes with the result and the split
is never observable, otherwise the caller resumes with
:class:`~repro.errors.CallTimeout` while the callee half keeps running
and is reaped at its proxy return.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CallTimeout, DipcError


class _Outcome:
    __slots__ = ("done", "value", "error", "timed_out", "caller")

    def __init__(self, caller):
        self.done = False
        self.value = None
        self.error: Optional[BaseException] = None
        self.timed_out = False
        self.caller = caller


def call_with_timeout(thread, proxy, args, timeout_ns: float):
    """Sub-generator: ``proxy.call`` bounded by ``timeout_ns``.

    Raises :class:`CallTimeout` on expiry; the callee continues on the
    split thread and is deleted when it returns into the proxy.
    """
    if timeout_ns <= 0:
        raise ValueError("timeout must be positive")
    if not proxy.policy.stack_confidentiality:
        # §5.4: splitting "will only work if the timed-out caller uses a
        # stack separate from the callee's"
        raise DipcError("call_with_timeout requires stack "
                        "confidentiality+integrity on the entry point")
    kernel = thread.kernel
    costs = kernel.costs
    outcome = _Outcome(thread)
    pin = thread.cpu.index if thread.cpu is not None else None

    def split_half(split_thread):
        # the split half inherits the caller's execution context: it is
        # the same primary thread as far as the callee can tell
        split_thread.codoms.current_tag = thread.codoms.current_tag
        split_thread.current_process = thread.current_process
        try:
            result = yield from proxy.call(split_thread, *args)
        except BaseException as exc:  # noqa: BLE001 — forwarded, not hidden
            outcome.error = exc
            outcome.done = True
        else:
            outcome.value = result
            outcome.done = True
        if not outcome.timed_out:
            kernel.wake(outcome.caller, from_thread=split_thread)
        # else: the callee half ran past the split; it is deleted here,
        # at the proxy that produced the split (§5.4)

    split = kernel.spawn(thread.process, split_half,
                         name=f"{thread.name}:split", pin=pin)
    #: flags the pre-materialized split half so the post-run invariant
    #: auditor can verify every split was reaped (§5.4)
    split.is_split_half = True

    def expire():
        if not outcome.done and not outcome.timed_out:
            outcome.timed_out = True
            kernel.wake(outcome.caller)

    timer = kernel.engine.post(timeout_ns, expire)
    try:
        # re-block on spurious wakes: only the split's completion or the
        # timer may resume the caller with a decided outcome
        while not outcome.done and not outcome.timed_out:
            yield thread.block("dipc-timeout-call")
    except BaseException:
        # the caller itself was unwound (e.g. its process was killed)
        # while waiting: the timer must not outlive the call
        kernel.engine.cancel(timer)
        raise
    if outcome.done and not outcome.timed_out:
        kernel.engine.cancel(timer)
        if outcome.error is not None:
            raise outcome.error
        return outcome.value
    # timed out: duplicate-thread + KCS-unwind costs land on the caller
    yield from thread.kwork(costs.THREAD_SPLIT)
    yield from thread.kwork(costs.KCS_UNWIND_FRAME)
    raise CallTimeout(
        f"call through {proxy!r} exceeded {timeout_ns:.0f}ns",
        elapsed_ns=timeout_ns)
