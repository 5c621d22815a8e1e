"""The Charge fast-forward changes no simulated event.

A Charge whose continuation would be the next event to fire completes
inline (``Engine.skip_to``) instead of posting ``_after_charge``, and
``Thread.compute``/``kwork``/``syscall`` charge through
``Scheduler.charge`` from inside the running body, so such a charge
does not even suspend the body. The differential tests run each case
twice, as is and with both patched away (``skip_to`` always refuses,
``Scheduler.charge`` hands back a plain ``Charge`` for the body to
yield, so every charge yields and posts its continuation), and require
equal results; each also checks that the skip and the inline charge
really fired, so the comparison is not vacuous. The unit tests pin
every precondition under which ``skip_to`` must refuse and leave the
clock alone, and every case in which ``Scheduler.charge`` must refuse
to charge inline or must suspend the thread.
"""

import sys

import pytest

from repro.kernel import Kernel
from repro.kernel.effects import SUSPENDED, Charge
from repro.kernel.scheduler import Scheduler
from repro.session import Session
from repro.sim.engine import Engine
from repro.sim.stats import Block


def _both_paths(monkeypatch, run):
    """``run()`` with the skip and inline charges, then with every
    charge yielded and its continuation posted; returns both results,
    how many continuations the first run skipped, and how many of its
    charges completed inline inside the running body."""
    original_skip = Engine.skip_to
    original_charge = Scheduler.charge
    skipped = 0
    inline = 0

    def counting_skip(self, delay_ns):
        nonlocal skipped
        hit = original_skip(self, delay_ns)
        skipped += hit
        return hit

    def counting_charge(self, thread, ns, block):
        nonlocal inline
        effect = original_charge(self, thread, ns, block)
        inline += effect is None
        return effect

    monkeypatch.setattr(Engine, "skip_to", counting_skip)
    monkeypatch.setattr(Scheduler, "charge", counting_charge)
    fast = run()
    monkeypatch.setattr(Engine, "skip_to", lambda self, delay_ns: False)
    monkeypatch.setattr(Scheduler, "charge",
                        lambda self, thread, ns, block: Charge(ns, block))
    slow = run()
    return fast, slow, skipped, inline


class _Kernels(Session):
    """Collects every kernel built while active."""

    def __init__(self):
        self.kernels = []

    def attach(self, kernel):
        self.kernels.append(kernel)


# -- differential: same results with and without the skip -------------------

@pytest.mark.parametrize("label", ["dipc_low", "pipe_cross_cpu"])
def test_fig5_bar_is_unchanged(monkeypatch, label):
    from repro.experiments import fig05_sync_calls

    fast, slow, skipped, inline = _both_paths(
        monkeypatch,
        lambda: fig05_sync_calls.compute_point(label=label, iters=200))
    assert skipped > 0
    assert inline > 0
    assert fast == slow


def _fig9_socket_point(mode):
    from repro.experiments import fig09_load
    points = fig09_load.points(open_rungs=(6400.0,), closed_clients=(16,),
                               window_ns=1_500_000.0, warmup_ns=500_000.0,
                               seed=42)
    return next(p.kwargs for p in points
                if p.kwargs["primitive"] == "socket"
                and p.kwargs["mode"] == mode)


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_fig9_socket_point_is_unchanged(monkeypatch, mode):
    """The closed loop at 16 clients, and the saturated open loop, whose
    runqueue contention splits charges at the timeslice and preempts."""
    from repro.experiments import fig09_load
    kwargs = _fig9_socket_point(mode)

    def run():
        with _Kernels() as built:
            result = fig09_load.compute_point(**kwargs)
        return result, [k.scheduler.preemptions for k in built.kernels]

    (fast, fast_pre), (slow, slow_pre), skipped, inline = _both_paths(
        monkeypatch, run)
    assert skipped > 0
    assert inline > 0
    assert fast == slow
    assert fast_pre == slow_pre
    if mode == "open":
        assert sum(fast_pre) > 0


def test_fig10_storm_point_is_unchanged(monkeypatch):
    from repro.experiments import fig10_topo
    from repro.fault.session import ChaosSession
    from repro.recovery.session import RecoverySession
    point = next(p for p in fig10_topo.points(
        scenarios=("chain-9",), rungs=(100.0,), reps=1,
        window_ns=1_000_000.0, warmup_ns=500_000.0, seed=42)
        if p.kwargs["primitive"] == "dipc")
    kwargs = dict(point.kwargs, seed=2)

    def run():
        with ChaosSession(seed=2, horizon_ns=1_500_000.0) as chaos, \
                RecoverySession(seed=2) as recovery:
            result = fig10_topo.compute_point(**kwargs)
        return (result, chaos.render_log(), chaos.audit_kernels(),
                recovery.audit_violations(), recovery.event_log())

    fast, slow, skipped, inline = _both_paths(monkeypatch, run)
    assert skipped > 0
    assert inline > 0
    assert fast == slow
    result, log, audit, violations, events = fast
    assert "-> killed" in log
    assert events                      # the supervisor acted
    assert audit == [] and violations == []


def test_explored_schedule_is_unchanged(monkeypatch):
    from repro.check.explore import explore_one
    fast, slow, skipped, inline = _both_paths(
        monkeypatch,
        lambda: explore_one("chain4", seed=7, schedule=3, chaos=True))
    assert skipped > 0
    assert inline > 0
    assert fast["decision_count"] > 0
    assert fast["decisions"] == slow["decisions"]
    assert fast == slow


def _pingpong_kernel(rounds=50):
    """Two threads on two CPUs waking each other across an IPI."""
    kernel = Kernel(num_cpus=2)
    threads = {}

    def ping(t):
        for _ in range(rounds):
            yield from t.syscall(40)
            yield from t.compute(100)
            kernel.wake(threads["pong"], from_thread=t)
            yield t.block("ping")

    def pong(t):
        for _ in range(rounds):
            yield t.block("pong")
            yield from t.syscall(60)
            yield from t.compute(250)
            kernel.wake(threads["ping"], from_thread=t)

    threads["pong"] = kernel.spawn(kernel.spawn_process("b"), pong, pin=1)
    threads["ping"] = kernel.spawn(kernel.spawn_process("a"), ping, pin=0)
    kernel.run()
    return kernel


def test_two_cpu_pingpong_kernel_is_unchanged(monkeypatch):
    def run():
        kernel = _pingpong_kernel()
        assert all(t.state == "done" for p in kernel.processes
                   for t in p.threads)
        return (kernel.engine.events_processed, kernel.engine.now(),
                [dict(cpu.account.ns) for cpu in kernel.machine.cpus],
                kernel.scheduler.ipi_wakes)

    fast, slow, skipped, inline = _both_paths(monkeypatch, run)
    assert skipped > 0
    assert inline > 0
    assert fast == slow
    assert fast[3] > 0
    assert all(account[Block.USER] > 0 for account in fast[2])


def test_inline_charge_preempts_an_overrun_slice(monkeypatch):
    """A thread that overran its slice while nobody waited is preempted
    at the end of its next whole charge once a thread is queued behind
    it: a charge that completes inline must preempt exactly there."""

    def run():
        kernel = Kernel(num_cpus=1)
        proc = kernel.spawn_process("p")
        slice_ns = kernel.costs.TIMESLICE
        order = []
        threads = {}

        def sleeper(t):
            yield t.block("parked")
            order.append(("sleeper", t.now()))

        def hog(t):
            yield from t.compute(slice_ns * 1.5)   # overruns; nobody waits
            kernel.wake(threads["sleeper"])    # now somebody does
            yield from t.compute(1000)
            order.append(("hog", t.now()))

        threads["sleeper"] = kernel.spawn(proc, sleeper, pin=0)
        threads["hog"] = kernel.spawn(proc, hog, pin=0)
        kernel.run()
        return (order, kernel.scheduler.preemptions,
                kernel.engine.events_processed)

    fast, slow, skipped, inline = _both_paths(monkeypatch, run)
    assert skipped > 0
    assert inline > 0
    assert fast == slow
    order, preemptions, _events = fast
    assert preemptions == 1
    assert [who for who, _when in order] == ["sleeper", "hog"]


# -- skip_to's preconditions ------------------------------------------------

def _skip_inside_run(engine, delay_ns, **run_kwargs):
    """Call ``skip_to(delay_ns)`` from the first event of a run; returns
    (hit, clock before, clock after, events processed after)."""
    seen = []

    def probe():
        before = engine.now()
        hit = engine.skip_to(delay_ns)
        seen.append((hit, before, engine.now(), engine.events_processed))

    engine.post(10, probe)
    engine.run(**run_kwargs)
    return seen[0]


def test_skip_moves_the_clock_and_counts_one_event():
    engine = Engine()
    engine.post(100, lambda: None)
    hit, before, after, processed = _skip_inside_run(engine, 50)
    assert hit is True
    assert (before, after) == (10, 60)
    assert processed == 2              # the probe, plus the skipped event


def test_skip_refused_outside_run():
    engine = Engine()
    assert engine.skip_to(5) is False
    assert engine.now() == 0
    assert engine.events_processed == 0


@pytest.mark.parametrize("cancelled", [False, True],
                         ids=["live", "tombstoned"])
def test_skip_refused_when_an_entry_is_due_at_the_same_time(cancelled):
    engine = Engine()
    entry = engine.post(60, lambda: None)
    if cancelled:
        engine.cancel(entry)
    hit, before, after, processed = _skip_inside_run(engine, 50)
    assert hit is False
    assert before == after == 10
    assert processed == 1


def test_skip_allowed_when_the_next_entry_is_later():
    engine = Engine()
    engine.post(61, lambda: None)
    hit, _before, after, _processed = _skip_inside_run(engine, 50)
    assert hit is True
    assert after == 60


def test_skip_refused_past_until_ns():
    engine = Engine()
    hit, before, after, _processed = _skip_inside_run(engine, 50,
                                                      until_ns=59)
    assert hit is False
    assert before == after == 10
    engine = Engine()
    hit, _before, after, _processed = _skip_inside_run(engine, 50,
                                                       until_ns=60)
    assert hit is True
    assert after == 60


def test_skip_refused_when_the_event_budget_is_spent():
    engine = Engine()
    hit, before, after, processed = _skip_inside_run(engine, 50,
                                                     max_events=1)
    assert hit is False
    assert before == after == 10
    assert processed == 1


def test_max_events_counts_skipped_events():
    engine = Engine()
    steps = []

    def chain():
        steps.append(engine.now())
        for _ in range(20):
            if not engine.skip_to(5):
                break
            steps.append(engine.now())
        engine.post(5, chain)

    engine.post(0, chain)
    engine.run(max_events=7)
    assert engine.events_processed == 7
    assert steps == [0, 5, 10, 15, 20, 25, 30]
    assert engine.pending() == 1       # the continuation of the 7th
    engine.run(max_events=3)
    assert engine.events_processed == 10
    assert steps[-1] == 45


def test_skip_refused_when_a_count_trigger_is_due():
    engine = Engine()
    fired = []
    engine.post(100, lambda: None)
    engine.at_event_count(2, lambda: fired.append(engine.now()))
    hit, before, after, processed = _skip_inside_run(engine, 50)
    assert hit is False
    assert before == after == 10
    assert fired == [100]              # after the real 2nd event
    engine = Engine()
    engine.at_event_count(3, lambda: None)
    hit, _before, _after, processed = _skip_inside_run(engine, 50)
    assert hit is True                 # a later trigger allows the skip
    assert processed == 2


def test_count_trigger_fires_after_the_same_event_on_both_paths(
        monkeypatch):
    """A fault rule keyed to an event index lands at the same point of
    the simulation whether or not the events before it were skipped."""

    def run():
        kernel = Kernel(num_cpus=1)
        progress = []
        seen = []

        def body(t):
            for step in range(40):
                progress.append(step)
                yield from t.compute(10 + step)

        kernel.spawn(kernel.spawn_process("p"), body)
        kernel.engine.at_event_count(
            17, lambda: seen.append((kernel.engine.now(),
                                     kernel.engine.events_processed,
                                     len(progress))))
        kernel.run()
        return seen, kernel.engine.events_processed

    fast, slow, skipped, inline = _both_paths(monkeypatch, run)
    assert skipped > 0
    assert inline > 0
    assert fast == slow
    assert fast[0][0][1] == 17


# -- Scheduler.charge: when it refuses to charge inline, or suspends --------

def _live_entries(engine):
    return sorted(entry[0] for entry in engine._queue
                  if entry[2] is not None)


def _count_calls(monkeypatch, name):
    """Count calls of the scheduler method ``name``; returns the list
    the counting wrapper appends to."""
    original = getattr(Scheduler, name)
    calls = []

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Scheduler, name, counting)
    return calls


def test_charging_another_thread_bills_the_running_one():
    """Thread ``a`` charges thread ``b``, which is RUNNING as CPU1's
    ``current`` but suspended in its own charge: ``b``'s generator is
    not the one executing, so the charge comes back as a ``Charge`` and
    ``a`` pays for it, exactly as when ``a`` yields the Charge bare."""

    def run(bare):
        kernel = Kernel(num_cpus=2)
        proc_a = kernel.spawn_process("a")
        proc_b = kernel.spawn_process("b")
        threads = {}
        seen = []

        def body_b(t):
            yield from t.compute(10_000)

        def body_a(t):
            yield from t.compute(100)
            other = threads["b"]
            seen.append((other.state, other.cpu.current is other,
                         other.gen.gi_running))
            if bare:
                yield Charge(500, Block.USER)
            else:
                effect = kernel.scheduler.charge(other, 500, Block.USER)
                seen.append((type(effect).__name__, effect.ns,
                             effect.block))
                yield from other.compute(500)
            seen.append(t.now())

        threads["b"] = kernel.spawn(proc_b, body_b, pin=1)
        threads["a"] = kernel.spawn(proc_a, body_a, pin=0)
        kernel.run()
        accounts = [cpu.account.ns[Block.USER]
                    for cpu in kernel.machine.cpus]
        return seen, proc_a.cpu_ns, proc_b.cpu_ns, accounts

    seen, a_ns, b_ns, accounts = run(bare=False)
    assert seen[0] == ("running", True, False)
    assert seen[1] == ("Charge", 500, Block.USER)
    assert (a_ns, b_ns) == (600, 10_000)
    assert accounts == [600, 10_000]
    bare_seen, *bare_rest = run(bare=True)
    assert [seen[0], seen[-1]] == bare_seen
    assert [a_ns, b_ns, accounts] == bare_rest


def test_charge_in_cleanup_thrown_by_cancel_is_dropped():
    """``Scheduler.cancel`` throws the kill into a blocked thread; the
    charge its cleanup code makes is refused (the thread is not
    RUNNING), yielded, and dropped with the rest of the body."""
    kernel = Kernel(num_cpus=1)
    proc = kernel.spawn_process("p")
    seen = []

    def body(t):
        try:
            yield t.block("parked")
        finally:
            seen.append(("cleanup", t.state))
            effect = kernel.scheduler.charge(t, 300, Block.USER)
            seen.append(type(effect).__name__)
            yield from t.compute(300)
            seen.append("unreachable")

    thread = kernel.spawn(proc, body)
    kernel.engine.post(1_000, lambda: kernel.scheduler.cancel(thread))
    kernel.run()
    assert seen == [("cleanup", "blocked"), "Charge"]
    assert thread.state == "done" and thread.exception is None
    assert proc.cpu_ns == 0
    assert kernel.machine.cpus[0].account.ns[Block.USER] == 0


def _boundary_run(bare, interrupt):
    """A body that arranges its own kill or unwind, then charges 200 ns
    with ``compute`` (``bare``: by yielding a ``Charge``, the path every
    charge took before inline charging). Returns where the interruption
    landed and what was billed."""
    kernel = Kernel(num_cpus=1)
    proc = kernel.spawn_process("p")
    seen = []
    start = []

    class Unwind(Exception):
        pass

    def body(t):
        start.append(t.now())
        yield from t.compute(100)
        interrupt(kernel, t, Unwind("unwind"))
        try:
            if bare:
                yield Charge(200, Block.USER)
            else:
                seen.append(type(
                    kernel.scheduler.charge(t, 0, Block.USER)).__name__)
                yield from t.compute(200)
            seen.append(("not interrupted", t.now() - start[0]))
        except Unwind:
            seen.append(("unwound", t.now() - start[0]))
        yield from t.compute(50)
        seen.append(("resumed", t.now() - start[0]))

    thread = kernel.spawn(proc, body)
    kernel.run()
    return (seen, thread.state, proc.cpu_ns,
            kernel.engine.now() - start[0], kernel.engine.events_processed)


def _kill(kernel, thread, _exc):
    kernel.scheduler.cancel(thread)     # the thread is RUNNING: deferred


def _unwind(_kernel, thread, exc):
    thread.pending_exception = exc


@pytest.mark.parametrize("interrupt", [_kill, _unwind],
                         ids=["killed", "pending_exception"])
def test_kill_or_unwind_lands_at_the_same_boundary(interrupt):
    """With a kill or an unwind waiting to land, the charge is refused
    (an inline charge would run past the boundary where it lands): the
    body yields it, it is billed, and the kill or unwind arrives right
    there, as when the body yields the Charge bare."""
    inline = _boundary_run(False, interrupt)
    bare = _boundary_run(True, interrupt)
    seen, state, cpu_ns, elapsed, _events = inline
    assert seen[0] == "Charge"
    assert inline[1:] == bare[1:]
    assert seen[1:] == bare[0]
    assert state == "done" and cpu_ns == elapsed
    if interrupt is _kill:
        assert seen[1:] == [] and elapsed == 300
    else:
        assert seen[1:] == [("unwound", 300), ("resumed", 350)]


def test_negative_charge_raises_in_the_body():
    kernel = Kernel(num_cpus=1)
    seen = []

    def body(t):
        yield from t.compute(10)
        for helper in (lambda: t.compute(-5), lambda: t.kwork(-5),
                       lambda: t.syscall(-5.0)):
            try:
                yield from helper()
            except ValueError as exc:
                seen.append(str(exc))
        try:
            Charge(-5)
        except ValueError as exc:
            seen.append(str(exc))

    thread = kernel.spawn(kernel.spawn_process("p"), body)
    kernel.run()
    # syscall never charges a non-positive work_ns
    assert seen == ["negative charge: -5", "negative charge: -5",
                    "negative charge: -5"]
    assert thread.exception is None
    with pytest.raises(ValueError, match="negative charge: -1"):
        kernel.scheduler.charge(thread, -1, Block.USER)


def test_charge_split_at_the_timeslice_suspends(monkeypatch):
    """A charge longer than what is left of the slice, with a thread
    queued behind, is split: ``charge`` returns SUSPENDED with the
    remainder pending and one ``_preempt`` posted at the slice end."""
    preempts = _count_calls(monkeypatch, "_preempt")
    kernel = Kernel(num_cpus=1)
    proc = kernel.spawn_process("p")
    slice_ns = kernel.costs.TIMESLICE
    seen = []

    def hog(t):
        yield from t.compute(100)
        before = _live_entries(kernel.engine)
        effect = kernel.scheduler.charge(t, 2 * slice_ns, Block.USER)
        after = _live_entries(kernel.engine)
        seen.append((effect, t.pending_charge, before, after, t.now()))
        yield effect
        seen.append(("hog done", t.now()))

    def other(t):
        yield from t.compute(10)
        seen.append(("other done", t.now()))

    kernel.spawn(proc, hog, pin=0)
    kernel.spawn(proc, other, pin=0)
    kernel.run()
    effect, pending, before, after, now = seen[0]
    assert effect is SUSPENDED
    assert pending == (2 * slice_ns - (slice_ns - 100), Block.USER)
    assert before == []
    assert after == [now - 100 + slice_ns]
    assert len(preempts) == 1
    assert kernel.scheduler.preemptions == 1
    assert [who for who, _when in seen[1:]] == ["other done", "hog done"]
    assert proc.cpu_ns == 100 + 2 * slice_ns + 10
    # both parts of the split are billed to the CPU account too, which
    # is what Figures 1, 2 and 8 read
    assert kernel.machine.cpus[0].account.ns[Block.USER] == \
        100 + 2 * slice_ns + 10


def test_refused_skip_posts_one_after_charge(monkeypatch):
    """When another event is due first, the inline charge posts exactly
    one ``_after_charge`` and returns SUSPENDED; the body resumes there
    at the charge's end."""
    after_charges = _count_calls(monkeypatch, "_after_charge")
    kernel = Kernel(num_cpus=1)
    proc = kernel.spawn_process("p")
    seen = []

    def body(t):
        yield from t.compute(100)
        kernel.engine.post(500, lambda: seen.append(("noop", t.now())))
        before = _live_entries(kernel.engine)
        effect = kernel.scheduler.charge(t, 1_000, Block.USER)
        after = _live_entries(kernel.engine)
        seen.append((effect, before, after, t.pending_charge))
        yield effect
        seen.append(("resumed", t.now()))
        yield from t.compute(50)
        seen.append(("done", t.now()))

    kernel.spawn(proc, body)
    kernel.run()
    start = seen[1][1] - 500
    assert seen[0] == (SUSPENDED, [start + 500],
                       [start + 500, start + 1_000], None)
    assert seen[1:] == [("noop", start + 500), ("resumed", start + 1_000),
                        ("done", start + 1_050)]
    assert len(after_charges) == 1
    assert proc.cpu_ns == 1_150


# -- the inline charge's host cost, counted ---------------------------------

def _python_calls(charges):
    """Python-level calls (``sys.setprofile`` call events) of a run in
    which one thread, alone on one CPU with an empty event heap, makes
    ``charges`` inline ``compute(10)`` charges."""
    kernel = Kernel(num_cpus=1)

    def body(t):
        for _ in range(charges):
            yield from t.compute(10)

    thread = kernel.spawn(kernel.spawn_process("p"), body)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        kernel.run()
    finally:
        sys.setprofile(None)
    assert thread.is_done and thread.exception is None
    assert kernel.machine.cpus[0].account.ns[Block.USER] == 10 * charges
    return calls


def test_inline_charge_python_calls():
    """The charge path's floor, counted rather than timed.

    A fast-forwarded inline charge runs four Python functions:
    ``Thread.compute``, ``Scheduler.charge``, ``_do_charge`` and
    ``Engine.skip_to``. ``_do_charge`` writes the CPU account in place,
    so billing through ``CPU.charge`` and ``Breakdown.add`` again (six
    calls) fails here, as does any other call added to the path.
    """
    charges = 2_000
    extra = _python_calls(charges) - _python_calls(0)
    assert extra <= 4 * charges
