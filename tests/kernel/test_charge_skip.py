"""The Charge fast-forward (``Engine.skip_to``) changes no simulated event.

A Charge whose continuation would be the next event to fire completes
inline instead of posting ``_after_charge``. The differential tests run
each case twice, as is and with ``skip_to`` patched to always refuse
(every Charge posts its continuation), and require equal results; each
also checks that the skip really fired, so the comparison is not
vacuous. The unit tests pin every precondition under which ``skip_to``
must refuse and leave the clock alone.
"""

import pytest

from repro.kernel import Kernel
from repro.session import Session
from repro.sim.engine import Engine
from repro.sim.stats import Block


def _both_paths(monkeypatch, run):
    """``run()`` with the skip, then with every Charge posting; returns
    both results and how many continuations the first run skipped."""
    original = Engine.skip_to
    skipped = 0

    def counting(self, delay_ns):
        nonlocal skipped
        hit = original(self, delay_ns)
        skipped += hit
        return hit

    monkeypatch.setattr(Engine, "skip_to", counting)
    fast = run()
    monkeypatch.setattr(Engine, "skip_to", lambda self, delay_ns: False)
    slow = run()
    return fast, slow, skipped


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

    fast, slow, skipped = _both_paths(
        monkeypatch,
        lambda: fig05_sync_calls.compute_point(label=label, iters=200))
    assert skipped > 0
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

    (fast, fast_pre), (slow, slow_pre), skipped = _both_paths(
        monkeypatch, run)
    assert skipped > 0
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

    fast, slow, skipped = _both_paths(monkeypatch, run)
    assert skipped > 0
    assert fast == slow
    result, log, audit, violations, events = fast
    assert "-> killed" in log
    assert events                      # the supervisor acted
    assert audit == [] and violations == []


def test_explored_schedule_is_unchanged(monkeypatch):
    from repro.check.explore import explore_one
    fast, slow, skipped = _both_paths(
        monkeypatch,
        lambda: explore_one("chain4", seed=7, schedule=3, chaos=True))
    assert skipped > 0
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
            yield t.compute(100)
            kernel.wake(threads["pong"], from_thread=t)
            yield t.block("ping")

    def pong(t):
        for _ in range(rounds):
            yield t.block("pong")
            yield from t.syscall(60)
            yield t.compute(250)
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

    fast, slow, skipped = _both_paths(monkeypatch, run)
    assert skipped > 0
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
            yield t.compute(slice_ns * 1.5)   # overruns; nobody waits
            kernel.wake(threads["sleeper"])    # now somebody does
            yield t.compute(1000)
            order.append(("hog", t.now()))

        threads["sleeper"] = kernel.spawn(proc, sleeper, pin=0)
        threads["hog"] = kernel.spawn(proc, hog, pin=0)
        kernel.run()
        return (order, kernel.scheduler.preemptions,
                kernel.engine.events_processed)

    fast, slow, skipped = _both_paths(monkeypatch, run)
    assert skipped > 0
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
                yield t.compute(10 + step)

        kernel.spawn(kernel.spawn_process("p"), body)
        kernel.engine.at_event_count(
            17, lambda: seen.append((kernel.engine.now(),
                                     kernel.engine.events_processed,
                                     len(progress))))
        kernel.run()
        return seen, kernel.engine.events_processed

    fast, slow, skipped = _both_paths(monkeypatch, run)
    assert skipped > 0
    assert fast == slow
    assert fast[0][0][1] == 17
