"""FaultInjector actions, event-count triggers, and the auditor sweep."""

import pytest

from repro.codoms.apl import Permission
from repro.errors import (AccessFault, InvariantViolation, ProtectionFault,
                          SimulationError)
from repro.fault import FaultInjector, FaultPlan, FaultRule, InvariantAuditor
from repro.ipc.unixsocket import SocketNamespace
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


def _spin(thread, loops=50, ns=100):
    for _ in range(loops):
        yield from thread.compute(ns)


# -- engine event-count triggers ---------------------------------------------

def test_at_event_count_fires_at_exact_position(kernel):
    engine = kernel.engine
    seen = []
    for i in range(10):
        engine.post(float(i), lambda i=i: seen.append(("ev", i)))
    engine.at_event_count(3, lambda: seen.append(("trigger",
                                                  engine.events_processed)))
    engine.run()
    assert ("trigger", 3) in seen
    assert seen.index(("trigger", 3)) == 3  # right after the 3rd event


def test_at_event_count_in_past_raises(kernel):
    engine = kernel.engine
    engine.post(0, lambda: None)
    engine.post(0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.at_event_count(1, lambda: None)


def test_unreached_trigger_does_not_block_drain(kernel):
    engine = kernel.engine
    engine.post(0, lambda: None)
    engine.at_event_count(1_000_000, lambda: None)
    engine.run()
    assert engine.pending() == 0


# -- injector actions ---------------------------------------------------------

def test_kill_process_action(kernel):
    victim = kernel.spawn_process("victim")
    kernel.spawn(victim, _spin, name="victim/t")
    plan = FaultPlan([FaultRule("kill_process", "victim", at_ns=500.0)])
    injector = FaultInjector(kernel, plan)
    injector.arm()
    kernel.run_all()
    assert not victim.alive
    assert [r.outcome for r in injector.records] == ["killed"]
    # the record carries deterministic sim-state coordinates
    assert injector.records[0].time_ns == 500.0
    assert injector.records[0].event_index > 0


def test_kill_process_missing_and_dead_outcomes(kernel):
    victim = kernel.spawn_process("victim")
    kernel.kill_process(victim)
    plan = FaultPlan([
        FaultRule("kill_process", "victim", at_ns=10.0),
        FaultRule("kill_process", "ghost", at_ns=20.0),
    ])
    injector = FaultInjector(kernel, plan)
    injector.arm()
    kernel.run_all()
    assert [r.outcome for r in injector.records] == \
        ["already-dead", "no-such-process"]


def test_crash_thread_injects_protection_fault(kernel):
    proc = kernel.spawn_process("app")
    kernel.spawn(proc, _spin, name="app/worker")
    plan = FaultPlan([FaultRule("crash_thread", "app/", at_ns=300.0)])
    injector = FaultInjector(kernel, plan)
    injector.arm()
    kernel.run_all()
    assert injector.records[0].outcome == "faulted app/worker"
    assert len(kernel.crashed_threads) == 1
    assert isinstance(kernel.crashed_threads[0].exception, AccessFault)


def test_crash_thread_no_match(kernel):
    plan = FaultPlan([FaultRule("crash_thread", "nobody/", at_ns=5.0)])
    injector = FaultInjector(kernel, plan)
    injector.arm()
    kernel.run_all()
    assert injector.records[0].outcome == "no-match"


def test_revoke_grant_removes_apl_edge(kernel):
    from repro.core.api import DipcManager
    from tests.core.conftest import wire_up_call

    manager = DipcManager(kernel)
    web = kernel.spawn_process("web", dipc=True)
    database = kernel.spawn_process("database", dipc=True)
    wire_up_call(manager, web, database)
    assert len(manager.grants) >= 1
    grant = manager.grants[0]
    plan = FaultPlan([FaultRule("revoke_grant", "grant", at_ns=5.0)])
    injector = FaultInjector(kernel, plan)
    injector.arm()
    kernel.run_all()
    assert grant.revoked
    assert kernel.apls.apl_of(grant.src_tag).permission_to(
        grant.dst_tag) is Permission.NIL
    assert injector.records[0].outcome == \
        f"revoked {grant.src_tag}->{grant.dst_tag}"


def test_drop_message_loses_a_queued_datagram(kernel):
    ns = SocketNamespace()
    proc = kernel.spawn_process("p")
    receiver = ns.socket(kernel)
    receiver.bind("/box")
    sender = ns.socket(kernel)

    def send(t):
        yield from sender.sendto(t, "/box", 64, payload="precious")

    kernel.spawn(proc, send)
    plan = FaultPlan([FaultRule("drop_message", "box", at_ns=5_000.0)])
    injector = FaultInjector(kernel, plan)
    injector.register_channel("box", receiver)
    injector.arm()
    kernel.run_all()
    assert injector.records[0].outcome == "dropped 64B"
    assert receiver.queued == 0


def test_delay_message_redelivers_later(kernel):
    ns = SocketNamespace()
    proc = kernel.spawn_process("p")
    receiver = ns.socket(kernel)
    receiver.bind("/box")
    sender = ns.socket(kernel)
    got = []

    def send(t):
        yield from sender.sendto(t, "/box", 32, payload="slow")

    def recv(t):
        got.append((yield from receiver.recvfrom(t)))

    kernel.spawn(proc, send)
    kernel.spawn(proc, recv)
    plan = FaultPlan([FaultRule("delay_message", "box", at_ns=3_000.0,
                                param=40_000)])
    injector = FaultInjector(kernel, plan)
    injector.register_channel("box", receiver)
    injector.arm()
    kernel.run_all()
    assert injector.records[0].outcome == "delayed 32B by 40000ns"
    assert got and got[0][0] == "slow"
    assert kernel.engine.now() >= 43_000.0  # delivery waited for the delay


def test_arming_twice_raises(kernel):
    injector = FaultInjector(kernel, FaultPlan([]))
    injector.arm()
    with pytest.raises(SimulationError):
        injector.arm()


# -- auditor -------------------------------------------------------------------

def test_auditor_clean_on_quiet_kernel(kernel):
    proc = kernel.spawn_process("p")
    kernel.spawn(proc, _spin)
    kernel.run_all()
    assert InvariantAuditor(kernel).audit() == []
    InvariantAuditor(kernel).assert_clean()


def test_auditor_flags_pending_events(kernel):
    kernel.engine.post(100.0, lambda: None)
    violations = InvariantAuditor(kernel).audit()
    assert any(v.startswith("A1") for v in violations)


def test_auditor_flags_live_thread_of_dead_process(kernel):
    proc = kernel.spawn_process("p")
    thread = kernel.spawn(proc, _spin)
    kernel.run_all()
    proc.alive = False  # simulate a buggy kill that skipped teardown
    thread.state = "blocked"
    violations = InvariantAuditor(kernel).audit()
    assert any(v.startswith("A2") for v in violations)
    with pytest.raises(InvariantViolation):
        InvariantAuditor(kernel).assert_clean()


def test_auditor_flags_unbalanced_kcs_and_unreaped_split(kernel):
    from repro.core.kcs import KCSEntry, KernelControlStack

    proc = kernel.spawn_process("p")
    thread = kernel.spawn(proc, _spin, start=False)
    thread.kcs = KernelControlStack()
    thread.kcs.push(KCSEntry(proxy=None, caller_process=proc,
                             caller_tag=None, caller_privileged=False,
                             return_address=0, saved_stack_pointer=0,
                             saved_stack=None, callee_process=proc))
    thread.is_split_half = True
    violations = InvariantAuditor(kernel).audit()
    assert any(v.startswith("A3") for v in violations)
    assert any(v.startswith("A5") for v in violations)


def test_auditor_flags_unsanctioned_crash(kernel):
    proc = kernel.spawn_process("p")

    def bomb(t):
        yield from t.compute(10)
        raise RuntimeError("not a chaos fault")

    kernel.spawn(proc, bomb)
    kernel.run_all()
    violations = InvariantAuditor(
        kernel, allowed_crashes=(ProtectionFault,)).audit()
    assert any("A8" in v and "RuntimeError" in v for v in violations)
    # the same crash is sanctioned when its class is allowed
    assert InvariantAuditor(
        kernel, allowed_crashes=(RuntimeError,)).audit() == []
