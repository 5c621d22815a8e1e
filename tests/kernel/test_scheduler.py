"""Tests for scheduling: context switches, preemption, IPI wakes, kills."""

import pytest

from repro.hw.costs import CostModel
from repro.hw.machine import Machine
from repro.kernel import Kernel
from repro.sim.stats import Block


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def proc(kernel):
    return kernel.spawn_process("p")


def test_context_switch_charges_block5(kernel, proc):
    def body(t):
        yield from t.compute(10)
        yield from t.sleep(100)
        yield from t.compute(10)

    kernel.spawn(proc, body, pin=0)
    kernel.spawn(proc, body, pin=0)
    kernel.run()
    assert kernel.scheduler.context_switches > 0
    assert kernel.machine.cpus[0].account.ns[Block.SCHED] > 0


def test_page_table_switch_charged_across_processes(kernel):
    pa = kernel.spawn_process("a")
    pb = kernel.spawn_process("b")

    def body(t):
        for _ in range(3):
            yield from t.compute(10)
            yield t.yield_cpu()

    kernel.spawn(pa, body, pin=0)
    kernel.spawn(pb, body, pin=0)
    kernel.run()
    assert kernel.machine.cpus[0].account.ns[Block.PTSW] > 0


def test_no_page_table_switch_within_one_process(kernel, proc):
    def body(t):
        for _ in range(3):
            yield from t.compute(10)
            yield t.yield_cpu()

    kernel.spawn(proc, body, pin=0)
    kernel.spawn(proc, body, pin=0)
    kernel.run()
    assert kernel.machine.cpus[0].account.ns[Block.PTSW] == 0


def test_negative_page_table_switch_cost_is_rejected():
    # the scheduler bills PT_SWITCH into the CPU account without a sign
    # check, so a negative cost is refused when the kernel is built
    with pytest.raises(ValueError, match="PT_SWITCH"):
        Kernel(Machine(2, costs=CostModel(PT_SWITCH=-1.0)))


def test_timeslice_preemption_interleaves_cpu_hogs(kernel, proc):
    slice_ns = kernel.costs.TIMESLICE

    def hog(t):
        yield from t.compute(3 * slice_ns)

    kernel.spawn(proc, hog, pin=0, name="hog-a")
    kernel.spawn(proc, hog, pin=0, name="hog-b")
    kernel.run()
    assert kernel.scheduler.preemptions >= 2


def test_single_thread_never_preempted(kernel, proc):
    def hog(t):
        yield from t.compute(10 * kernel.costs.TIMESLICE)

    kernel.spawn(proc, hog, pin=0)
    kernel.run()
    assert kernel.scheduler.preemptions == 0


def test_cross_cpu_wake_of_idle_cpu_uses_ipi(kernel, proc):
    def sleeper(t):
        yield t.block("wait")

    target = kernel.spawn(proc, sleeper, pin=1)

    def waker(t):
        yield from t.compute(10)
        t.kernel.wake(target, from_thread=t)
        yield from t.compute(10)

    kernel.spawn(proc, waker, pin=0)
    kernel.run()
    assert kernel.scheduler.ipi_wakes == 1
    # target CPU paid the IPI handling + idle-exit scheduling
    account = kernel.machine.cpus[1].account
    assert account.ns[Block.KERNEL] >= kernel.costs.IPI_HANDLE
    assert account.ns[Block.SCHED] >= kernel.costs.IDLE_WAKE_SCHED


def test_same_cpu_wake_has_no_ipi(kernel, proc):
    def sleeper(t):
        yield t.block("wait")

    target = kernel.spawn(proc, sleeper, pin=0)

    def waker(t):
        yield from t.compute(10)
        t.kernel.wake(target, from_thread=t)
        yield from t.compute(10)

    kernel.spawn(proc, waker, pin=0)
    kernel.run()
    assert kernel.scheduler.ipi_wakes == 0
    assert target.is_done


def test_time_conservation_on_busy_cpu(kernel, proc):
    """Busy + idle time on a CPU must equal elapsed wall-clock."""
    def body(t):
        yield from t.compute(500)
        yield from t.sleep(300)
        yield from t.compute(200)

    kernel.spawn(proc, body, pin=0)
    kernel.run()
    cpu = kernel.machine.cpus[0]
    assert cpu.account.total() == pytest.approx(kernel.engine.now(), rel=1e-9)


def test_kill_process_cancels_threads(kernel):
    victim_proc = kernel.spawn_process("victim")

    def forever(t):
        while True:
            yield from t.compute(100)

    def blocked(t):
        yield t.block("never")

    runner = kernel.spawn(victim_proc, forever, pin=0)
    waiter = kernel.spawn(victim_proc, blocked, pin=1)
    kernel.engine.post(1000, lambda: kernel.kill_process(victim_proc))
    kernel.run()
    assert runner.is_done
    assert waiter.is_done
    assert not victim_proc.alive


def test_runnable_count(kernel, proc):
    def hog(t):
        yield from t.compute(10 * kernel.costs.TIMESLICE)

    kernel.spawn(proc, hog, pin=0)
    kernel.spawn(proc, hog, pin=0)
    kernel.spawn(proc, hog, pin=0)
    kernel.engine.run(max_events=4)
    assert kernel.scheduler.runnable_count() >= 1
