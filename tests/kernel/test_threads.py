"""Tests for thread execution, blocking, joining and time charging."""

import pytest

from repro.kernel import Kernel
from repro.sim.stats import Block


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def proc(kernel):
    return kernel.spawn_process("p")


def test_thread_runs_and_returns(kernel, proc):
    def body(t):
        yield from t.compute(100)
        return 42

    thread = kernel.spawn(proc, body)
    kernel.run()
    assert thread.is_done
    assert thread.result == 42


def test_compute_advances_time_and_charges_user(kernel, proc):
    def body(t):
        yield from t.compute(250)

    kernel.spawn(proc, body, pin=0)
    kernel.run()
    assert kernel.engine.now() >= 250
    assert kernel.machine.cpus[0].account.ns[Block.USER] == 250


def test_syscall_charges_all_three_blocks(kernel, proc):
    def body(t):
        yield from t.syscall(6.0)

    kernel.spawn(proc, body, pin=0)
    kernel.run()
    account = kernel.machine.cpus[0].account
    assert account.ns[Block.SYSCALL] == kernel.costs.SYSCALL_HW
    assert account.ns[Block.TRAMPOLINE] == kernel.costs.SYSCALL_TRAMPOLINE
    assert account.ns[Block.KERNEL] == 6.0


def test_block_and_wake_passes_value(kernel, proc):
    got = []

    def sleeper(t):
        value = yield t.block("test")
        got.append(value)

    thread = kernel.spawn(proc, sleeper)

    def waker(t):
        yield from t.compute(50)
        t.kernel.wake(thread, "payload", from_thread=t)

    kernel.spawn(proc, waker)
    kernel.run()
    assert got == ["payload"]


def test_sleep_blocks_for_duration(kernel, proc):
    wake_times = []

    def body(t):
        yield from t.sleep(1000)
        wake_times.append(t.now())

    kernel.spawn(proc, body)
    kernel.run()
    assert wake_times and wake_times[0] >= 1000


def test_join_returns_result(kernel, proc):
    def worker(t):
        yield from t.compute(10)
        return "done"

    results = []

    def joiner(t):
        worker_thread = t.kernel.spawn(proc, worker)
        results.append((yield from t.join(worker_thread)))

    kernel.spawn(proc, joiner)
    kernel.run()
    assert results == ["done"]


def test_join_reraises_exception(kernel, proc):
    def crasher(t):
        yield from t.compute(1)
        raise ValueError("boom")

    caught = []

    def joiner(t):
        crash_thread = t.kernel.spawn(proc, crasher)
        try:
            yield from t.join(crash_thread)
        except ValueError as exc:
            caught.append(str(exc))

    kernel.spawn(proc, joiner)
    kernel.run()
    assert caught == ["boom"]


def test_crash_is_recorded_and_check_raises(kernel, proc):
    def body(t):
        yield from t.compute(1)
        raise RuntimeError("unhandled")

    kernel.spawn(proc, body)
    kernel.run()
    assert len(kernel.crashed_threads) == 1
    with pytest.raises(RuntimeError):
        kernel.check()


def test_pinned_threads_stay_on_their_cpu(kernel, proc):
    def body(t):
        for _ in range(5):
            yield from t.compute(10)
            yield t.yield_cpu()

    a = kernel.spawn(proc, body, pin=0)
    b = kernel.spawn(proc, body, pin=1)
    kernel.run()
    assert a.last_cpu_index == 0
    assert b.last_cpu_index == 1
    assert kernel.machine.cpus[0].account.ns[Block.USER] == 50
    assert kernel.machine.cpus[1].account.ns[Block.USER] == 50


def test_unpinned_threads_spread_across_idle_cpus(kernel, proc):
    def body(t):
        yield from t.compute(1000)

    threads = [kernel.spawn(proc, body) for _ in range(2)]
    kernel.run()
    assert {t.last_cpu_index for t in threads} == {0, 1}


def test_idle_time_is_accounted(kernel, proc):
    def body(t):
        yield from t.sleep(10000)

    kernel.spawn(proc, body, pin=0)
    kernel.run()
    idle = kernel.machine.cpus[0].account.ns[Block.IDLE]
    assert idle >= 9000  # most of the 10us was idle


def test_non_effect_yield_is_a_crash(kernel, proc):
    def body(t):
        yield "garbage"

    thread = kernel.spawn(proc, body)
    kernel.run()
    assert isinstance(thread.exception, TypeError)


def test_wake_is_level_triggered_and_idempotent(kernel, proc):
    def body(t):
        yield from t.compute(5)

    thread = kernel.spawn(proc, body)
    kernel.wake(thread)  # extra wake while runnable is harmless
    kernel.run()
    assert thread.is_done


def test_spawn_on_dead_process_rejected(kernel, proc):
    proc.exit(0)
    from repro.errors import DeadProcessError
    with pytest.raises(DeadProcessError):
        kernel.spawn(proc, lambda t: iter(()))
