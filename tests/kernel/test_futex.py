"""Tests for the futex primitive."""

import pytest

from repro.kernel import Futex, Kernel
from repro.sim.stats import Block


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def proc(kernel):
    return kernel.spawn_process("p")


def test_wait_on_positive_value_does_not_block(kernel, proc):
    futex = Futex(kernel, value=1)
    done = []

    def body(t):
        yield from futex.wait(t)
        done.append(True)

    kernel.spawn(proc, body)
    kernel.run()
    assert done == [True]
    assert futex.value == 0


def test_wait_blocks_until_wake(kernel, proc):
    futex = Futex(kernel)
    order = []

    def waiter(t):
        order.append("wait-start")
        yield from futex.wait(t)
        order.append("woken")

    def waker(t):
        yield from t.compute(500)
        order.append("waking")
        yield from futex.wake(t)

    kernel.spawn(proc, waiter, pin=0)
    kernel.spawn(proc, waker, pin=0)
    kernel.run()
    assert order == ["wait-start", "waking", "woken"]


def test_wake_without_waiters_banks_value(kernel, proc):
    futex = Futex(kernel)

    def waker(t):
        yield from futex.wake(t)

    kernel.spawn(proc, waker)
    kernel.run()
    assert futex.value == 1

    done = []

    def waiter(t):
        yield from futex.wait(t)
        done.append(True)

    kernel.spawn(proc, waiter)
    kernel.run()
    assert done == [True]


def test_wake_count_releases_multiple_waiters(kernel, proc):
    futex = Futex(kernel)
    woken = []

    def waiter(t, i):
        yield from futex.wait(t)
        woken.append(i)

    for i in range(3):
        kernel.spawn(proc, lambda t, i=i: waiter(t, i))

    def waker(t):
        yield from t.compute(100)
        yield from futex.wake(t, count=3)

    kernel.spawn(proc, waker)
    kernel.run()
    assert sorted(woken) == [0, 1, 2]


def test_wake_from_event_context(kernel, proc):
    futex = Futex(kernel)
    done = []

    def waiter(t):
        yield from futex.wait(t)
        done.append(t.now())

    kernel.spawn(proc, waiter)
    kernel.engine.post(5000, futex.wake_from_event)
    kernel.run()
    assert done and done[0] >= 5000


def test_futex_charges_kernel_blocks(kernel, proc):
    futex = Futex(kernel, value=1)

    def body(t):
        yield from futex.wait(t)

    kernel.spawn(proc, body, pin=0)
    kernel.run()
    account = kernel.machine.cpus[0].account
    assert account.ns[Block.KERNEL] >= kernel.costs.FUTEX_WAIT_WORK
    assert account.ns[Block.SYSCALL] == kernel.costs.SYSCALL_HW


def test_two_waiters_one_token_only_one_proceeds(kernel, proc):
    futex = Futex(kernel)
    proceeded = []

    def waiter(t, i):
        yield from futex.wait(t)
        proceeded.append(i)

    kernel.spawn(proc, lambda t: waiter(t, 0))
    kernel.spawn(proc, lambda t: waiter(t, 1))

    def waker(t):
        yield from t.compute(10)
        yield from futex.wake(t, count=1)

    kernel.spawn(proc, waker)
    kernel.run(until_ns=1_000_000)
    assert len(proceeded) == 1
