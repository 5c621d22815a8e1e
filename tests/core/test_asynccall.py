"""Tests for asynchronous dIPC calls (§5.4)."""

import pytest

from repro.core.asynccall import Future, call_async
from repro.errors import DipcError, RemoteFault

from tests.core.conftest import wire_up_call


def test_async_call_overlaps_with_caller_work(kernel, manager, web,
                                              database):
    def slow_query(t, key):
        yield from t.sleep(10_000)
        return ("row", key)

    _, proxy = wire_up_call(manager, web, database, func=slow_query)
    timeline = []

    def body(t):
        future = call_async(t, proxy, "k", pin=1)
        yield from t.compute(2_000)  # caller keeps working meanwhile
        timeline.append(("worked", t.now()))
        result = yield from future.wait(t)
        timeline.append(("joined", t.now()))
        return result

    thread = kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    assert thread.result == ("row", "k")
    assert timeline[0][1] < 10_000      # caller progressed before callee
    assert timeline[1][1] >= 10_000     # join waited for the callee


def test_async_fault_delivered_at_wait(kernel, manager, web, database):
    def buggy(t, key):
        yield from t.compute(1)
        raise ValueError("nope")

    _, proxy = wire_up_call(manager, web, database, func=buggy)
    caught = []

    def body(t):
        future = call_async(t, proxy, "k")
        try:
            yield from future.wait(t)
        except RemoteFault as fault:
            caught.append(fault)

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    assert len(caught) == 1


def test_poll_without_blocking(kernel, manager, web, database):
    address, proxy = wire_up_call(manager, web, database)
    polls = []

    def body(t):
        future = call_async(t, proxy, "k")
        polls.append(future.poll())
        yield from t.sleep(50_000)
        polls.append(future.poll())

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    assert polls == [False, True]


def test_multiple_waiters(kernel, manager, web, database):
    def slow(t, key):
        yield from t.sleep(5_000)
        return key

    _, proxy = wire_up_call(manager, web, database, func=slow)
    results = []

    def make_waiter(future):
        def waiter(t):
            results.append((yield from future.wait(t)))
        return waiter

    def body(t):
        future = call_async(t, proxy, "shared")
        t.kernel.spawn(web, make_waiter(future))
        t.kernel.spawn(web, make_waiter(future))
        results.append((yield from future.wait(t)))

    kernel.spawn(web, body)
    kernel.run()
    kernel.check()
    assert results == ["shared"] * 3


def test_wait_after_completion_returns_immediately(kernel, manager, web,
                                                   database):
    _, proxy = wire_up_call(manager, web, database)

    def body(t):
        future = call_async(t, proxy, "k")
        yield from t.sleep(100_000)
        start = t.now()
        yield from future.wait(t)
        assert t.now() == start  # no blocking, already done

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()


def test_double_completion_rejected(kernel):
    future = Future(kernel)
    future._complete(value=1)
    with pytest.raises(DipcError):
        future._complete(value=2)
