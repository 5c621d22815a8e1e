"""Crash/kill unwinding across the KCS (§5.2.1, P5) and time-outs (§5.4)."""

import pytest

from repro.core.policies import IsolationPolicy
from repro.core.timeouts import call_with_timeout
from repro.errors import CallTimeout, DipcError, RemoteFault

from tests.core.conftest import wire_up_call


def test_callee_crash_becomes_remote_fault(kernel, manager, web, database):
    def buggy(t, key):
        yield from t.compute(1)
        raise ValueError("corrupt row")

    address, _ = wire_up_call(manager, web, database, func=buggy)
    caught = []

    def body(t):
        try:
            yield from t.kernel.dipc.call(t, address, "k")
        except RemoteFault as fault:
            caught.append(fault)
        assert t.kcs.depth == 0  # fully unwound

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    assert len(caught) == 1
    assert caught[0].origin == "database"
    assert caught[0].unwound_frames == 1


def test_caller_state_restored_after_fault(kernel, manager, web, database):
    def buggy(t, key):
        yield from t.compute(1)
        raise RuntimeError("boom")

    address, _ = wire_up_call(manager, web, database, func=buggy)

    def body(t):
        tag_before = t.codoms.current_tag
        try:
            yield from t.kernel.dipc.call(t, address, "k")
        except RemoteFault:
            pass
        assert t.codoms.current_tag == tag_before
        assert t.current_process is web

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()


def test_nested_crash_unwinds_one_level(kernel, manager, web, database):
    """web -> database -> storage; storage crashes; database (alive)
    catches the flagged error — the nearest live caller gets it."""
    storage = kernel.spawn_process("storage", dipc=True)

    def exploding(t, key):
        yield from t.compute(1)
        raise ValueError("disk on fire")

    inner, _ = wire_up_call(manager, database, storage, func=exploding)
    db_caught = []

    def query(t, key):
        try:
            yield from t.kernel.dipc.call(t, inner, key)
        except RemoteFault as fault:
            db_caught.append(fault.origin)
            return ("degraded", key)

    outer, _ = wire_up_call(manager, web, database, func=query)

    def body(t):
        return (yield from t.kernel.dipc.call(t, outer, "k"))

    thread = kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    assert db_caught == ["storage"]
    assert thread.result == ("degraded", "k")


def test_nested_crash_skips_dead_intermediate(kernel, manager, web,
                                              database):
    """If the intermediate process dies while the thread is deeper in the
    chain, the unwind skips it and lands at the oldest live caller."""
    storage = kernel.spawn_process("storage", dipc=True)

    def slow_fetch(t, key):
        yield from t.sleep(50_000)
        raise ValueError("storage crashed late")

    inner, _ = wire_up_call(manager, database, storage, func=slow_fetch)

    def query(t, key):
        return (yield from t.kernel.dipc.call(t, inner, key))

    outer, _ = wire_up_call(manager, web, database, func=query)
    caught = []

    def body(t):
        try:
            yield from t.kernel.dipc.call(t, outer, "k")
        except RemoteFault as fault:
            caught.append(fault.unwound_frames)
        assert t.kcs.depth == 0

    kernel.spawn(web, body, pin=0)
    # kill the intermediate while the thread sleeps inside storage
    kernel.engine.post(10_000, lambda: database.exit(-9))
    kernel.run()
    kernel.check()
    assert caught == [2]  # unwound through database's dead frame


def test_kill_of_callee_process_unwinds_visitors(kernel, manager, web,
                                                 database):
    """§5.2.1: killing a process cannot simply terminate threads visiting
    it — the caller (web) survives with a flagged error."""
    def stuck(t, key):
        yield t.block("never-returns")

    address, _ = wire_up_call(manager, web, database, func=stuck)
    caught = []

    def body(t):
        try:
            yield from t.kernel.dipc.call(t, address, "k")
        except RemoteFault as fault:
            caught.append(fault)

    thread = kernel.spawn(web, body, pin=0)
    kernel.engine.post(5_000, lambda: kernel.kill_process(database))
    kernel.run()
    kernel.check()
    assert thread.is_done
    assert len(caught) == 1
    assert not database.alive
    assert web.alive


def test_kill_of_home_process_terminates_thread_abroad(kernel, manager,
                                                       web, database):
    def stuck(t, key):
        yield t.block("never-returns")

    address, _ = wire_up_call(manager, web, database, func=stuck)

    def body(t):
        yield from t.kernel.dipc.call(t, address, "k")

    thread = kernel.spawn(web, body, pin=0)
    kernel.engine.post(5_000, lambda: kernel.kill_process(web))
    kernel.run()
    # no live caller remains: the thread dies with the unhandled fault
    assert thread.is_done
    assert thread.exception is not None


class TestTimeouts:
    def wire_slow_entry(self, kernel, manager, web, database, delay_ns):
        def slow(t, key):
            yield from t.sleep(delay_ns)
            return ("late", key)

        return wire_up_call(
            manager, web, database,
            caller_policy=IsolationPolicy.high(),
            callee_policy=IsolationPolicy.high(), func=slow)

    def test_fast_call_completes_normally(self, kernel, manager, web,
                                          database):
        _, proxy = self.wire_slow_entry(kernel, manager, web, database,
                                        1_000)
        results = []

        def body(t):
            results.append((yield from call_with_timeout(
                t, proxy, ("k",), timeout_ns=1_000_000)))

        kernel.spawn(web, body, pin=0)
        kernel.run()
        kernel.check()
        assert results == [("late", "k")]

    def test_timeout_raises_and_splits(self, kernel, manager, web,
                                       database):
        _, proxy = self.wire_slow_entry(kernel, manager, web, database,
                                        10_000_000)
        caught = []
        after = []

        def body(t):
            try:
                yield from call_with_timeout(t, proxy, ("k",),
                                             timeout_ns=100_000)
            except CallTimeout as exc:
                caught.append(exc)
            after.append(t.now())

        kernel.spawn(web, body, pin=0)
        kernel.run()
        kernel.check()
        assert len(caught) == 1
        # the caller resumed at the timeout, not after the 10ms callee
        assert after[0] < 1_000_000
        # ... while the split callee half ran to completion and died
        assert kernel.engine.now() >= 10_000_000

    def test_timeout_requires_stack_confidentiality(self, kernel, manager,
                                                    web, database):
        address, proxy = wire_up_call(manager, web, database)  # Low policy
        failures = []

        def body(t):
            try:
                yield from call_with_timeout(t, proxy, ("k",),
                                             timeout_ns=1_000)
            except DipcError as exc:
                failures.append(exc)

        kernel.spawn(web, body, pin=0)
        kernel.run()
        kernel.check()
        assert len(failures) == 1

    def test_callee_error_before_timeout_propagates(self, kernel, manager,
                                                    web, database):
        def buggy(t, key):
            yield from t.compute(1)
            raise ValueError("boom")

        _, proxy = wire_up_call(
            manager, web, database,
            caller_policy=IsolationPolicy.high(),
            callee_policy=IsolationPolicy.high(), func=buggy)
        caught = []

        def body(t):
            try:
                yield from call_with_timeout(t, proxy, ("k",),
                                             timeout_ns=1_000_000)
            except RemoteFault as exc:
                caught.append(exc)

        kernel.spawn(web, body, pin=0)
        kernel.run()
        kernel.check()
        assert len(caught) == 1
