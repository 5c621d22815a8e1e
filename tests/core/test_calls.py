"""End-to-end cross-process dIPC calls: functionality, security, tracking."""

import pytest

from repro.codoms.apl import Permission
from repro.core.objects import EntryDescriptor, Signature
from repro.core.policies import IsolationPolicy
from repro.errors import AccessFault, DipcError

from tests.core.conftest import wire_up_call


def run_call(kernel, process, address, *args, repeat=1):
    results = []

    def body(t):
        for _ in range(repeat):
            results.append((yield from t.kernel.dipc.call(t, address,
                                                          *args)))

    kernel.spawn(process, body, pin=0)
    kernel.run()
    kernel.check()
    return results


def test_call_crosses_processes_and_returns(kernel, manager, web, database):
    address, _ = wire_up_call(manager, web, database)
    results = run_call(kernel, web, address, "key-1")
    assert results == [("row", "key-1")]


def test_call_without_grant_is_denied_p1(kernel, manager, web, database):
    """A process that never received a grant cannot call the proxy."""
    address, _ = wire_up_call(manager, web, database)
    intruder = kernel.spawn_process("intruder", dipc=True)

    def body(t):
        yield from t.kernel.dipc.call(t, address, "key")

    thread = kernel.spawn(intruder, body)
    kernel.run()
    assert isinstance(thread.exception, AccessFault)


def test_call_to_unknown_address_rejected(kernel, manager, web, database):
    wire_up_call(manager, web, database)

    def body(t):
        yield from t.kernel.dipc.call(t, 0xDEAD000, "key")

    thread = kernel.spawn(web, body)
    kernel.run()
    assert isinstance(thread.exception, DipcError)


def test_kcs_balanced_after_calls(kernel, manager, web, database):
    address, _ = wire_up_call(manager, web, database)

    def body(t):
        for _ in range(5):
            yield from t.kernel.dipc.call(t, address, "k")
        assert t.kcs.depth == 0
        assert t.kcs.max_depth_seen == 1

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()


def test_caller_domain_restored_after_call(kernel, manager, web, database):
    address, _ = wire_up_call(manager, web, database)

    def body(t):
        before = t.codoms.current_tag
        yield from t.kernel.dipc.call(t, address, "k")
        assert t.codoms.current_tag == before
        assert not t.codoms.privileged

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()


def test_current_process_switches_during_call(kernel, manager, web,
                                              database):
    observed = []

    def spy(t, key):
        observed.append(t.current_process.name)
        yield from t.compute(1)
        return key

    address, _ = wire_up_call(manager, web, database, func=spy)

    def body(t):
        yield from t.kernel.dipc.call(t, address, "k")
        observed.append(t.current_process.name)

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    assert observed == ["database", "web"]


def test_per_process_tids_differ(kernel, manager, web, database):
    """§5.2.1: primary threads appear with different identifiers on each
    process."""
    address, _ = wire_up_call(manager, web, database)

    def body(t):
        yield from t.kernel.dipc.call(t, address, "k")
        assert database.pid in t.per_process_tids
        assert t.per_process_tids[database.pid] != t.tid

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()


def test_track_cold_then_hot_path(kernel, manager, web, database):
    address, _ = wire_up_call(manager, web, database)
    stats = []

    def body(t):
        for _ in range(4):
            yield from t.kernel.dipc.call(t, address, "k")
        stats.append((t.track_state.cold_misses, t.track_state.hot_hits))

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    cold, hot = stats[0]
    assert cold == 1       # first call takes the upcall
    assert hot == 3        # the rest hit the cache array


def test_nested_cross_process_calls(kernel, manager, web, database):
    """web -> database -> storage: two proxies on one KCS."""
    storage = kernel.spawn_process("storage", dipc=True)

    def fetch(t, key):
        yield from t.compute(2)
        return f"disk:{key}"

    inner_address, _ = wire_up_call(manager, database, storage, func=fetch)

    def query(t, key):
        low = yield from t.kernel.dipc.call(t, inner_address, key)
        return ("row", low)

    outer_address, _ = wire_up_call(manager, web, database, func=query)
    depth_seen = []

    def body(t):
        result = yield from t.kernel.dipc.call(t, outer_address, "k")
        depth_seen.append(t.kcs.max_depth_seen)
        return result

    thread = kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    assert thread.result == ("row", "disk:k")
    assert depth_seen == [2]


def test_same_process_domain_call_has_no_track(kernel, manager, web):
    """dIPC also isolates components inside one process (§3, Fig. 5's
    same-process bars): no current switch, no TLS switch."""
    sandbox_dom = manager.dom_create(web)

    def helper(t, x):
        yield from t.compute(1)
        return x * 2

    descriptor = EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                                 func=helper, name="helper")
    handle = manager.entry_register(web, sandbox_dom, [descriptor])
    request = [EntryDescriptor(signature=Signature(in_regs=1, out_regs=1))]
    proxy_handle, proxies = manager.entry_request(web, handle, request)
    manager.grant_create(manager.dom_default(web), proxy_handle)
    assert not proxies[0].cross_process

    def body(t):
        result = yield from t.kernel.dipc.call(t, request[0].address, 21)
        assert result == 42
        assert t.track_state is None  # never tracked

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()


def test_high_policy_call_uses_separate_stack_and_dcs(kernel, manager, web,
                                                      database):
    seen = []

    def nosy(t, key):
        # with stack confidentiality the callee runs on its own stack
        stack = t.kernel.dipc.stacks.stack_for(t, database)
        seen.append(stack)
        yield from t.compute(1)
        return key

    address, proxy = wire_up_call(
        manager, web, database,
        caller_policy=IsolationPolicy.high(),
        callee_policy=IsolationPolicy.high(), func=nosy)
    assert proxy.policy.stack_confidentiality

    def body(t):
        caller_stack = t.kernel.dipc.stacks.stack_for(t, web)
        yield from t.kernel.dipc.call(t, address, "k")
        assert seen[0] is not caller_stack

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()


def test_dcs_integrity_hides_caller_entries(kernel, manager, web, database):
    from repro.codoms.capability import mint_from_apl

    leaked = []

    def snoop(t, key):
        # the callee tries to pop the caller's spilled capability
        try:
            leaked.append(t.codoms.dcs.pop())
        except Exception:
            leaked.append(None)
        yield from t.compute(1)
        return key

    address, _ = wire_up_call(
        manager, web, database,
        caller_policy=IsolationPolicy(dcs_integrity=True), func=snoop)

    def body(t):
        secret = mint_from_apl(Permission.WRITE, 0x1000, 64,
                               Permission.READ, synchronous=True,
                               owner_thread=t)
        t.codoms.dcs.push(secret)
        yield from t.kernel.dipc.call(t, address, "k")
        assert t.codoms.dcs.pop() is secret  # still there afterwards

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    assert leaked == [None]
