"""DPTI tagged-page-table endpoint: call semantics, peer death, A10."""

import pytest

from repro.errors import PeerResetError
from repro.fault import InvariantAuditor
from repro.ipc.dpti import DptiEndpoint, domain_table
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel(num_cpus=1)


def _endpoint(kernel, handler):
    server = kernel.spawn_process("dpti-server")
    endpoint = DptiEndpoint(kernel, handler)
    endpoint.bind_owner(server)
    return endpoint, server


def test_call_runs_handler_inline_and_returns_reply(kernel):
    seen = []

    def handler(t, payload):
        seen.append(payload)
        yield from t.compute(10.0)
        return payload * 2

    endpoint, server = _endpoint(kernel, handler)
    client = kernel.spawn_process("client")
    got = []

    def body(t):
        reply = yield from endpoint.call(t, 21, size=64, reply_size=8)
        got.append(reply)

    kernel.spawn(client, body)
    kernel.run()
    kernel.check()
    assert seen == [21]
    assert got == [42]
    assert endpoint.calls == 1
    # the owner's tagged context is installed exactly once
    assert list(domain_table(kernel).values()) == [server]


def test_larger_arguments_cost_more_simulated_time(kernel):
    def handler(t, payload):
        yield from t.compute(0.0)
        return "ok"

    endpoint, _ = _endpoint(kernel, handler)
    client = kernel.spawn_process("client")
    finished = {}

    def body_for(size, key):
        def body(t):
            yield from endpoint.call(t, None, size=size, reply_size=1)
            finished[key] = t.now()
        return body

    kernel.spawn(client, body_for(0, "small"))
    kernel.run()
    kernel.check()
    small = finished["small"]

    kernel2 = Kernel(num_cpus=1)
    endpoint2, _ = _endpoint(kernel2, handler)
    client2 = kernel2.spawn_process("client")
    kernel2.spawn(client2, body_for(64 * 1024, "big"))
    kernel2.run()
    kernel2.check()
    assert finished["big"] > small


def test_owner_death_mid_call_unwinds_and_retires_the_pcid(kernel):
    def handler(t, payload):
        yield from t.sleep(10_000)
        return "never"

    endpoint, server = _endpoint(kernel, handler)
    client = kernel.spawn_process("client")
    errors = []

    def body(t):
        try:
            yield from endpoint.call(t, "ping", size=128, reply_size=8)
        except PeerResetError as exc:
            errors.append(exc)

    kernel.spawn(client, body)
    kernel.engine.post(5_000, lambda: kernel.kill_process(server))
    kernel.run()
    kernel.check()
    assert len(errors) == 1
    assert endpoint.hung_up
    # the killed owner must not leak a tagged-PT entry (A10)
    assert server not in domain_table(kernel).values()
    assert InvariantAuditor(kernel).audit() == []


def test_call_against_hung_up_endpoint_fails_fast(kernel):
    def handler(t, payload):
        yield from t.compute(0.0)
        return "ok"

    endpoint, server = _endpoint(kernel, handler)
    kernel.kill_process(server)
    client = kernel.spawn_process("client")
    errors = []

    def body(t):
        try:
            yield from endpoint.call(t, "ping")
        except PeerResetError as exc:
            errors.append(exc)

    kernel.spawn(client, body)
    kernel.run()
    kernel.check()
    assert len(errors) == 1


def test_handler_swallowing_the_unwind_cannot_hide_the_hangup(kernel):
    def handler(t, payload):
        try:
            yield from t.sleep(10_000)
        except PeerResetError:
            return "swallowed"
        return "never"

    endpoint, server = _endpoint(kernel, handler)
    client = kernel.spawn_process("client")
    errors = []

    def body(t):
        try:
            yield from endpoint.call(t, "ping")
        except PeerResetError as exc:
            errors.append(exc)

    kernel.spawn(client, body)
    kernel.engine.post(5_000, lambda: kernel.kill_process(server))
    kernel.run()
    kernel.check()
    assert len(errors) == 1


def test_rebinding_retires_the_previous_tagged_context(kernel):
    def handler(t, payload):
        yield from t.compute(0.0)
        return "ok"

    endpoint, first = _endpoint(kernel, handler)
    first_pcids = set(domain_table(kernel))
    second = kernel.spawn_process("dpti-server-2")
    endpoint.bind_owner(second)
    table = domain_table(kernel)
    assert set(table) != first_pcids
    assert list(table.values()) == [second]


def test_auditor_reports_a_planted_tagged_context_leak(kernel):
    victim = kernel.spawn_process("victim")
    kernel.kill_process(victim)
    domain_table(kernel)[99] = victim
    violations = InvariantAuditor(kernel).audit()
    assert any(v.startswith("A10") and "victim" in v
               for v in violations)
