"""The channel contract: one class per primitive, shared by the
single-hop transport and every topology edge."""

import pytest

from repro import primitives, units
from repro.fault import FaultInjector, FaultPlan, FaultRule
from repro.kernel import Kernel
from repro.load import LoadParams, run_load_point
from repro.load.queueing import LOAD_SURVIVABLE
from repro.load.transports import (Channel, DownstreamFault, Transport,
                                   make_transport)
from repro.topo import generate

POOLED = primitives.names(has_worker_threads=True)


class _Recording(Transport):
    """A single-hop transport whose service body records who served."""

    def __init__(self, params):
        super().__init__(params)
        self.served = []

    def serve(self, t, payload):
        self.served.append((t.name, payload))
        yield from super().serve(t, payload)


def _drive(kernel, transport, calls):
    """Issue ``calls`` — (payload, shard) pairs — one after another from
    one client thread; returns each reply or survivable failure."""
    results = []

    def client(t):
        for payload, shard in calls:
            try:
                reply = yield from transport.channel.call(t, payload,
                                                          shard=shard)
            except LOAD_SURVIVABLE as exc:
                reply = exc
            results.append(reply)

    kernel.spawn(transport.client_proc, client, name="load-clients/c0")
    kernel.run()
    return results


def _single_hop(primitive, transport_cls=_Recording, **overrides):
    kernel = Kernel(num_cpus=2)
    params = dict(primitive=primitive, n_workers=2)
    params.update(overrides)
    transport = transport_cls(LoadParams(**params))
    transport.build(kernel)
    return kernel, transport


@pytest.mark.parametrize("primitive", ["pipe", "l4"])
def test_sticky_callers_keep_their_shard_and_shardless_ones_rotate(
        primitive):
    kernel, transport = _single_hop(primitive)
    calls = [(i, 3) for i in range(3)] + [(i, None) for i in range(4)]
    assert _drive(kernel, transport, calls) == ["ok"] * 7
    workers = [name for name, _payload in transport.served]
    # shard 3 of 2 workers is always endpoint 1 ...
    assert workers[:3] == ["load-server/w1"] * 3
    # ... and callers without a shard take the endpoints in turn
    assert workers[3:] == ["load-server/w0", "load-server/w1"] * 2


def test_socket_sticky_caller_reuses_one_reply_socket():
    kernel, transport = _single_hop("socket")
    ns = transport.ns
    seen = []

    def client(t):
        for _ in range(2):
            yield from transport.channel.call(t, "x", shard=1)
            seen.append(ns.lookup("/load/reply1"))

    kernel.spawn(transport.client_proc, client, name="load-clients/c1")
    kernel.run()
    assert len(seen) == 2 and seen[0] is seen[1]
    assert not seen[0].closed


def test_socket_shardless_call_unbinds_its_reply_path():
    kernel, transport = _single_hop("socket")
    bound_during_call = []

    def serve(t, payload):
        bound_during_call.append(transport.ns.lookup("/load/r1"))
        yield from t.compute(100.0)

    transport.channel.serve = serve
    assert _drive(kernel, transport, [("x", None)]) == ["ok"]
    assert bound_during_call[0] is not None
    assert transport.ns.lookup("/load/r1") is None


def _fault_mid_service(kernel, victim: str, at_ns: float) -> FaultInjector:
    plan = FaultPlan([FaultRule("crash_thread", victim, at_ns=at_ns,
                                param=0)])
    injector = FaultInjector(kernel, plan)
    injector.arm()
    return injector


@pytest.mark.parametrize("primitive", POOLED)
def test_fault_in_a_pooled_worker_fails_one_request_not_the_worker(
        primitive):
    kernel, transport = _single_hop(primitive, transport_cls=Transport,
                                    n_workers=1, service_ns=100_000.0)
    injector = _fault_mid_service(kernel, "load-server/w0", 50_000.0)
    results = _drive(kernel, transport, [(0, 0), (1, 0)])
    assert injector.records[0].outcome == "faulted load-server/w0"
    assert isinstance(results[0], DownstreamFault)
    assert results[1] == "ok"            # the same worker served it
    assert kernel.crashed_threads == []
    assert not transport.worker_threads[0].is_done


@pytest.mark.parametrize("primitive", POOLED)
def test_fault_in_a_topo_hop_worker_fails_one_request_not_the_worker(
        primitive):
    spec = generate("chain_branch", 2, work_ns=[1_000.0, 100_000.0])
    assert [(e.src, e.dst) for e in spec.edges] == [(0, 1)]
    kernel = Kernel(num_cpus=2)
    transport = make_transport(LoadParams(
        primitive=primitive, n_workers=1, topo=spec.to_dict()))
    transport.build(kernel)
    # worker 0 serves the root, worker 1 the back service
    injector = _fault_mid_service(kernel, "load-server/w1", 60_000.0)
    results = []

    def client(t):
        for cid in range(2):
            try:
                results.append((yield from transport.call(t, cid)))
            except LOAD_SURVIVABLE as exc:
                results.append(exc)

    kernel.spawn(transport.client_proc, client, name="load-clients/c0")
    kernel.run()
    assert injector.records[0].outcome == "faulted load-server/w1"
    assert isinstance(results[0], DownstreamFault)
    assert results[1] == "ok"
    assert kernel.crashed_threads == []
    assert not transport.worker_threads[1].is_done


def _topo_read_point(primitive: str, size: int):
    spec = generate("chain_branch", 4, req_size=size)
    return run_load_point(LoadParams(
        primitive=primitive, mode="closed", policy="block", n_clients=2,
        think_ns=5_000.0, req_size=size, max_requests_per_client=25,
        drain=True, warmup_ns=0.0, window_ns=5.0 * units.MS,
        topo=spec.to_dict()))


def test_dipc_argument_read_is_charged_on_topology_edges():
    big = {p: _topo_read_point(p, 16 * units.KB) for p in ("dipc", "odipc")}
    for result in big.values():
        assert result.completed == result.offered_seen == 50
        assert result.failed == 0
    # at the offload threshold odipc's DMA beats dipc's inline read ...
    assert big["odipc"].mean_ns < big["dipc"].mean_ns
    # ... below it the two are the same mechanism
    small = {p: _topo_read_point(p, 128) for p in ("dipc", "odipc")}
    assert small["odipc"].mean_ns == small["dipc"].mean_ns
    assert small["dipc"].mean_ns < big["dipc"].mean_ns


def test_every_primitive_registers_one_channel_class():
    for spec in primitives.specs():
        channel = spec.channel()
        assert issubclass(channel, Channel)
        assert channel.has_worker_threads == \
            spec.capabilities.has_worker_threads
