"""Materialize a :class:`~repro.topo.spec.TopoSpec` onto a kernel.

:class:`TopoTransport` is a :class:`repro.load.transports.Transport`:
the fig9 load harness builds it, drives ``call()`` from its client
threads, arms breakers around it and supervises it exactly like the
single-hop transport — but one ``call`` traverses an entire service
graph. Per spec node it spawns one process (one protection domain);
per spec edge it opens one :class:`~repro.load.transports.Channel` of
the chosen primitive — the same channel class the single-hop path
uses, so each primitive is wired in exactly one place. Topology
callers pass no shard: pipe and L4 edges rotate over their per-worker
endpoints, and socket edges open a fresh reply socket per request.

With **dipc** there are no worker threads anywhere in the graph:
every edge is an entry_request + grant, and a request is one thread
migrating node to node through proxies. The baselines' end-to-end
concurrency is capped by the smallest worker pool along the path;
dIPC's only cap is CPU capacity — which is exactly why deep graphs
compound its per-hop advantage. **dpti** edges likewise run the
destination inline on the caller's thread, but every hop still pays
trap + gate + kernel copies.

A node's service body burns its ``work_ns``, then visits its children:
``seq`` nodes call them one after another (latency adds), ``par``
nodes fan them out on helper threads joined through a semaphore with a
deadline (latency maxes). Worker death anywhere must never wedge the
graph: every blocking channel wait is bounded (``with_deadline`` or
native receive timeouts), a failed downstream call is reported
upstream as a :class:`~repro.load.transports.DownstreamFault` reply
rather than a silent drop, and every piece (processes, endpoints,
workers, entries) can be rebuilt by the supervisor after a kill.
"""

from __future__ import annotations

from repro.ipc.semaphore import Semaphore
from repro.load.queueing import LOAD_SURVIVABLE, with_deadline
from repro.load.transports import (CLIENT_PROCESS, SERVER_PROCESS,
                                   DownstreamFault, Transport)
from repro.topo.spec import ROOT, TopoSpec

#: pseudo node id for the load-generator process (the root's caller)
CLIENT = -1

#: optional phase probe for the kill-point conformance harness
#: (:mod:`repro.recovery.conformance`): called with labels like
#: ``call:enter``, ``serve:<node>:enter`` and ``rebuild:exit`` at the
#: corresponding points of a request's life. Probes are plain Python
#: callbacks — they never post engine events or draw randomness — so an
#: armed probe cannot perturb the deterministic event order.
_probe = None


def set_probe(probe):
    """Install the module-wide probe (``None`` clears); returns the
    previously installed one so callers can restore it."""
    global _probe
    previous = _probe
    _probe = probe
    return previous


class TopoTransport(Transport):
    """A whole service graph behind the single-hop transport API."""

    def __init__(self, params):
        super().__init__(params)
        self.name = "topo"
        # one breaker for the whole graph, whatever the edge primitive
        self.sharded_endpoints = False
        self.spec = TopoSpec.from_dict(params.topo).validate()
        self.procs = {}
        #: (src, dst) -> the edge's channel
        self.channels = {}
        self._children = {node.id: self.spec.children(node.id)
                          for node in self.spec.nodes}
        self._nodes = {node.id: node for node in self.spec.nodes}

    def proc_of(self, node_id: int):
        return (self.client_proc if node_id == CLIENT
                else self.procs[node_id])

    def _proc_name(self, node_id: int) -> str:
        """The root keeps the load harness's well-known server name so
        chaos storms aimed at the default victim menu hit the topology
        too; the rest carry their service names."""
        if node_id == ROOT:
            return SERVER_PROCESS
        return f"svc{node_id}:{self._nodes[node_id].name}"

    # -- construction -------------------------------------------------------

    def build(self, kernel) -> None:
        self._boot(kernel)
        self.client_proc = self._spawn_process(CLIENT_PROCESS)
        for node in self.spec.nodes:
            self.procs[node.id] = self._spawn_process(
                self._proc_name(node.id))
        self.server_proc = self.procs[ROOT]
        for index, (src, dst, req_size) in enumerate(self._all_edges()):
            self.channels[(src, dst)] = self._open_channel(
                f"/topo/e{index}", req_size, self._server_of(dst),
                self.proc_of(src), self.procs[dst])

    def _all_edges(self):
        """Spec edges plus the synthetic client -> root edge."""
        yield (CLIENT, ROOT, self.params.req_size)
        for edge in self.spec.edges:
            yield (edge.src, edge.dst, edge.req_size)

    def _server_of(self, node_id: int):
        """Node ``node_id``'s service body as a channel's ``serve``."""
        return lambda t, payload: self.visit(t, node_id, payload)

    # -- the service body ---------------------------------------------------

    def visit(self, t, node_id: int, payload):
        """Sub-generator: burn the node's CPU, then visit its children.

        Unprobed, it is the body itself rather than a generator that
        delegates to it, one frame fewer per hop."""
        if _probe is None:
            return self._visit_body(t, node_id, payload)
        return self._probed_visit(t, node_id, payload)

    def _probed_visit(self, t, node_id: int, payload):
        _probe(f"serve:{node_id}:enter")
        try:
            yield from self._visit_body(t, node_id, payload)
        finally:
            _probe(f"serve:{node_id}:exit")

    def _visit_body(self, t, node_id: int, payload):
        node = self._nodes[node_id]
        if node.work_ns:
            yield from t.compute(node.work_ns)
        children = self._children[node_id]
        if not children:
            return
        if node.mode == "par" and len(children) > 1:
            yield from self._visit_par(t, node_id, children, payload)
        else:
            for child in children:
                yield from self.channels[(node_id, child)].call(t,
                                                                payload)

    def _visit_par(self, t, node_id: int, children, payload):
        """Scatter-gather: one helper thread per child, joined through
        a semaphore with a deadline so a killed helper can never wedge
        the parent."""
        sem = Semaphore(self.kernel, 0)
        failures = []
        process = self.procs[node_id]

        def helper(child):
            def body(ht):
                try:
                    yield from self.channels[(node_id, child)].call(
                        ht, payload)
                except LOAD_SURVIVABLE as exc:
                    failures.append(exc)
                yield from sem.post(ht)
            return body

        for child in children:
            self.kernel.spawn(process, helper(child),
                              name=f"topo/n{node_id}/par{child}")

        def _join():
            for _ in children:
                yield from sem.wait(t)

        def _cleanup():
            try:
                sem._futex._waiters.remove(t)
            except ValueError:
                pass

        # budget: every child has deadline_ns to finish; one extra
        # deadline of slack covers scheduling of the helpers themselves
        yield from with_deadline(t, _join(),
                                 2.0 * self.params.deadline_ns,
                                 _cleanup)
        if failures:
            raise DownstreamFault(
                f"node {node_id}: {len(failures)} of {len(children)} "
                f"parallel children failed")

    # -- the transport API the load harness drives --------------------------

    def call(self, thread, client_id: int):
        # no shard: the root edge rotates over its endpoints like every
        # other edge of the graph
        root = self.channels[(CLIENT, ROOT)]
        if _probe is None:
            return root.call(thread, client_id)
        return self._probed_call(root, thread, client_id)

    def _probed_call(self, root, thread, client_id: int):
        _probe("call:enter")
        try:
            return (yield from root.call(thread, client_id))
        finally:
            _probe("call:exit")

    # -- recovery hooks -----------------------------------------------------

    def rebuild_pool(self) -> None:
        """Supervisor hook: rebuild every dead service in the graph —
        fresh process, fresh endpoints (rebinding over tombstones, dIPC
        entries re-exported on first use), fresh workers."""
        if _probe is not None:
            _probe("rebuild:enter")
        dead = [node.id for node in self.spec.nodes
                if not self.procs[node.id].alive]
        for node_id in dead:
            self.procs[node_id] = self._spawn_process(
                self._proc_name(node_id))
        self.server_proc = self.procs[ROOT]
        rebuilt = set(dead)
        for (src, dst), channel in self.channels.items():
            # the callee owns a channel's endpoints; the caller side
            # only matters where the wiring embeds its process identity
            # (rebuild_on_src). A live callee's workers died with their
            # pipes' writer (EOF) or with their own process, so every
            # rewired channel respawns its worker slots over the fresh
            # endpoints.
            if dst in rebuilt or (src in rebuilt and channel.rebuild_on_src):
                channel.build(self.proc_of(src), self.procs[dst])
                self._respawn_workers(channel)
        if _probe is not None:
            _probe("rebuild:exit")
