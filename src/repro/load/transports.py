"""The IPC primitives behind one load-harness interface.

This module is also the **single registration site** for isolation
primitives: every mechanism declares itself once, at the bottom, via
:func:`repro.primitives.register_primitive` — transport class, topology
hop class and capability flags — and the load harness, topo engine and
figure drivers all pick it up from the registry.

Each transport builds a server pool (``n_workers`` threads in a
``load-server`` process, except dIPC — see below) plus the per-client
plumbing, and exposes ``call(thread, client_id)``: one request/reply
round trip carrying ``req_size`` bytes in and a small acknowledgement
back, with ``service_ns`` of server CPU in between.

Topology per primitive (chosen so every wait queue has a single
consumer where the underlying object requires it):

* **pipe** — one request pipe *per worker* (a pipe's framed read path
  is single-reader) with clients statically sharded ``cid % workers``,
  one reply pipe per client;
* **socket** — one shared request datagram socket (multi-receiver safe)
  drained by all workers, one reply socket per client;
* **rpc** — one :class:`RpcServer` with ``n_workers`` service threads
  on the shared socket, one :class:`RpcClient` per client with a reply
  timeout;
* **l4** — one rendezvous endpoint *per worker* (an endpoint holds a
  single waiting server), clients sharded ``cid % workers``;
* **dipc** — *no service threads at all*: the client thread migrates
  into the server process through a proxy (§4) and runs the service
  body itself. The pool size is the CPU count, not a thread count —
  which is exactly why dIPC saturates later than every baseline.

Worker death must never wedge the harness: pipe and L4 waits are
bounded by :func:`repro.load.queueing.with_deadline` (with cleanup
hooks that unhook the timed-out client from the transport's wait
queues), sockets and RPC use their native receive timeouts, and a dIPC
callee death unwinds the caller synchronously with
:class:`repro.errors.RemoteFault`.

Recovery (``supervise=True`` / ``breaker=True`` in the params): every
transport can *rebuild* — respawn a crashed worker into the live pool
(``respawn_worker``) or stand up a whole replacement pool after the
server process is killed (``rebuild_pool``: fresh process, fresh
endpoints, fresh workers, re-adopted by the supervisor). Endpoint names
are stable across rebuilds (socket paths rebind over the reset
tombstone, pipe/L4 shards are re-read from the transport on every
call), so clients need no reconfiguration. ``request`` wraps ``call``
with a per-shard :class:`~repro.recovery.breaker.CircuitBreaker` so
callers fast-fail with :class:`BreakerOpen` while their shard is down
instead of burning deadline budget on a corpse.
"""

from __future__ import annotations

from repro import primitives
from repro.errors import (DipcError, KernelError, PeerResetError,
                          ProtectionFault)
from repro.ipc.l4 import L4Endpoint
from repro.ipc.pipe import Pipe
from repro.ipc.rpc import RpcClient, RpcServer
from repro.ipc.unixsocket import SocketNamespace
from repro.load.queueing import with_deadline
from repro.recovery.breaker import BreakerOpen, CircuitBreaker

SERVER_PROCESS = "load-server"
CLIENT_PROCESS = "load-clients"
WORKER_PREFIX = "load-server/w"

#: acknowledgement size for the reply leg, bytes
REPLY_SIZE = 64

#: per-request failures a breaker counts (mirrors LOAD_SURVIVABLE)
_SURVIVABLE = (KernelError, DipcError, ProtectionFault)


class Transport:
    """Base class: build the server pool, then serve ``call``s."""

    name = ""
    #: False for dIPC, which has no service threads to kill
    has_worker_threads = True
    #: True when clients are statically sharded over per-worker
    #: endpoints (pipe, l4): one breaker per shard; else one per pool
    sharded_endpoints = False

    def __init__(self, params):
        self.params = params
        self.kernel = None
        self.server_proc = None
        self.client_proc = None
        #: set by the harness before ``build`` when supervision is on
        self.supervisor = None
        self.breakers = []
        self.worker_threads = {}

    def build(self, kernel) -> None:
        raise NotImplementedError

    def call(self, thread, client_id: int):
        raise NotImplementedError

    def worker_body(self, index: int):
        """The body for worker ``index``, bound to the *current*
        endpoints — a respawn after a pool rebuild serves the rebuilt
        endpoints, not the corpse's."""
        raise NotImplementedError

    # -- pool lifecycle ----------------------------------------------------

    def _spawn_worker(self, kernel, index: int):
        thread = kernel.spawn(self.server_proc, self.worker_body(index),
                              name=f"{WORKER_PREFIX}{index}",
                              daemon=True)
        self.worker_threads[index] = thread
        if self.supervisor is not None:
            self.supervisor.adopt(
                f"w{index}", thread,
                lambda index=index: self.respawn_worker(index))
        return thread

    def _spawn_pool(self, kernel) -> None:
        for w in range(self.params.n_workers):
            self._spawn_worker(kernel, w)

    def respawn_worker(self, index: int):
        """Supervisor hook: replace one dead worker in the live pool."""
        return self._spawn_worker(self.kernel, index)

    def rebuild_pool(self) -> None:
        """Supervisor hook: replace a killed server process outright."""
        raise NotImplementedError

    # -- circuit breakers --------------------------------------------------

    def arm_breakers(self) -> None:
        """One breaker per endpoint shard (called by the harness)."""
        p = self.params
        shards = (p.n_workers
                  if self.sharded_endpoints and self.has_worker_threads
                  else 1)

        def emit(breaker, now_ns, old, new):
            tracer = self.kernel.tracer
            if tracer.enabled:
                tracer.instant(f"breaker:{new}", "recovery",
                               track="recovery",
                               args={"breaker": breaker.name,
                                     "from": old, "to": new})

        self.breakers = [
            CircuitBreaker(f"{self.name}/{shard}",
                           recovery_ns=max(p.deadline_ns, 1_000.0),
                           on_transition=emit)
            for shard in range(shards)]

    def request(self, thread, client_id: int):
        """Sub-generator: one ``call`` guarded by the shard's breaker.

        Without armed breakers this is exactly ``call``. With them, an
        open breaker fast-fails with :class:`BreakerOpen` (a survivable
        kernel error), and every survivable failure/success feeds the
        breaker state machine.
        """
        if not self.breakers:
            return (yield from self.call(thread, client_id))
        breaker = self.breakers[client_id % len(self.breakers)]
        if not breaker.allow(thread.now()):
            raise BreakerOpen(
                f"breaker {breaker.name} open: server presumed down")
        try:
            result = yield from self.call(thread, client_id)
        except _SURVIVABLE:
            breaker.record_failure(thread.now())
            raise
        breaker.record_success(thread.now())
        return result


class PipeTransport(Transport):
    name = "pipe"
    sharded_endpoints = True

    def build(self, kernel) -> None:
        self.kernel = kernel
        self.server_proc = kernel.spawn_process(SERVER_PROCESS)
        self.client_proc = kernel.spawn_process(CLIENT_PROCESS)
        self._make_endpoints()
        self._spawn_pool(kernel)

    def _make_endpoints(self) -> None:
        self.req_pipes = []
        for _w in range(self.params.n_workers):
            pipe = Pipe(self.kernel)
            pipe.bind_endpoints(writer=self.client_proc,
                                reader=self.server_proc)
            self.req_pipes.append(pipe)

    def worker_body(self, index: int):
        p = self.params
        req_pipe = self.req_pipes[index]

        def worker(t):
            while True:
                try:
                    reply_pipe = yield from req_pipe.read(t)
                except KernelError:
                    continue          # a client died mid-write
                if reply_pipe is None:
                    return            # EOF: client process gone
                yield t.compute(p.service_ns)
                try:
                    yield from reply_pipe.write(t, REPLY_SIZE,
                                                payload="ok")
                except KernelError:
                    continue          # this client died: drop the reply

        return worker

    def rebuild_pool(self) -> None:
        self.server_proc = self.kernel.spawn_process(SERVER_PROCESS)
        self._make_endpoints()
        self._spawn_pool(self.kernel)

    def call(self, thread, client_id: int):
        p = self.params
        req_pipe = self.req_pipes[client_id % p.n_workers]
        # a fresh reply pipe per request: a pipe's framed read path is
        # single-reader, and one open-loop client can have several
        # requests in flight at once
        reply_pipe = Pipe(self.kernel)
        reply_pipe.bind_endpoints(writer=self.server_proc,
                                  reader=self.client_proc)

        def _round_trip():
            yield from req_pipe.write(thread, p.req_size,
                                      payload=reply_pipe)
            reply = yield from reply_pipe.read(thread)
            if reply is None:
                raise PeerResetError("load server closed the reply pipe")
            return reply

        def _cleanup():
            for queue in (req_pipe._writers, reply_pipe._readers):
                try:
                    queue.remove(thread)
                except ValueError:
                    pass

        return with_deadline(thread, _round_trip(), p.deadline_ns,
                             _cleanup)


class SocketTransport(Transport):
    name = "socket"

    REQ_PATH = "/load/req"

    def build(self, kernel) -> None:
        p = self.params
        self.kernel = kernel
        self.ns = SocketNamespace()
        self.server_proc = kernel.spawn_process(SERVER_PROCESS)
        self.client_proc = kernel.spawn_process(CLIENT_PROCESS)
        self._bind_request_sock()
        self.reply_socks = []
        for c in range(p.n_clients):
            sock = self.ns.socket(kernel)
            sock.bind(f"/load/reply{c}")
            sock.bind_owner(self.client_proc)
            self.reply_socks.append(sock)
        self._spawn_pool(kernel)

    def _bind_request_sock(self) -> None:
        # on a rebuild this re-binds over the dead socket's tombstone,
        # so the well-known path now reaches the replacement pool
        self.req_sock = self.ns.socket(self.kernel)
        self.req_sock.bind(self.REQ_PATH)
        self.req_sock.bind_owner(self.server_proc)

    def worker_body(self, index: int):
        p = self.params
        req_sock = self.req_sock

        def worker(t):
            while True:
                try:
                    request, _ = yield from req_sock.recvfrom(t)
                except KernelError:
                    return            # socket reset: server killed
                if request is None:
                    return
                yield t.compute(p.service_ns)
                try:
                    yield from req_sock.sendto(
                        t, f"/load/reply{request}", REPLY_SIZE,
                        payload="ok")
                except KernelError:
                    continue          # client gone or its buffer full

        return worker

    def rebuild_pool(self) -> None:
        self.server_proc = self.kernel.spawn_process(SERVER_PROCESS)
        self._bind_request_sock()
        self._spawn_pool(self.kernel)

    def call(self, thread, client_id: int):
        p = self.params
        sock = self.reply_socks[client_id]
        yield from sock.sendto(thread, self.REQ_PATH, p.req_size,
                               payload=client_id)
        reply, _ = yield from sock.recvfrom(thread,
                                            timeout_ns=p.deadline_ns)
        if reply is None:
            raise PeerResetError("load server closed the reply socket")
        return reply


class RpcTransport(Transport):
    name = "rpc"

    RPC_PATH = "/load/rpc"

    def build(self, kernel) -> None:
        self.kernel = kernel
        self.namespace = SocketNamespace()
        self.server_proc = kernel.spawn_process(SERVER_PROCESS)
        self.client_proc = kernel.spawn_process(CLIENT_PROCESS)
        self._bind_server()
        self._spawn_pool(kernel)
        self._handle_seq = 0

    def _bind_server(self) -> None:
        p = self.params
        self.server = RpcServer(self.kernel, self.server_proc,
                                self.namespace, self.RPC_PATH)

        def handler(t, _args):
            yield t.compute(p.service_ns)
            return REPLY_SIZE, "ok"

        self.server.register("work", handler)

    def worker_body(self, index: int):
        server = self.server
        return lambda t: server.serve_loop(t)

    def rebuild_pool(self) -> None:
        self.server_proc = self.kernel.spawn_process(SERVER_PROCESS)
        self._bind_server()
        self._spawn_pool(self.kernel)

    def call(self, thread, client_id: int):
        # a fresh client handle (own reply socket) per request: one
        # open-loop client can have overlapping calls, and concurrent
        # calls on a shared handle drop each other's replies as
        # stale-xid stragglers
        self._handle_seq += 1
        client = RpcClient(
            self.kernel, self.client_proc, self.namespace,
            self.RPC_PATH, reply_timeout_ns=self.params.deadline_ns,
            client_path=f"{self.RPC_PATH}#c{self._handle_seq}")
        return client.call(thread, "work", self.params.req_size)


class L4Transport(Transport):
    name = "l4"
    sharded_endpoints = True

    def build(self, kernel) -> None:
        self.kernel = kernel
        self.server_proc = kernel.spawn_process(SERVER_PROCESS)
        self.client_proc = kernel.spawn_process(CLIENT_PROCESS)
        self._make_endpoints()
        self._spawn_pool(kernel)

    def _make_endpoints(self) -> None:
        self.endpoints = []
        for _w in range(self.params.n_workers):
            endpoint = L4Endpoint(self.kernel)
            endpoint.bind_owner(self.server_proc)
            self.endpoints.append(endpoint)

    def worker_body(self, index: int):
        p = self.params
        endpoint = self.endpoints[index]

        def worker(t):
            caller, _message = yield from endpoint.wait(t)
            while True:
                yield t.compute(p.service_ns)
                caller, _message = yield from endpoint.reply_and_wait(
                    t, caller, "ok")

        return worker

    def rebuild_pool(self) -> None:
        self.server_proc = self.kernel.spawn_process(SERVER_PROCESS)
        self._make_endpoints()
        self._spawn_pool(self.kernel)

    def call(self, thread, client_id: int):
        p = self.params
        endpoint = self.endpoints[client_id % p.n_workers]

        def _cleanup():
            endpoint._pending = type(endpoint._pending)(
                entry for entry in endpoint._pending
                if entry[0] is not thread)
            if thread in endpoint._outstanding:
                endpoint._outstanding.remove(thread)

        return with_deadline(thread,
                             endpoint.call(thread, client_id),
                             p.deadline_ns, _cleanup)


class DipcTransport(Transport):
    name = "dipc"
    has_worker_threads = False

    def build(self, kernel) -> None:
        from repro.core.api import DipcManager

        self.kernel = kernel
        self.manager = DipcManager(kernel)
        self.server_proc = kernel.spawn_process(SERVER_PROCESS, dipc=True)
        self.client_proc = kernel.spawn_process(CLIENT_PROCESS, dipc=True)
        self._register()

    def _register(self) -> None:
        from repro.core.objects import EntryDescriptor, Signature
        from repro.core.policies import IsolationPolicy

        p = self.params
        manager = self.manager

        def serve(t, _request):
            extra = self._serve_extra_ns()
            if extra:
                yield t.compute(extra)
            yield t.compute(p.service_ns)
            return "ok"

        # mutually untrusting: the server protects its stack/DCS from
        # clients, clients protect their registers/stack from the server
        # (the dipc_proc_high regime of Figure 5)
        entry = manager.entry_register(
            self.server_proc, manager.dom_default(self.server_proc),
            [EntryDescriptor(
                signature=Signature(in_regs=1, out_regs=1),
                policy=IsolationPolicy(stack_confidentiality=True,
                                       dcs_integrity=True),
                func=serve, name="serve")])
        request = [EntryDescriptor(
            signature=Signature(in_regs=1, out_regs=1),
            policy=IsolationPolicy(reg_integrity=True,
                                   stack_integrity=True,
                                   dcs_integrity=True),
            name="serve")]
        handle, _ = manager.entry_request(self.client_proc, entry,
                                          request)
        manager.grant_create(manager.dom_default(self.client_proc),
                             handle)
        self.address = request[0].address

    def rebuild_pool(self) -> None:
        # a fresh server process re-exports the entry; the kill path
        # already revoked every grant touching the corpse (A9), so the
        # client re-imports and re-grants from scratch at a new address
        self.server_proc = self.kernel.spawn_process(SERVER_PROCESS,
                                                     dipc=True)
        self._register()

    def call(self, thread, client_id: int):
        return self.manager.call(thread, self.address, client_id)

    def _serve_extra_ns(self) -> float:
        """Per-request CPU the service spends on argument *data*.

        Small arguments are folded into ``service_ns`` like every other
        transport (keeping the five-primitive load sweeps calibrated
        against their Figure 9 knees); at and above the offload
        threshold the callee's inline read of the capability-passed
        buffer is charged explicitly — which is exactly the cost the
        odipc variant attacks.
        """
        p = self.params
        costs = self.kernel.costs
        if p.req_size >= costs.OFFLOAD_THRESHOLD:
            return self.kernel.machine.cache.touch_ns(p.req_size)
        return 0.0


class OdipcTransport(DipcTransport):
    """dIPC with a bulk-copy offload engine (arxiv 2601.06331).

    The call path is plain dIPC — same proxies, same capability
    passing, same migration. What changes is the *copy column*: at and
    above ``OFFLOAD_THRESHOLD`` the callee submits the argument read
    to a DMA engine whose transfer overlaps the proxy call path, so
    the thread pays descriptor submission plus only the un-overlapped
    remainder instead of streaming the buffer through the CPU. Below
    the threshold it is byte-for-byte identical to ``dipc``.
    """

    name = "odipc"

    def _serve_extra_ns(self) -> float:
        p = self.params
        costs = self.kernel.costs
        if p.req_size >= costs.OFFLOAD_THRESHOLD:
            return costs.offload_copy_ns(p.req_size)
        return 0.0


class DptiTransport(Transport):
    """Tagged-page-table domain switching (arxiv 2111.10876).

    The client traps into the kernel, which switches to the server
    domain's PCID-tagged page table *without a TLB flush* and runs the
    service body inline on the caller's thread. No worker threads, no
    context switch, no scheduler pass — cheaper than every
    process-switching baseline; but still a trap, a kernel gate and
    two kernel-mediated copies per round trip — dearer than dIPC's
    user-level proxy. The pool size is the CPU count, like dIPC.
    """

    name = "dpti"
    has_worker_threads = False

    def build(self, kernel) -> None:
        self.kernel = kernel
        self.server_proc = kernel.spawn_process(SERVER_PROCESS)
        self.client_proc = kernel.spawn_process(CLIENT_PROCESS)
        self._bind_endpoint()

    def _bind_endpoint(self) -> None:
        from repro.ipc.dpti import DptiEndpoint

        p = self.params

        def serve(t, _request):
            yield t.compute(p.service_ns)
            return "ok"

        self.endpoint = DptiEndpoint(self.kernel, serve)
        self.endpoint.bind_owner(self.server_proc)

    def rebuild_pool(self) -> None:
        # a fresh server process gets a *fresh* PCID — the old tagged
        # context was retired by the kill hook (invariant A10)
        self.server_proc = self.kernel.spawn_process(SERVER_PROCESS)
        self._bind_endpoint()

    def call(self, thread, client_id: int):
        p = self.params
        return self.endpoint.call(thread, client_id, size=p.req_size,
                                  reply_size=REPLY_SIZE)


# ---------------------------------------------------------------------------
# Registration: the single place isolation primitives are declared.
# ---------------------------------------------------------------------------

_POOLED = primitives.Capabilities()          # worker pool, untrusted
_TRUSTED = primitives.Capabilities(
    trusted=True, in_process=True, has_worker_threads=False)
_INLINE = primitives.Capabilities(           # in-process but untrusted
    trusted=False, in_process=True, has_worker_threads=False)

primitives.register_primitive(
    "pipe", PipeTransport, "repro.topo.instantiate:_PipeHop",
    _POOLED)
primitives.register_primitive(
    "socket", SocketTransport, "repro.topo.instantiate:_SocketHop",
    _POOLED)
primitives.register_primitive(
    "rpc", RpcTransport, "repro.topo.instantiate:_RpcHop",
    _POOLED)
primitives.register_primitive(
    "l4", L4Transport, "repro.topo.instantiate:_L4Hop",
    _POOLED)
primitives.register_primitive(
    "dipc", DipcTransport, "repro.topo.instantiate:_DipcHop",
    _TRUSTED)
primitives.register_primitive(
    "dpti", DptiTransport, "repro.topo.instantiate:_DptiHop",
    _INLINE)
primitives.register_primitive(
    "odipc", OdipcTransport, "repro.topo.instantiate:_OdipcHop",
    _TRUSTED)

#: registered primitive names, in registration order (kept as a module
#: attribute for the many figure drivers and tests that sweep it)
PRIMITIVES = primitives.names()


def make_transport(params) -> Transport:
    """Instantiate the transport for ``params.primitive``.

    With ``params.topo`` set (a serialized service-graph spec), the
    primitive names the *hop* type of a whole
    :class:`repro.topo.instantiate.TopoTransport` topology instead of
    a single client/server pool.
    """
    if getattr(params, "topo", None) is not None:
        from repro.topo.instantiate import TopoTransport
        return TopoTransport(params)
    try:
        spec = primitives.get(params.primitive)
    except KeyError:
        raise ValueError(f"unknown primitive {params.primitive!r} "
                         f"(choose from {', '.join(PRIMITIVES)})")
    return spec.transport()(params)
