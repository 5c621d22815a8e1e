"""The IPC primitives behind one channel interface.

This module is also the **single registration site** for isolation
primitives: every mechanism declares itself once, at the bottom, via
:func:`repro.primitives.register_primitive` — its :class:`Channel`
class and capability flags — and the load harness, topo engine and
figure drivers all pick it up from the registry.

A channel is one caller → callee link over one primitive:
``build(caller_proc, callee_proc)`` creates the callee-owned endpoints,
``worker_body(slot)`` is the callee's service loop (pooled primitives
only), and ``call(thread, payload, shard=None)`` is one request/reply
round trip carrying ``req_size`` bytes in and a small acknowledgement
back, with the callee's ``serve(t, payload)`` body in between. The
single-hop :class:`Transport` (fig9, fig12 part A, the check
scenarios) owns one channel from ``load-clients`` to ``load-server``;
:class:`repro.topo.instantiate.TopoTransport` owns one per graph edge.

Endpoints per primitive (chosen so every wait queue has a single
consumer where the underlying object requires it):

* **pipe** — one request pipe *per worker* (a pipe's framed read path
  is single-reader), a fresh reply pipe per request;
* **socket** — one shared request datagram socket (multi-receiver
  safe) drained by all workers;
* **rpc** — one :class:`RpcServer` with ``n_workers`` service threads
  on the shared socket, a fresh :class:`RpcClient` (own reply socket,
  reply timeout) per request;
* **l4** — one rendezvous endpoint *per worker* (an endpoint holds a
  single waiting server);
* **dipc** — *no service threads at all*: the calling thread migrates
  into the callee process through a proxy (§4) and runs the service
  body itself. The pool size is the CPU count, not a thread count —
  which is exactly why dIPC saturates later than every baseline;
* **dpti** — the caller traps and runs the service body inline behind
  a PCID-tagged page-table switch (no workers either);
* **odipc** — dIPC with the argument read offloaded to a DMA engine at
  and above ``OFFLOAD_THRESHOLD``.

**Sticky and shard-less callers.** A caller that passes ``shard`` (a
load client passes its client id) is *sticky*: pipe and L4 pin it to
endpoint ``shard % n_workers``, and socket keeps one reply socket per
shard at ``{name}/reply{shard}``, created on first use and shared by
all of that caller's requests in flight. A caller without a shard (a
topology node calling a child) takes the pipe/L4 endpoints
round-robin and gets a fresh socket at ``{name}/r{n}``, closed once
the call returns.

**The fault rule.** A survivable fault that hits a callee while it
runs the service body — a pooled worker, or a dpti callee running
inline — is caught and answered with an ``"err"`` verdict, which the
caller raises as :class:`DownstreamFault`; the worker lives on to
serve the next request. A dIPC callee runs on the caller's own thread
behind the proxy, so its faults unwind the caller directly.

Worker death must never wedge the harness: pipe and L4 waits are
bounded by :func:`repro.load.queueing.with_deadline` (with cleanup
hooks that unhook the timed-out caller from the channel's wait
queues), sockets and RPC use their native receive timeouts, and a dIPC
callee death unwinds the caller synchronously with
:class:`repro.errors.RemoteFault`.

Recovery (``supervise=True`` / ``breaker=True`` in the params): every
transport can *rebuild* — respawn a crashed worker into the live pool
(``respawn_worker``) or stand up a whole replacement pool after the
server process is killed (``rebuild_pool``: fresh process, then
``channel.build`` for fresh endpoints, then fresh workers, re-adopted
by the supervisor). Endpoint names are stable across rebuilds (socket
paths rebind over the reset tombstone, pipe/L4 shards are re-read
from the channel on every call), so callers need no reconfiguration.
``request`` wraps ``call`` with a per-shard
:class:`~repro.recovery.breaker.CircuitBreaker` so callers fast-fail
with :class:`BreakerOpen` while their shard is down instead of burning
deadline budget on a corpse.
"""

from __future__ import annotations

from repro import primitives
from repro.core.api import DipcManager
from repro.core.objects import EntryDescriptor, Signature
from repro.core.policies import IsolationPolicy
from repro.errors import KernelError, PeerResetError
from repro.ipc.dpti import DptiEndpoint
from repro.ipc.l4 import L4Endpoint
from repro.ipc.pipe import Pipe
from repro.ipc.rpc import RpcClient, RpcServer
from repro.ipc.unixsocket import SocketNamespace
from repro.load.queueing import LOAD_SURVIVABLE, with_deadline
from repro.recovery.breaker import BreakerOpen, CircuitBreaker

SERVER_PROCESS = "load-server"
CLIENT_PROCESS = "load-clients"
WORKER_PREFIX = "load-server/w"

#: acknowledgement size for the reply leg, bytes
REPLY_SIZE = 64


class DownstreamFault(KernelError):
    """The callee failed while serving a request; reported to the
    caller (in a topology, up the call path)."""


# ---------------------------------------------------------------------------
# channels: one caller -> callee link over one primitive
# ---------------------------------------------------------------------------

class Channel:
    """One caller → callee link; endpoints owned by the callee.

    ``owner`` is the transport: it supplies ``kernel``, ``params``,
    ``ns`` and, for trusted primitives, ``manager`` and the ``entries``
    map. ``name`` prefixes every endpoint path; ``serve(t, payload)``
    is the callee's service body.
    """

    #: False for the in-process primitives, which have no service
    #: threads to spawn, supervise or kill
    has_worker_threads = True
    #: True when callers are sharded over per-worker endpoints (pipe,
    #: l4): the single-hop transport arms one breaker per shard
    sharded_endpoints = False
    #: True when the wiring embeds the *caller's* process identity
    #: (pipe writer end, dIPC grants), so a reborn caller also needs the
    #: channel rebuilt; path-addressed channels (socket, rpc), L4 and
    #: dpti only care about the callee side
    rebuild_on_src = False

    def __init__(self, owner, name: str, req_size: int, serve):
        self.owner = owner
        self.name = name
        self.req_size = req_size
        self.serve = serve
        self.callee_proc = None
        self._rr = 0          # next endpoint for shard-less callers
        self._seq = 0         # unique per-request endpoint names

    @property
    def kernel(self):
        return self.owner.kernel

    @property
    def params(self):
        return self.owner.params

    def build(self, caller_proc, callee_proc) -> None:
        """Create the endpoints. A rebuild calls it again with the
        fresh process(es); the endpoint paths stay the same."""
        raise NotImplementedError

    def worker_body(self, slot: int):
        """The body for worker ``slot``, bound to the *current*
        endpoints — a respawn after a rebuild serves the rebuilt
        endpoints, not the corpse's."""
        raise NotImplementedError

    def call(self, thread, payload, shard=None):
        """Sub-generator: one round trip; see the module docstring for
        what ``shard`` selects."""
        raise NotImplementedError

    def _endpoint(self, shard) -> int:
        """A sticky caller's own endpoint; shard-less callers rotate."""
        if shard is None:
            shard = self._rr
            self._rr += 1
        return shard % self.params.n_workers

    def _verdict(self, t, payload):
        """Sub-generator: run the service body under the fault rule."""
        try:
            yield from self.serve(t, payload)
        except LOAD_SURVIVABLE:
            return "err"
        return "ok"

    def _checked(self, reply):
        if reply == "err":
            raise DownstreamFault(f"{self.name}: the callee failed")
        return reply


class PipeChannel(Channel):
    sharded_endpoints = True
    rebuild_on_src = True

    def build(self, caller_proc, callee_proc) -> None:
        self.callee_proc = callee_proc
        self.req_pipes = []
        for _w in range(self.params.n_workers):
            pipe = Pipe(self.kernel)
            pipe.bind_endpoints(writer=caller_proc, reader=callee_proc)
            self.req_pipes.append(pipe)

    def worker_body(self, slot: int):
        req_pipe = self.req_pipes[slot]

        def worker(t):
            while True:
                try:
                    message = yield from req_pipe.read(t)
                except KernelError:
                    continue          # a caller died mid-write
                if message is None:
                    return            # EOF: caller process gone
                reply_pipe, payload = message
                verdict = yield from self._verdict(t, payload)
                try:
                    yield from reply_pipe.write(t, REPLY_SIZE,
                                                payload=verdict)
                except KernelError:
                    continue          # caller gave up: drop the reply

        return worker

    def call(self, thread, payload, shard=None):
        req_pipe = self.req_pipes[self._endpoint(shard)]
        # a fresh reply pipe per request: a pipe's framed read path is
        # single-reader, and one open-loop client can have several
        # requests in flight at once
        reply_pipe = Pipe(self.kernel)
        reply_pipe.bind_endpoints(writer=self.callee_proc,
                                  reader=thread.process)

        def _round_trip():
            yield from req_pipe.write(thread, self.req_size,
                                      payload=(reply_pipe, payload))
            reply = yield from reply_pipe.read(thread)
            if reply is None:
                raise PeerResetError(f"{self.name}: the callee closed "
                                     f"the reply pipe")
            return self._checked(reply)

        def _cleanup():
            for queue in (req_pipe._writers, reply_pipe._readers):
                try:
                    queue.remove(thread)
                except ValueError:
                    pass

        return with_deadline(thread, _round_trip(),
                             self.params.deadline_ns, _cleanup)


class SocketChannel(Channel):
    def __init__(self, *args):
        super().__init__(*args)
        #: shard -> the sticky caller's reply socket
        self._reply_socks = {}

    def build(self, caller_proc, callee_proc) -> None:
        self.callee_proc = callee_proc
        # on a rebuild this re-binds over the dead socket's tombstone,
        # so the well-known path now reaches the replacement pool
        self.req_sock = self.owner.ns.socket(self.kernel)
        self.req_sock.bind(f"{self.name}/req")
        self.req_sock.bind_owner(callee_proc)

    def worker_body(self, slot: int):
        req_sock = self.req_sock

        def worker(t):
            while True:
                try:
                    request, _ = yield from req_sock.recvfrom(t)
                except KernelError:
                    return            # socket reset: our process killed
                if request is None:
                    return
                reply_to, payload = request
                verdict = yield from self._verdict(t, payload)
                try:
                    yield from req_sock.sendto(t, reply_to, REPLY_SIZE,
                                               payload=verdict)
                except KernelError:
                    continue          # caller gone or its buffer full

        return worker

    def _reply_sock(self, thread, path: str):
        sock = self.owner.ns.socket(self.kernel)
        sock.bind(path)
        sock.bind_owner(thread.process)
        return sock

    def call(self, thread, payload, shard=None):
        if shard is None:
            self._seq += 1
            sock = self._reply_sock(thread, f"{self.name}/r{self._seq}")
        else:
            sock = self._reply_socks.get(shard)
            if sock is None:
                sock = self._reply_socks[shard] = self._reply_sock(
                    thread, f"{self.name}/reply{shard}")
        try:
            yield from sock.sendto(thread, f"{self.name}/req",
                                   self.req_size,
                                   payload=(sock.path, payload))
            reply, _ = yield from sock.recvfrom(
                thread, timeout_ns=self.params.deadline_ns)
            if reply is None:
                raise PeerResetError(f"{self.name}: the callee closed "
                                     f"the reply socket")
            return self._checked(reply)
        finally:
            if shard is None:
                sock.close()


class RpcChannel(Channel):
    def build(self, caller_proc, callee_proc) -> None:
        self.callee_proc = callee_proc
        self.server = RpcServer(self.kernel, callee_proc, self.owner.ns,
                                f"{self.name}/rpc")

        def handler(t, payload):
            verdict = yield from self._verdict(t, payload)
            return REPLY_SIZE, verdict

        self.server.register("serve", handler)

    def worker_body(self, slot: int):
        server = self.server
        return lambda t: server.serve_loop(t)

    def call(self, thread, payload, shard=None):
        # a fresh client handle (own reply socket) per request: one
        # open-loop client can have overlapping calls, and concurrent
        # calls on a shared handle drop each other's replies as
        # stale-xid stragglers
        self._seq += 1
        path = f"{self.name}/rpc"
        client = RpcClient(
            self.kernel, thread.process, self.owner.ns, path,
            reply_timeout_ns=self.params.deadline_ns,
            client_path=f"{path}#c{self._seq}")
        reply = yield from client.call(thread, "serve", self.req_size,
                                       payload)
        return self._checked(reply)


class L4Channel(Channel):
    sharded_endpoints = True

    def build(self, caller_proc, callee_proc) -> None:
        self.callee_proc = callee_proc
        self.endpoints = []
        for _w in range(self.params.n_workers):
            endpoint = L4Endpoint(self.kernel)
            endpoint.bind_owner(callee_proc)
            self.endpoints.append(endpoint)

    def worker_body(self, slot: int):
        endpoint = self.endpoints[slot]

        def worker(t):
            caller, payload = yield from endpoint.wait(t)
            while True:
                verdict = yield from self._verdict(t, payload)
                caller, payload = yield from endpoint.reply_and_wait(
                    t, caller, verdict)

        return worker

    def call(self, thread, payload, shard=None):
        endpoint = self.endpoints[self._endpoint(shard)]

        def _round_trip():
            reply = yield from endpoint.call(thread, payload)
            return self._checked(reply)

        def _cleanup():
            endpoint._pending = type(endpoint._pending)(
                entry for entry in endpoint._pending
                if entry[0] is not thread)
            if thread in endpoint._outstanding:
                endpoint._outstanding.remove(thread)

        return with_deadline(thread, _round_trip(),
                             self.params.deadline_ns, _cleanup)


class DipcChannel(Channel):
    """An entry_request + grant: the caller migrates, so there is
    nothing to serve and nobody to spawn.

    The callee's inline read of the capability-passed argument buffer
    is charged explicitly at and above the offload threshold (the cost
    the odipc variant attacks); smaller arguments are folded into the
    service time like every other primitive's. The caller computes it
    from the channel's ``req_size`` and passes it through the proxy
    with the payload; the entry charges it before ``serve``.
    """

    has_worker_threads = False
    rebuild_on_src = True

    def build(self, caller_proc, callee_proc) -> None:
        self.callee_proc = callee_proc
        manager = self.owner.manager
        request = [EntryDescriptor(
            signature=Signature(in_regs=1, out_regs=1),
            policy=IsolationPolicy(reg_integrity=True,
                                   stack_integrity=True,
                                   dcs_integrity=True),
            name="serve")]
        handle, _ = manager.entry_request(caller_proc,
                                          self._entry(callee_proc),
                                          request)
        manager.grant_create(manager.dom_default(caller_proc), handle)
        self.address = request[0].address

    def _entry(self, callee_proc):
        """The callee's exported entry, registered on first use and
        cached on the owner per callee process: a reborn callee
        re-exports, a reborn caller re-imports the live export."""
        entry = self.owner.entries.get(callee_proc)
        if entry is not None:
            return entry

        def serve_entry(t, message):
            extra_ns, payload = message
            if extra_ns:
                yield from t.compute(extra_ns)
            yield from self.serve(t, payload)
            return "ok"

        # mutually untrusting: the callee protects its stack/DCS from
        # callers, callers protect their registers/stack from the callee
        # (the dipc_proc_high regime of Figure 5)
        manager = self.owner.manager
        entry = manager.entry_register(
            callee_proc, manager.dom_default(callee_proc),
            [EntryDescriptor(
                signature=Signature(in_regs=1, out_regs=1),
                policy=IsolationPolicy(stack_confidentiality=True,
                                       dcs_integrity=True),
                func=serve_entry, name="serve")])
        self.owner.entries[callee_proc] = entry
        return entry

    def worker_body(self, slot: int):  # pragma: no cover - never spawned
        raise NotImplementedError("dIPC channels have no workers")

    def _data_extra_ns(self) -> float:
        costs = self.kernel.costs
        if self.req_size >= costs.OFFLOAD_THRESHOLD:
            return self.kernel.machine.cache.touch_ns(self.req_size)
        return 0.0

    def call(self, thread, payload, shard=None):
        return self.owner.manager.call(thread, self.address,
                                       (self._data_extra_ns(), payload))


class OdipcChannel(DipcChannel):
    """dIPC with a bulk-copy offload engine (arxiv 2601.06331).

    The call path is plain dIPC — same proxies, same capability
    passing, same migration. What changes is the *copy column*: at and
    above ``OFFLOAD_THRESHOLD`` the callee submits the argument read
    to a DMA engine whose transfer overlaps the proxy call path, so
    the thread pays descriptor submission plus only the un-overlapped
    remainder instead of streaming the buffer through the CPU. Below
    the threshold it is byte-for-byte identical to ``dipc``.
    """

    def _data_extra_ns(self) -> float:
        costs = self.kernel.costs
        if self.req_size >= costs.OFFLOAD_THRESHOLD:
            return costs.offload_copy_ns(self.req_size)
        return 0.0


class DptiChannel(Channel):
    """Tagged-page-table domain switching (arxiv 2111.10876).

    The caller traps into the kernel, which switches to the callee
    domain's PCID-tagged page table *without a TLB flush* and runs the
    service body inline on the caller's thread. No worker threads, no
    context switch, no scheduler pass — cheaper than every
    process-switching baseline; but still a trap, a kernel gate and
    two kernel-mediated copies per round trip — dearer than dIPC's
    user-level proxy. The pool size is the CPU count, like dIPC.
    """

    has_worker_threads = False

    def build(self, caller_proc, callee_proc) -> None:
        # a fresh callee process gets a *fresh* PCID — the old tagged
        # context was retired by the kill hook (invariant A10)
        self.callee_proc = callee_proc
        self.endpoint = DptiEndpoint(self.kernel, self._verdict)
        self.endpoint.bind_owner(callee_proc)

    def worker_body(self, slot: int):  # pragma: no cover - never spawned
        raise NotImplementedError("dpti channels have no workers")

    def call(self, thread, payload, shard=None):
        reply = yield from self.endpoint.call(
            thread, payload, size=self.req_size, reply_size=REPLY_SIZE)
        return self._checked(reply)


# ---------------------------------------------------------------------------
# the single-hop transport
# ---------------------------------------------------------------------------

class Transport:
    """One channel from ``load-clients`` to a ``load-server`` pool,
    plus the pool lifecycle and circuit breakers every transport
    shares."""

    def __init__(self, params):
        try:
            spec = primitives.get(params.primitive)
        except KeyError:
            raise ValueError(
                f"unknown primitive {params.primitive!r} (choose from "
                f"{', '.join(primitives.names())})") from None
        self.params = params
        self.name = params.primitive
        self.channel_cls = spec.channel()
        self.trusted = spec.capabilities.trusted
        self.sharded_endpoints = self.channel_cls.sharded_endpoints
        self.kernel = None
        self.ns = None
        self.manager = None
        #: exported dIPC entries, keyed by callee process
        self.entries = {}
        self.server_proc = None
        self.client_proc = None
        self.channel = None
        #: set by the harness before ``build`` when supervision is on
        self.supervisor = None
        self.breakers = []
        self.worker_threads = {}
        #: worker index -> (channel, slot) it serves
        self._slots = {}

    def build(self, kernel) -> None:
        self._boot(kernel)
        self.server_proc = self._spawn_process(SERVER_PROCESS)
        self.client_proc = self._spawn_process(CLIENT_PROCESS)
        self.channel = self._open_channel("/load", self.params.req_size,
                                          self.serve, self.client_proc,
                                          self.server_proc)

    def serve(self, t, payload):
        """The server's service body."""
        yield from t.compute(self.params.service_ns)

    def call(self, thread, client_id: int):
        # load clients are sticky: a client keeps its endpoint shard
        # and its reply socket
        return self.channel.call(thread, client_id, shard=client_id)

    # -- construction ------------------------------------------------------

    def _boot(self, kernel) -> None:
        self.kernel = kernel
        self.ns = SocketNamespace()
        if self.trusted:
            self.manager = DipcManager(kernel)

    def _spawn_process(self, name: str):
        return self.kernel.spawn_process(name, dipc=self.trusted)

    def _open_channel(self, name: str, req_size: int, serve,
                      caller_proc, callee_proc) -> Channel:
        channel = self.channel_cls(self, name, req_size, serve)
        channel.build(caller_proc, callee_proc)
        if channel.has_worker_threads:
            for slot in range(self.params.n_workers):
                index = len(self._slots)
                self._slots[index] = (channel, slot)
                self._spawn_worker(index)
        return channel

    # -- pool lifecycle ----------------------------------------------------

    def _spawn_worker(self, index: int):
        channel, slot = self._slots[index]
        thread = self.kernel.spawn(channel.callee_proc,
                                   channel.worker_body(slot),
                                   name=f"{WORKER_PREFIX}{index}",
                                   daemon=True)
        self.worker_threads[index] = thread
        if self.supervisor is not None:
            self.supervisor.adopt(
                f"w{index}", thread,
                lambda index=index: self.respawn_worker(index))
        return thread

    def _respawn_workers(self, channel) -> None:
        """Fresh workers in every slot of a rebuilt ``channel``."""
        for index, (served, _slot) in self._slots.items():
            if served is channel:
                self._spawn_worker(index)

    def respawn_worker(self, index: int):
        """Supervisor hook: replace one dead worker in the live pool."""
        return self._spawn_worker(index)

    def rebuild_pool(self) -> None:
        """Supervisor hook: replace a killed server process outright."""
        self.server_proc = self._spawn_process(SERVER_PROCESS)
        self.channel.build(self.client_proc, self.server_proc)
        self._respawn_workers(self.channel)

    # -- circuit breakers --------------------------------------------------

    def arm_breakers(self) -> None:
        """One breaker per endpoint shard (called by the harness)."""
        p = self.params
        shards = p.n_workers if self.sharded_endpoints else 1

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
        except LOAD_SURVIVABLE:
            breaker.record_failure(thread.now())
            raise
        breaker.record_success(thread.now())
        return result


# ---------------------------------------------------------------------------
# Registration: the single place isolation primitives are declared.
# ---------------------------------------------------------------------------

_POOLED = primitives.Capabilities()          # worker pool, untrusted
_TRUSTED = primitives.Capabilities(
    trusted=True, in_process=True, has_worker_threads=False)
_INLINE = primitives.Capabilities(           # in-process but untrusted
    trusted=False, in_process=True, has_worker_threads=False)

primitives.register_primitive("pipe", PipeChannel, _POOLED)
primitives.register_primitive("socket", SocketChannel, _POOLED)
primitives.register_primitive("rpc", RpcChannel, _POOLED)
primitives.register_primitive("l4", L4Channel, _POOLED)
primitives.register_primitive("dipc", DipcChannel, _TRUSTED)
primitives.register_primitive("dpti", DptiChannel, _INLINE)
primitives.register_primitive("odipc", OdipcChannel, _TRUSTED)

#: registered primitive names, in registration order (kept as a module
#: attribute for the many figure drivers and tests that sweep it)
PRIMITIVES = primitives.names()


def make_transport(params) -> Transport:
    """Instantiate the transport for ``params.primitive``.

    With ``params.topo`` set (a serialized service-graph spec), the
    primitive names the channel type of every edge of a whole
    :class:`repro.topo.instantiate.TopoTransport` topology instead of
    a single client/server pool.
    """
    if getattr(params, "topo", None) is not None:
        from repro.topo.instantiate import TopoTransport
        return TopoTransport(params)
    return Transport(params)
