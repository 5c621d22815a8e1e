"""Local RPC over UNIX sockets, rpcgen-style (§2.2's "Local RPC").

The client stub marshals arguments, sends the request datagram, and
blocks for the reply; a *service thread* in the server process
demultiplexes requests to registered handler functions. All the costs
the paper's Figure 2 decomposes are here: XDR user time, clnt/svc
library bookkeeping, socket syscalls with kernel copies, and the
context switches between the two processes.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict

from repro.errors import KernelError, PeerResetError, SocketTimeout
from repro.ipc.unixsocket import SocketNamespace, UnixSocket
from repro.ipc.xdr import XDRCodec
from repro.kernel.process import Process
from repro.kernel.thread import Thread

_xid = itertools.count(1)

_SHUTDOWN = "__rpc_shutdown__"


class RpcServer:
    """An rpcgen-style server: bind, register programs, run svc loop."""

    def __init__(self, kernel, process: Process, namespace: SocketNamespace,
                 path: str, *, bufsize: int = None):
        self.kernel = kernel
        self.process = process
        self.codec = XDRCodec(kernel)
        self.sock = namespace.socket(kernel) if bufsize is None \
            else namespace.socket(kernel, bufsize=bufsize)
        self.sock.bind(path)
        # peer death => ECONNRESET for clients, not an infinite wait
        self.sock.bind_owner(process)
        self.path = path
        self._handlers: Dict[str, Callable] = {}
        self.requests_served = 0
        self._stopping = False

    def register(self, name: str, handler: Callable) -> None:
        """Register a handler: a sub-generator ``handler(thread, payload)``
        returning (reply_size, reply_payload)."""
        self._handlers[name] = handler

    def serve_loop(self, thread: Thread):
        """Thread body for the service thread (svc_run)."""
        costs = self.kernel.costs
        while not self._stopping:
            request, _sender = yield from self.sock.recvfrom(thread)
            if request is None:
                return
            # svc_getreq: poll bookkeeping + request demultiplexing
            tracer = self.kernel.tracer
            span = tracer.begin("rpc.serve", "ipc", thread=thread) \
                if tracer.enabled else None
            yield from thread.compute(costs.RPC_SERVER_USER)
            body = yield from self.codec.decode(thread, request)
            name = body["proc"]
            if name == _SHUTDOWN:
                self._stopping = True
                return
            handler = self._handlers.get(name)
            if handler is None:
                reply_size, reply = 4, KernelError(f"no such proc {name}")
            else:
                reply_size, reply = yield from handler(thread,
                                                       body["args"])
            wire = yield from self.codec.encode(
                thread, reply_size,
                {"xid": body["xid"], "result": reply})
            yield from self.sock.sendto(thread, body["reply_to"],
                                        reply_size, wire)
            self.requests_served += 1
            if span is not None:
                tracer.end(span, args={"proc": name})

    def stop(self) -> None:
        self._stopping = True
        self.sock.close()


class RpcClient:
    """An rpcgen-style client handle (clnt_create + clnt_call)."""

    def __init__(self, kernel, process: Process, namespace: SocketNamespace,
                 server_path: str, *, bufsize: int = None,
                 retries: int = 0,
                 reply_timeout_ns: float = None,
                 client_path: str = None):
        self.kernel = kernel
        self.process = process
        self.codec = XDRCodec(kernel)
        self.namespace = namespace
        self.server_path = server_path
        self.sock = namespace.socket(kernel) if bufsize is None \
            else namespace.socket(kernel, bufsize=bufsize)
        # callers that need reproducible namespaces pass client_path
        self.sock.bind(client_path or f"{server_path}#client-{id(self)}")
        self.sock.bind_owner(process)
        self.calls = 0
        #: retransmit budget per call; 0 (the default) keeps the classic
        #: block-forever clnt_call so benchmark timings are unchanged
        self.retries = retries
        #: per-attempt reply deadline; required for retries to trigger
        self.reply_timeout_ns = reply_timeout_ns
        self.retransmits = 0

    def call(self, thread: Thread, proc: str, size: int, args=None):
        """Sub-generator: clnt_call — returns the handler's reply payload.

        With ``reply_timeout_ns`` set, each attempt waits that long for
        the reply; on expiry the same request (same xid, rpcgen-style) is
        retransmitted up to ``retries`` times with exponential backoff,
        after which :class:`SocketTimeout` propagates. Replies to earlier
        timed-out attempts are recognized by their stale xid and dropped.
        """
        costs = self.kernel.costs
        xid = next(_xid)
        tracer = self.kernel.tracer
        span = tracer.begin("rpc.call", "ipc", thread=thread,
                            args={"proc": proc, "size": size}) \
            if tracer.enabled else None
        # clnt_call bookkeeping: xid management, timeout setup, retransmit
        yield from thread.compute(costs.RPC_CLIENT_USER)
        wire = yield from self.codec.encode(
            thread, size,
            {"xid": xid, "proc": proc, "args": args,
             "reply_to": self.sock.path})
        attempt = 0
        while True:
            try:
                yield from self.sock.sendto(thread, self.server_path,
                                            size, wire)
                while True:
                    reply_wire, _sender = yield from self.sock.recvfrom(
                        thread, timeout_ns=self.reply_timeout_ns)
                    if reply_wire is None:
                        raise PeerResetError(
                            f"RPC server {self.server_path} hung up")
                    body = yield from self.codec.decode(thread, reply_wire)
                    if body["xid"] == xid:
                        break
                    # a straggler reply to an attempt we already gave up
                    # on: drop it and keep waiting for ours
                break
            except SocketTimeout:
                if attempt >= self.retries:
                    if span is not None:
                        tracer.end(span, args={"fault": "timeout",
                                               "attempts": attempt + 1})
                    raise
                backoff = costs.RPC_RETRY_BACKOFF * (2 ** attempt)
                attempt += 1
                self.retransmits += 1
                yield from thread.compute(costs.RPC_RETRY_WORK)
                yield from thread.sleep(backoff)
            except (PeerResetError, KernelError):
                if span is not None:
                    tracer.end(span, args={"fault": "reset"})
                raise
        self.calls += 1
        if span is not None:
            tracer.end(span)
        result = body["result"]
        if isinstance(result, Exception):
            raise result
        return result

    def shutdown_server(self, thread: Thread):
        """Sub-generator: deliver the shutdown sentinel to the svc loop."""
        wire = yield from self.codec.encode(
            thread, 4, {"xid": next(_xid), "proc": _SHUTDOWN, "args": None,
                        "reply_to": self.sock.path})
        yield from self.sock.sendto(thread, self.server_path, 4, wire)
