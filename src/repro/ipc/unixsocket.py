"""UNIX datagram sockets with a filesystem-style name registry.

These carry the local RPC traffic (glibc rpcgen runs over UNIX sockets,
§2.2) and dIPC's default entry-point resolution handshake (§6.2.1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro import units
from repro.errors import (KernelError, PeerResetError, ResourceError,
                          SocketTimeout)
from repro.kernel.thread import Thread

SOCK_BUF_SIZE = 208 * units.KB  # net.core.rmem_default ballpark


class Datagram:
    """One queued message."""

    __slots__ = ("size", "payload", "sender")

    def __init__(self, size: int, payload, sender: Optional["UnixSocket"]):
        self.size = size
        self.payload = payload
        self.sender = sender


class UnixSocket:
    """A datagram socket; bind to a path to receive, sendto by path."""

    def __init__(self, kernel, namespace: "SocketNamespace", *,
                 bufsize: int = SOCK_BUF_SIZE):
        self.kernel = kernel
        self.namespace = namespace
        self.bufsize = bufsize
        self.path: Optional[str] = None
        self._queue: Deque[Datagram] = deque()
        self._bytes = 0
        self._receivers: Deque[Thread] = deque()
        self.closed = False
        #: set when the owning process died: the binding becomes a
        #: tombstone and peers see ECONNRESET instead of "refused"
        self.reset = False
        self._owner = None
        self._kill_hook_installed = False

    # -- naming -------------------------------------------------------------------

    def bind(self, path: str) -> None:
        self.namespace.bind(path, self)
        self.path = path

    def bind_owner(self, process) -> None:
        """Tie the socket's lifetime to ``process``.

        When the owner is killed the socket is reset in place: the name
        stays bound as a tombstone, so senders get
        :class:`PeerResetError` (ECONNRESET) rather than the
        "connection refused" a never-bound path gives, and blocked
        receivers from other processes are woken with the same error.
        """
        self._owner = process
        if not self._kill_hook_installed:
            self._kill_hook_installed = True
            self.kernel.on_process_kill(self._on_process_kill)

    def _on_process_kill(self, process) -> None:
        if process is not self._owner or self.reset:
            return
        self.reset = True
        self.closed = True
        # deliberately NOT unbound: the tombstone distinguishes a dead
        # peer (reset) from a name nobody ever bound (refused)
        waiters = list(self._receivers)
        self._receivers.clear()
        for waiter in waiters:
            if not waiter.is_done:
                self.kernel.wake(waiter)

    # -- copy cost ----------------------------------------------------------------

    def _kernel_copy_ns(self, size: int) -> float:
        cache = self.kernel.machine.cache
        costs = self.kernel.costs
        ns = cache.copy_ns(size, startup=costs.MEMCPY_STARTUP,
                           footprint=min(size, SOCK_BUF_SIZE))
        if size > units.PAGE_SIZE:
            ns += units.pages_for(size) * costs.KERNEL_COPY_PAGE_CHECK
        return ns

    # -- data path -----------------------------------------------------------------

    def sendto(self, thread: Thread, path: str, size: int, payload=None):
        """Sub-generator: sendto(2). Fails if the peer buffer is full
        (datagram semantics: no blocking on send)."""
        costs = self.kernel.costs
        yield from thread.syscall(0)
        yield from thread.kwork(costs.SOCK_SEND_WORK)
        peer = self.namespace.lookup(path)
        if peer is not None and peer.reset:
            raise PeerResetError(
                f"peer process behind {path} is dead (ECONNRESET)")
        if peer is None or peer.closed:
            raise KernelError(f"connection refused: {path}")
        if peer._bytes + size > peer.bufsize:
            raise KernelError(f"peer buffer full: {path}")
        yield from thread.kwork(self._kernel_copy_ns(size))
        peer._queue.append(Datagram(size, payload, self))
        peer._bytes += size
        while peer._receivers:
            receiver = peer._receivers.popleft()
            if not receiver.is_done:
                self.kernel.wake(receiver, from_thread=thread)
                break

    def recvfrom(self, thread: Thread, *,
                 timeout_ns: Optional[float] = None):
        """Sub-generator: recvfrom(2) — blocks while empty; returns
        (payload, sender_socket).

        With ``timeout_ns`` (SO_RCVTIMEO-style) the wait is bounded:
        :class:`SocketTimeout` is raised if no datagram arrives in time.
        The expiry removes the thread from the receiver queue before
        waking it, so a timed-out receiver never eats a later wake.
        """
        costs = self.kernel.costs
        yield from thread.syscall(0)
        yield from thread.kwork(costs.SOCK_RECV_WORK)
        timer = None
        expired = [False]
        if timeout_ns is not None:
            def _expire():
                expired[0] = True
                try:
                    self._receivers.remove(thread)
                except ValueError:
                    pass
                self.kernel.wake(thread)
            timer = self.kernel.engine.post(timeout_ns, _expire)
        try:
            while not self._queue:
                if self.reset:
                    raise PeerResetError(
                        f"socket {self.path or '?'} reset: owner died")
                if self.closed:
                    if timer is not None:
                        self.kernel.engine.cancel(timer)
                        timer = None
                    return None, None
                if expired[0]:
                    raise SocketTimeout(
                        f"recvfrom on {self.path or '?'} expired after "
                        f"{timeout_ns:.0f}ns")
                self._receivers.append(thread)
                yield thread.block("sock-recv")
        except BaseException:
            if timer is not None:
                self.kernel.engine.cancel(timer)
            raise
        if timer is not None:
            self.kernel.engine.cancel(timer)
        dgram = self._queue.popleft()
        self._bytes -= dgram.size
        yield from thread.kwork(self._kernel_copy_ns(dgram.size))
        return dgram.payload, dgram.sender

    def close(self) -> None:
        self.closed = True
        if self.path is not None:
            self.namespace.unbind(self.path)
        for receiver in self._receivers:
            self.kernel.wake(receiver)
        self._receivers.clear()

    @property
    def queued(self) -> int:
        return len(self._queue)


class SocketNamespace:
    """The abstract-socket / filesystem namespace mapping paths to sockets."""

    def __init__(self):
        self._bound: Dict[str, UnixSocket] = {}

    def socket(self, kernel, *, bufsize: int = SOCK_BUF_SIZE) -> UnixSocket:
        return UnixSocket(kernel, self, bufsize=bufsize)

    def bind(self, path: str, sock: UnixSocket) -> None:
        if path in self._bound and not self._bound[path].closed:
            raise ResourceError(f"address already in use: {path}")
        self._bound[path] = sock

    def unbind(self, path: str) -> None:
        self._bound.pop(path, None)

    def lookup(self, path: str) -> Optional[UnixSocket]:
        return self._bound.get(path)
