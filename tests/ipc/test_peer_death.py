"""Peer-death semantics across the baseline IPC mechanisms: EPIPE,
ECONNRESET tombstones, bounded RPC retransmit, and L4 hangup."""

import pytest

from repro.errors import (KernelError, PeerResetError, PipeBrokenError,
                          SocketTimeout)
from repro.ipc import L4Endpoint, Pipe, RpcClient, RpcServer, SocketNamespace
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def ns():
    return SocketNamespace()


# -- pipes ---------------------------------------------------------------------

def test_write_after_reader_death_raises_epipe(kernel):
    writer_proc = kernel.spawn_process("writer")
    reader_proc = kernel.spawn_process("reader")
    pipe = Pipe(kernel)
    pipe.bind_endpoints(writer=writer_proc, reader=reader_proc)
    errors = []

    def writer(t):
        yield from pipe.write(t, 64, payload="one")
        yield from t.sleep(10_000)
        try:
            yield from pipe.write(t, 64, payload="two")
        except PipeBrokenError as exc:
            errors.append(exc)

    kernel.spawn(writer_proc, writer)
    kernel.engine.post(5_000, lambda: kernel.kill_process(reader_proc))
    kernel.run()
    kernel.check()
    assert len(errors) == 1


def test_blocked_writer_woken_with_epipe_on_reader_death(kernel):
    writer_proc = kernel.spawn_process("writer")
    reader_proc = kernel.spawn_process("reader")
    pipe = Pipe(kernel, capacity=1024)
    pipe.bind_endpoints(writer=writer_proc, reader=reader_proc)
    errors = []

    def writer(t):
        try:
            # 8 KB through a 1 KB buffer with no reader draining it:
            # blocks on a full buffer until the kill delivers EPIPE
            yield from pipe.write(t, 8 * 1024)
        except PipeBrokenError as exc:
            errors.append(exc)

    kernel.spawn(writer_proc, writer)
    kernel.engine.post(5_000, lambda: kernel.kill_process(reader_proc))
    kernel.run()
    kernel.check()
    assert len(errors) == 1
    assert kernel.engine.pending() == 0


def test_reader_gets_eof_when_writer_dies_between_messages(kernel):
    writer_proc = kernel.spawn_process("writer")
    reader_proc = kernel.spawn_process("reader")
    pipe = Pipe(kernel)
    pipe.bind_endpoints(writer=writer_proc, reader=reader_proc)
    got = []

    def writer(t):
        yield from pipe.write(t, 64, payload="only")
        yield t.block("forever")

    def reader(t):
        got.append((yield from pipe.read(t)))
        got.append((yield from pipe.read(t)))  # EOF after the kill

    kernel.spawn(writer_proc, writer)
    kernel.spawn(reader_proc, reader)
    kernel.engine.post(50_000, lambda: kernel.kill_process(writer_proc))
    kernel.run()
    assert got == ["only", None]


def test_reader_reset_when_writer_dies_mid_message(kernel):
    """A large write streams through the buffer in chunks; killing the
    writer mid-stream leaves the frame short — the reader must get a
    reset naming the partial count, not EOF and not a hang."""
    writer_proc = kernel.spawn_process("writer")
    reader_proc = kernel.spawn_process("reader")
    pipe = Pipe(kernel, capacity=4 * 1024)
    pipe.bind_endpoints(writer=writer_proc, reader=reader_proc)
    errors = []

    def writer(t):
        yield from pipe.write(t, 64 * 1024)

    def reader(t):
        yield from t.sleep(2_000)
        try:
            yield from pipe.read(t)
        except PeerResetError as exc:
            errors.append(str(exc))

    kernel.spawn(writer_proc, writer, pin=0)
    kernel.spawn(reader_proc, reader, pin=1)
    kernel.engine.post(8_000, lambda: kernel.kill_process(writer_proc))
    kernel.run()
    assert len(errors) == 1
    assert "bytes delivered" in errors[0]
    assert kernel.engine.pending() == 0


# -- unix sockets --------------------------------------------------------------

def test_tombstone_gives_reset_not_refused(kernel, ns):
    owner = kernel.spawn_process("owner")
    sock = ns.socket(kernel)
    sock.bind("/box")
    sock.bind_owner(owner)
    kernel.kill_process(owner)
    sender_proc = kernel.spawn_process("sender")
    sender = ns.socket(kernel)
    outcomes = []

    def body(t):
        try:
            yield from sender.sendto(t, "/box", 16)
        except PeerResetError:
            outcomes.append("reset")
        try:
            yield from sender.sendto(t, "/never-bound", 16)
        except PeerResetError:
            outcomes.append("reset")
        except KernelError:
            outcomes.append("refused")

    kernel.spawn(sender_proc, body)
    kernel.run()
    kernel.check()
    assert outcomes == ["reset", "refused"]


def test_blocked_receiver_woken_with_reset_on_owner_death(kernel, ns):
    owner = kernel.spawn_process("owner")
    other = kernel.spawn_process("other")
    sock = ns.socket(kernel)
    sock.bind("/box")
    sock.bind_owner(owner)
    errors = []

    def body(t):
        try:
            yield from sock.recvfrom(t)
        except PeerResetError as exc:
            errors.append(exc)

    kernel.spawn(other, body)
    kernel.engine.post(5_000, lambda: kernel.kill_process(owner))
    kernel.run()
    kernel.check()
    assert len(errors) == 1


def test_rebinding_over_a_tombstone_is_allowed(kernel, ns):
    owner = kernel.spawn_process("owner")
    sock = ns.socket(kernel)
    sock.bind("/box")
    sock.bind_owner(owner)
    kernel.kill_process(owner)
    fresh = ns.socket(kernel)
    fresh.bind("/box")  # a restarted service reclaims the name
    assert ns.lookup("/box") is fresh


def test_recvfrom_timeout_raises_and_leaves_no_stale_state(kernel, ns):
    proc = kernel.spawn_process("p")
    sock = ns.socket(kernel)
    sock.bind("/box")
    events = []

    def impatient(t):
        try:
            yield from sock.recvfrom(t, timeout_ns=10_000)
        except SocketTimeout:
            events.append(("timeout", t.now()))

    def patient(t):
        yield from t.sleep(20_000)
        events.append(("got", (yield from sock.recvfrom(t))[0]))

    def sender(t):
        yield from t.sleep(40_000)
        yield from sock.sendto(t, "/box", 16, payload="late")

    kernel.spawn(proc, impatient, pin=0)
    kernel.spawn(proc, patient, pin=0)
    kernel.spawn(proc, sender, pin=1)
    kernel.run()
    kernel.check()
    # the timed-out receiver's stale queue entry must not eat the wake
    # meant for the second receiver
    assert events[0][0] == "timeout" and events[0][1] >= 10_000
    assert events[1] == ("got", "late")
    assert kernel.engine.pending() == 0


def test_recvfrom_success_cancels_timer(kernel, ns):
    proc = kernel.spawn_process("p")
    sock = ns.socket(kernel)
    sock.bind("/box")
    got = []

    def receiver(t):
        got.append((yield from sock.recvfrom(
            t, timeout_ns=100_000_000))[0])

    def sender(t):
        yield from sock.sendto(t, "/box", 16, payload="fast")

    kernel.spawn(proc, receiver, pin=0)
    kernel.spawn(proc, sender, pin=1)
    kernel.run()
    kernel.check()
    assert got == ["fast"]
    assert kernel.engine.pending() == 0
    assert kernel.engine.now() < 100_000_000


# -- rpc -----------------------------------------------------------------------

def _make_server(kernel, ns, path="/srv/echo"):
    server_proc = kernel.spawn_process("server")
    server = RpcServer(kernel, server_proc, ns, path)

    def echo(t, args):
        yield from t.compute(2)
        return 8, ("echo", args)

    server.register("echo", echo)
    return server_proc, server


def test_rpc_retransmits_until_server_appears(kernel, ns):
    """rpcgen semantics: the same xid is retransmitted with backoff; a
    late server answers both copies and the client accepts the first
    matching reply, dropping the stale duplicate on the next call."""
    server_proc, server = _make_server(kernel, ns)
    client_proc = kernel.spawn_process("client")
    client = RpcClient(kernel, client_proc, ns, "/srv/echo",
                       retries=2, reply_timeout_ns=100_000.0)
    results = []

    def body(t):
        results.append((yield from client.call(t, "echo", 8, args=1)))
        # the retransmitted copy produced a duplicate reply with the old
        # xid: the next call must drop it, not mistake it for its own
        results.append((yield from client.call(t, "echo", 8, args=2)))
        yield from client.shutdown_server(t)

    kernel.spawn(client_proc, body, pin=0)
    # the service thread only starts after the first attempt timed out
    kernel.engine.post(
        120_000, lambda: kernel.spawn(server_proc, server.serve_loop,
                                      name="svc", pin=1))
    kernel.run()
    kernel.check()
    assert results == [("echo", 1), ("echo", 2)]
    assert client.retransmits == 1
    assert server.requests_served == 3  # req1 twice + req2


def test_rpc_retries_exhausted_raises_timeout(kernel, ns):
    # nothing ever binds the path's service loop: all attempts expire
    server_proc, server = _make_server(kernel, ns)
    client_proc = kernel.spawn_process("client")
    client = RpcClient(kernel, client_proc, ns, "/srv/echo",
                       retries=1, reply_timeout_ns=10_000.0)
    caught = []

    def body(t):
        try:
            yield from client.call(t, "echo", 8, args=1)
        except SocketTimeout as exc:
            caught.append((exc, t.now()))

    kernel.spawn(client_proc, body, pin=0)
    kernel.run()
    kernel.check()
    assert len(caught) == 1
    # two attempts of 10us plus one 50us backoff elapsed
    assert caught[0][1] >= 2 * 10_000 + 50_000
    assert client.retransmits == 1
    assert kernel.engine.pending() == 0


def test_rpc_default_client_is_unchanged_blocking(kernel, ns):
    client_proc = kernel.spawn_process("client")
    client = RpcClient(kernel, client_proc, ns, "/srv/echo")
    assert client.retries == 0
    assert client.reply_timeout_ns is None


def test_rpc_client_sees_reset_when_server_dies(kernel, ns):
    server_proc, server = _make_server(kernel, ns)
    kernel.spawn(server_proc, server.serve_loop, name="svc", pin=1)
    client_proc = kernel.spawn_process("client")
    client = RpcClient(kernel, client_proc, ns, "/srv/echo",
                       retries=3, reply_timeout_ns=20_000.0)
    caught = []

    def body(t):
        results = yield from client.call(t, "echo", 8, args=1)
        assert results == ("echo", 1)
        yield from t.sleep(100_000)  # outlive the kill below
        try:
            yield from client.call(t, "echo", 8, args=2)
        except PeerResetError as exc:
            caught.append(exc)

    kernel.spawn(client_proc, body, pin=0)
    # kill the server between the two exchanges: the second call's send
    # hits the tombstone and surfaces ECONNRESET instead of blocking
    kernel.engine.post(60_000, lambda: kernel.kill_process(server_proc))
    kernel.run()
    assert len(caught) == 1
    assert kernel.engine.pending() == 0


# -- l4 ------------------------------------------------------------------------

def test_l4_call_after_owner_death_raises(kernel):
    client_proc = kernel.spawn_process("client")
    server_proc = kernel.spawn_process("server")
    endpoint = L4Endpoint(kernel)
    endpoint.bind_owner(server_proc)
    kernel.kill_process(server_proc)
    caught = []

    def body(t):
        try:
            yield from endpoint.call(t, "ping")
        except PeerResetError as exc:
            caught.append(exc)

    kernel.spawn(client_proc, body)
    kernel.run()
    kernel.check()
    assert len(caught) == 1


def test_l4_blocked_caller_woken_on_hangup(kernel):
    client_proc = kernel.spawn_process("client")
    server_proc = kernel.spawn_process("server")
    endpoint = L4Endpoint(kernel)
    endpoint.bind_owner(server_proc)
    caught = []

    def server(t):
        caller, msg = yield from endpoint.wait(t)
        yield t.block("forever")  # takes the request, never replies

    def client(t):
        try:
            yield from endpoint.call(t, "ping")
        except PeerResetError as exc:
            caught.append(exc)

    kernel.spawn(server_proc, server, pin=1, name="l4srv")
    kernel.spawn(client_proc, client, pin=0, name="l4cli")
    kernel.engine.post(50_000, lambda: kernel.kill_process(server_proc))
    kernel.run()
    assert len(caught) == 1
    assert kernel.engine.pending() == 0
