"""Tests for local RPC: dispatch, replies, errors, service threads."""

import pytest

from repro.errors import KernelError
from repro.ipc import RpcClient, RpcServer, SocketNamespace
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def ns():
    return SocketNamespace()


def make_echo_server(kernel, ns, path="/srv/echo"):
    server_proc = kernel.spawn_process("server")
    server = RpcServer(kernel, server_proc, ns, path)

    def echo(t, args):
        yield from t.compute(2)
        return 8, ("echo", args)

    def boom(t, args):
        yield from t.compute(2)
        return 4, KernelError("handler failed")

    server.register("echo", echo)
    server.register("boom", boom)
    kernel.spawn(server_proc, server.serve_loop, name="svc", pin=1)
    return server


def test_call_returns_handler_result(kernel, ns):
    make_echo_server(kernel, ns)
    client_proc = kernel.spawn_process("client")
    client = RpcClient(kernel, client_proc, ns, "/srv/echo")
    results = []

    def body(t):
        results.append((yield from client.call(t, "echo", 8, args=42)))
        yield from client.shutdown_server(t)

    kernel.spawn(client_proc, body, pin=0)
    kernel.run()
    kernel.check()
    assert results == [("echo", 42)]


def test_multiple_sequential_calls(kernel, ns):
    server = make_echo_server(kernel, ns)
    client_proc = kernel.spawn_process("client")
    client = RpcClient(kernel, client_proc, ns, "/srv/echo")

    def body(t):
        for i in range(5):
            yield from client.call(t, "echo", 8, args=i)
        yield from client.shutdown_server(t)

    kernel.spawn(client_proc, body, pin=0)
    kernel.run()
    kernel.check()
    assert client.calls == 5
    assert server.requests_served == 5


def test_error_reply_raises_at_caller(kernel, ns):
    make_echo_server(kernel, ns)
    client_proc = kernel.spawn_process("client")
    client = RpcClient(kernel, client_proc, ns, "/srv/echo")
    caught = []

    def body(t):
        try:
            yield from client.call(t, "boom", 8)
        except KernelError as exc:
            caught.append(str(exc))
        yield from client.shutdown_server(t)

    kernel.spawn(client_proc, body, pin=0)
    kernel.run()
    assert caught == ["handler failed"]


def test_unknown_proc_raises(kernel, ns):
    make_echo_server(kernel, ns)
    client_proc = kernel.spawn_process("client")
    client = RpcClient(kernel, client_proc, ns, "/srv/echo")
    caught = []

    def body(t):
        try:
            yield from client.call(t, "missing", 8)
        except KernelError:
            caught.append(True)
        yield from client.shutdown_server(t)

    kernel.spawn(client_proc, body, pin=0)
    kernel.run()
    assert caught == [True]


def test_two_clients_interleave(kernel, ns):
    make_echo_server(kernel, ns)
    done = []

    def make_client(i):
        proc = kernel.spawn_process(f"client{i}")
        client = RpcClient(kernel, proc, ns, "/srv/echo")

        def body(t):
            for j in range(3):
                result = yield from client.call(t, "echo", 8, args=(i, j))
                assert result == ("echo", (i, j))
            done.append(i)

        kernel.spawn(proc, body, pin=0)

    make_client(0)
    make_client(1)
    kernel.run(until_ns=10_000_000)
    assert sorted(done) == [0, 1]


def test_rpc_roundtrip_is_orders_of_magnitude_over_function_call(kernel, ns):
    """§2.2: local RPC is more than 3000x slower than a function call."""
    make_echo_server(kernel, ns)
    client_proc = kernel.spawn_process("client")
    client = RpcClient(kernel, client_proc, ns, "/srv/echo")
    elapsed = []

    def body(t):
        yield from client.call(t, "echo", 1)  # warm up
        start = t.now()
        yield from client.call(t, "echo", 1)
        elapsed.append(t.now() - start)
        yield from client.shutdown_server(t)

    kernel.spawn(client_proc, body, pin=0)
    kernel.run()
    assert elapsed[0] > 3000 * kernel.costs.FUNC_CALL
