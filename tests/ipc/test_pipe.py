"""Tests for pipes: blocking semantics, capacity, copy costs."""

import pytest

from repro import units
from repro.ipc import Pipe
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def proc(kernel):
    return kernel.spawn_process("p")


def test_write_then_read(kernel, proc):
    pipe = Pipe(kernel)
    got = []

    def writer(t):
        yield from pipe.write(t, 8, payload="hello")

    def reader(t):
        got.append((yield from pipe.read(t)))

    kernel.spawn(proc, writer)
    kernel.spawn(proc, reader)
    kernel.run()
    kernel.check()
    assert got == ["hello"]


def test_read_blocks_until_write(kernel, proc):
    pipe = Pipe(kernel)
    events = []

    def reader(t):
        events.append("read-start")
        yield from pipe.read(t)
        events.append("read-done")

    def writer(t):
        yield from t.compute(5000)
        events.append("writing")
        yield from pipe.write(t, 4)

    kernel.spawn(proc, reader, pin=0)
    kernel.spawn(proc, writer, pin=0)
    kernel.run()
    assert events == ["read-start", "writing", "read-done"]


def test_writer_blocks_when_full(kernel, proc):
    pipe = Pipe(kernel, capacity=16)
    events = []

    def writer(t):
        yield from pipe.write(t, 16, payload="first")
        events.append("first-written")
        yield from pipe.write(t, 16, payload="second")
        events.append("second-written")

    def reader(t):
        yield from t.compute(20000)
        events.append("draining")
        yield from pipe.read(t)

    kernel.spawn(proc, writer, pin=0)
    kernel.spawn(proc, reader, pin=0)
    kernel.run()
    kernel.check()
    assert events == ["first-written", "draining", "second-written"]


def test_fifo_order(kernel, proc):
    pipe = Pipe(kernel)
    got = []

    def writer(t):
        for i in range(5):
            yield from pipe.write(t, 4, payload=i)

    def reader(t):
        for _ in range(5):
            got.append((yield from pipe.read(t)))

    kernel.spawn(proc, writer)
    kernel.spawn(proc, reader)
    kernel.run()
    assert got == [0, 1, 2, 3, 4]


def test_close_gives_eof_to_blocked_reader(kernel, proc):
    pipe = Pipe(kernel)
    got = []

    def reader(t):
        got.append((yield from pipe.read(t)))

    kernel.spawn(proc, reader)
    kernel.engine.post(1000, pipe.close)
    kernel.run()
    assert got == [None]


def test_large_transfer_costs_more_than_small(kernel, proc):
    times = {}

    def run_transfer(size):
        pipe = Pipe(kernel)

        def writer(t):
            yield from pipe.write(t, size)

        def reader(t):
            start = t.now()
            yield from pipe.read(t)
            times[size] = t.now() - start

        kernel.spawn(proc, writer, pin=0)
        kernel.spawn(proc, reader, pin=0)
        kernel.run()

    run_transfer(64)
    run_transfer(256 * units.KB)
    assert times[256 * units.KB] > times[64] * 10


def test_invalid_write_size(kernel, proc):
    pipe = Pipe(kernel)

    def body(t):
        yield from pipe.write(t, 0)

    thread = kernel.spawn(proc, body)
    kernel.run()
    assert isinstance(thread.exception, ValueError)
