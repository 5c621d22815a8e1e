"""RequestQueue, AdmissionGate, and with_deadline semantics."""

import pytest

from repro.errors import KernelError
from repro.kernel import Kernel
from repro.load.queueing import (AdmissionGate, RequestQueue,
                                 RequestTimeout, with_deadline)


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def proc(kernel):
    return kernel.spawn_process("loadq")


def _consumer(queue, got):
    def consumer(t):
        while True:
            item = yield from queue.get(t)
            if item is None:
                return
            got.append(item)
            yield from t.compute(100)
    return consumer


def test_validation_rejects_bad_depth_and_policy(kernel):
    with pytest.raises(ValueError):
        RequestQueue(kernel, depth=0, policy="shed")
    with pytest.raises(ValueError):
        RequestQueue(kernel, depth=4, policy="balloon")
    with pytest.raises(ValueError):
        AdmissionGate(kernel, depth=0, policy="block")
    with pytest.raises(ValueError):
        AdmissionGate(kernel, depth=4, policy="balloon")


def test_shed_queue_drops_burst_past_depth(kernel, proc):
    queue = RequestQueue(kernel, depth=2, policy="shed")
    got, accepted = [], []

    def producer(t):
        yield from t.compute(10)  # let the consumer park in get() first
        accepted.extend(queue.put(i) for i in range(5))
        queue.close()

    kernel.spawn(proc, _consumer(queue, got), name="loadq/c")
    kernel.spawn(proc, producer, name="loadq/p")
    kernel.run()
    # the burst lands in one engine step: two fit, three are shed
    assert accepted == [True, True, False, False, False]
    assert queue.shed == 3
    assert got == [0, 1]
    assert queue.peak_depth == 2


def test_block_queue_delivers_every_arrival_in_order(kernel, proc):
    queue = RequestQueue(kernel, depth=2, policy="block")
    got = []

    def producer(t):
        yield from t.compute(10)
        assert all(queue.put(i) for i in range(5))
        queue.close()

    kernel.spawn(proc, _consumer(queue, got), name="loadq/c")
    kernel.spawn(proc, producer, name="loadq/p")
    kernel.run()
    assert got == [0, 1, 2, 3, 4]
    assert queue.shed == 0
    assert queue.peak_depth > 2  # block exceeds the nominal depth


def test_close_wakes_parked_consumer_with_none(kernel, proc):
    queue = RequestQueue(kernel, depth=2, policy="shed")
    got = []

    def closer(t):
        yield from t.compute(500)
        queue.close()

    kernel.spawn(proc, _consumer(queue, got), name="loadq/c")
    kernel.spawn(proc, closer, name="loadq/x")
    kernel.run()
    assert got == []
    assert kernel.engine.pending() == 0  # the consumer exited cleanly


def test_gate_shed_rejects_when_full(kernel, proc):
    gate = AdmissionGate(kernel, depth=1, policy="shed")
    results = []

    def holder(t):
        assert (yield from gate.admit(t))
        yield from t.sleep(5_000)
        gate.release()

    def late(t):
        yield from t.sleep(1_000)  # arrive while the holder is inside
        results.append((yield from gate.admit(t)))
        if results[-1]:
            gate.release()

    kernel.spawn(proc, holder, name="loadq/h")
    kernel.spawn(proc, late, name="loadq/l")
    kernel.run()
    assert results == [False]
    assert gate.shed == 1
    assert gate.in_flight == 0


def test_gate_block_admits_waiters_fifo(kernel, proc):
    gate = AdmissionGate(kernel, depth=1, policy="block")
    order = []

    def client(t, cid):
        yield from t.sleep(1_000 * (cid + 1))  # stagger arrival order
        assert (yield from gate.admit(t))
        order.append(cid)
        yield from t.sleep(10_000)  # hold the slot so the rest queue up
        gate.release()

    for cid in range(3):
        kernel.spawn(proc, lambda t, cid=cid: client(t, cid),
                     name=f"loadq/c{cid}")
    kernel.run()
    assert order == [0, 1, 2]
    assert gate.peak_in_flight == 1
    assert gate.in_flight == 0


def test_gate_release_without_admit_raises(kernel):
    gate = AdmissionGate(kernel, depth=1, policy="block")
    with pytest.raises(KernelError):
        gate.release()


def test_deadline_expires_stuck_request_and_runs_cleanup(kernel, proc):
    cleaned, outcome = [], []

    def stuck(t):
        while True:
            yield t.block("stuck-forever")

    def request(t):
        try:
            yield from with_deadline(t, stuck(t), 2_000.0,
                                     cleanup=lambda: cleaned.append(True))
        except RequestTimeout:
            outcome.append("timeout")

    kernel.spawn(proc, request, name="loadq/r")
    kernel.run()
    assert outcome == ["timeout"]
    assert cleaned == [True]


def test_deadline_timer_cancelled_when_subgen_finishes_first(kernel, proc):
    results = []

    def quick(t):
        yield from t.compute(100)
        return "ok"

    def request(t):
        results.append((yield from with_deadline(t, quick(t), 1_000_000.0)))

    kernel.spawn(proc, request, name="loadq/r")
    kernel.run()
    assert results == ["ok"]
    assert kernel.engine.pending() == 0  # no stale timer left behind
