"""Tests for the effect protocol and the L4-style direct handoff."""

import pytest

from repro.errors import SimulationError
from repro.kernel import Kernel
from repro.kernel.effects import BlockThread, Charge, Handoff, YieldCPU
from repro.sim.stats import Block


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def proc(kernel):
    return kernel.spawn_process("p")


class TestEffectObjects:
    def test_charge_defaults_to_user(self):
        assert Charge(5).block is Block.USER

    def test_charge_rejects_negative(self):
        with pytest.raises(ValueError):
            Charge(-1)

    def test_compute_and_kwork_charge_their_blocks(self, kernel, proc):
        def body(t):
            yield from t.compute(100)
            yield from t.kwork(50)

        kernel.spawn(proc, body, pin=0)
        kernel.run()
        account = kernel.machine.cpus[0].account
        assert account.ns[Block.USER] == 100
        assert account.ns[Block.KERNEL] == 50

    def test_reprs(self):
        assert "Charge" in repr(Charge(1))
        assert "futex" in repr(BlockThread("futex"))
        assert "Yield" in repr(YieldCPU())


class TestHandoff:
    def test_handoff_transfers_value_and_control(self, kernel, proc):
        log = []

        def receiver(t):
            value = yield t.block("wait")
            log.append(("got", value, t.now()))

        target = kernel.spawn(proc, receiver, pin=0)

        handed_at = []

        def sender(t):
            yield from t.compute(100)
            handed_at.append(t.now())
            yield Handoff(target, "payload")
            log.append(("sender-back", t.now()))

        sender_thread = kernel.spawn(proc, sender, pin=0)
        kernel.engine.post(50_000, lambda: kernel.wake(sender_thread))
        kernel.run()
        assert log[0][0] == "got"
        assert log[0][1] == "payload"
        # receiver ran at the instant of the handoff: no scheduler pass
        assert log[0][2] == pytest.approx(handed_at[0])

    def test_handoff_to_running_thread_is_an_error(self, kernel, proc):
        def spinner(t):
            while True:
                yield from t.compute(100)

        target = kernel.spawn(proc, spinner, pin=1)

        def sender(t):
            yield from t.compute(10)
            yield Handoff(target, None)

        sender_thread = kernel.spawn(proc, sender, pin=0)
        kernel.run(until_ns=100_000)
        assert isinstance(sender_thread.exception, SimulationError)

    def test_handoff_to_thread_pinned_elsewhere_is_an_error(self, kernel,
                                                            proc):
        def sleeper(t):
            yield t.block("wait")

        target = kernel.spawn(proc, sleeper, pin=1)

        def sender(t):
            yield from t.compute(10)
            yield Handoff(target, None)

        # let the sleeper block on CPU1 first
        sender_thread = kernel.spawn(proc, sender, pin=0)
        kernel.run(until_ns=100_000)
        assert isinstance(sender_thread.exception, SimulationError)

    def test_handoff_charges_page_table_switch_across_processes(self,
                                                                kernel):
        proc_a = kernel.spawn_process("a")
        proc_b = kernel.spawn_process("b")

        def receiver(t):
            yield t.block("wait")

        target = kernel.spawn(proc_b, receiver, pin=0)

        def sender(t):
            yield from t.compute(10)
            yield Handoff(target, None)

        kernel.spawn(proc_a, sender, pin=0)
        kernel.run()
        assert kernel.machine.cpus[0].account.ns[Block.PTSW] > 0
