"""The L4 abandoned-reply path under adversarial schedules.

A reply racing its caller's timeout + deregistration must never wake
the wrong rendezvous. The deterministic regression below is the exact
pre-fix reproducer: with the server cross-CPU (reply arrives via the
IPI wake path, ~2 us wake-to-run latency) and a deadline placed just
inside the reply's arrival window, the timed-out caller has already
*re-registered* for its next call when the stale reply lands — without
epoch matching, request N+1 woke with request N's value.

The schedule-exploration tests then drive the same race through the
checker's interleaving strategies: across every explored schedule the
wrong wake must never occur, only clean replies or timeouts.
"""

import pytest

from repro.errors import KernelError, PeerResetError
from repro.ipc import L4Endpoint
from repro.kernel import Kernel
from repro.load.queueing import RequestTimeout, with_deadline


def run_race(*, compute_ns, deadline_ns, requests, client_pin=0,
             server_pin=1):
    """One client looping deadlined calls against a slow server."""
    kernel = Kernel(num_cpus=2)
    client_proc = kernel.spawn_process("client")
    server_proc = kernel.spawn_process("server")
    endpoint = L4Endpoint(kernel)
    endpoint.bind_owner(server_proc)
    log = []

    def server(t):
        caller, msg = yield from endpoint.wait(t)
        while True:
            yield from t.compute(compute_ns if msg % 3 == 0 else 100.0)
            caller, msg = yield from endpoint.reply_and_wait(
                t, caller, ("ack", msg))

    def client(t):
        for i in range(requests):
            try:
                reply = yield from with_deadline(
                    t, endpoint.call(t, i), deadline_ns)
            except RequestTimeout:
                log.append(("timeout", i))
            except (PeerResetError, KernelError):
                log.append(("reset", i))
            else:
                log.append(("got", i, reply))

    kernel.spawn(server_proc, server, pin=server_pin, name="srv/w0",
                 daemon=True)
    kernel.spawn(client_proc, client, pin=client_pin, name="cli/c0")
    kernel.run_all()
    return log


def test_stale_reply_never_satisfies_next_call():
    """The pre-fix reproducer: request 0 outlives its deadline, its
    late reply lands while request 1 is registered. Epoch matching must
    drop it — before the fix this logged ('got', 1, ('ack', 0))."""
    log = run_race(compute_ns=2800.0, deadline_ns=3400.0, requests=3)
    assert ("timeout", 0) in log  # the race window actually opened
    for entry in log:
        if entry[0] == "got":
            _tag, i, reply = entry
            assert reply == ("ack", i), \
                f"request {i} woke with the wrong reply {reply!r}"


@pytest.mark.parametrize("compute_ns", [2800.0, 2900.0, 3000.0])
@pytest.mark.parametrize("deadline_ns", [2600.0, 3000.0, 3400.0])
def test_reply_timeout_race_window_sweep(compute_ns, deadline_ns):
    """Sweep the delivery window around the deadline: whatever the
    relative timing, a reply only ever answers its own call epoch."""
    log = run_race(compute_ns=compute_ns, deadline_ns=deadline_ns,
                   requests=6)
    for entry in log:
        if entry[0] == "got":
            _tag, i, reply = entry
            assert reply == ("ack", i)


def test_same_cpu_handoff_immune_to_race():
    """Same-CPU replies hand off atomically; the sweep degenerates to
    plain timeouts and correct replies."""
    log = run_race(compute_ns=2800.0, deadline_ns=3400.0, requests=6,
                   client_pin=0, server_pin=0)
    for entry in log:
        if entry[0] == "got":
            _tag, i, reply = entry
            assert reply == ("ack", i)


def test_l4race_scenario_clean_across_schedules():
    """The checker's l4race scenario — the same race driven through
    the schedule controller — must be finding-free on every explored
    interleaving (this is what CI's check-smoke asserts at scale)."""
    from repro.check.explore import explore_one
    for schedule in range(12):
        result = explore_one("l4race", seed=7, schedule=schedule)
        assert result["findings"] == [], \
            f"schedule {schedule}: {result['findings']}"


def test_l4race_scenario_clean_under_perturbation():
    """Round-robin perturbation explores single-flip neighbours of the
    baseline schedule; the race must stay closed on all of them."""
    from repro.check.explore import explore_one
    for schedule in range(1, 10):
        result = explore_one("l4race", seed=7, schedule=schedule,
                             strategy="perturb")
        assert result["findings"] == [], \
            f"perturb schedule {schedule}: {result['findings']}"
