"""Checkable workloads beyond the figure drivers.

A scenario is a small, targeted workload built to put specific
kernel/IPC machinery under adversarial schedules and storms:

* ``chain4`` (``chain<N>`` generally) — a sequential service chain
  instantiated through :mod:`repro.topo` over dIPC, driven by the load
  harness until full drain; the default target of the CI topo storm.
* ``l4race`` — an L4 client whose per-request deadline races the
  server's reply: across explored interleavings a late reply must
  *never* wake the wrong call (the PR 6 abandoned-reply path).
* ``lostwake`` — a deliberately broken producer/consumer fixture whose
  channel has no peer-death hook: killing the producer wedges the
  consumer forever. Exists so the deadlock detector, shrinker and
  bundle replay have a guaranteed failure to chew on (CI asserts the
  shrinker converges on it).

Each scenario carries its own storm-target menu and horizon so
``--chaos`` lands faults inside the workload's actual lifetime.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import units
from repro.errors import KernelError, PeerResetError

#: matches repro.load.transports — the menu ChaosSession also targets
_SERVER_PROCESS = "load-server"
_WORKER_PREFIX = "load-server/w"


@dataclass(frozen=True)
class Scenario:
    """One named checkable workload."""

    name: str
    #: runs the workload; returns semantic findings (e.g. wrong wakes)
    run: Callable[[Optional[int]], List[str]]
    #: storm menu + horizon for --chaos exploration
    processes: Tuple[str, ...]
    thread_prefixes: Tuple[str, ...]
    horizon_ns: float
    #: topology size the shrinker may reduce (None: not sizeable)
    default_n: Optional[int] = None
    min_rules: int = 2
    max_rules: int = 4


# -- chain<N>: a topo service chain over dIPC -------------------------------

def _run_chain(topo_n: Optional[int]) -> List[str]:
    from repro.load import LoadParams, run_load_point
    from repro.topo import generate
    n = topo_n if topo_n is not None else 4
    n = max(n, 1)
    spec = generate("chain_branch", n)
    params = LoadParams(
        primitive="dipc", mode="open", policy="shed",
        arrivals="poisson", offered_kops=50.0, n_clients=2, n_conns=4,
        n_workers=2, queue_depth=8, req_size=128,
        deadline_ns=2.0 * units.MS, num_cpus=8,
        warmup_ns=0.2 * units.MS, window_ns=0.5 * units.MS, seed=42,
        topo=spec.to_dict(), max_requests_per_client=6, drain=True)
    run_load_point(params)
    return []


def _chain_processes(n: int) -> Tuple[str, ...]:
    # matches repro.topo.instantiate naming: the root service is the
    # load server, every other node runs as "svc<id>:<name>"
    return (_SERVER_PROCESS,) + tuple(
        f"svc{i}:svc{i}" for i in range(1, n))


# -- l4race: reply vs. timeout/deregistration -------------------------------

def _run_l4race(topo_n: Optional[int]) -> List[str]:
    from repro.ipc.l4 import L4Endpoint
    from repro.kernel.kernel import Kernel
    from repro.load.queueing import RequestTimeout, with_deadline

    findings: List[str] = []
    kernel = Kernel(num_cpus=2)
    server_proc = kernel.spawn_process(_SERVER_PROCESS)
    client_proc = kernel.spawn_process("load-clients")
    endpoint = L4Endpoint(kernel)
    endpoint.bind_owner(server_proc)

    def server(t):
        caller, message = yield from endpoint.wait(t)
        while True:
            # every third request outlives the client's deadline, so
            # its late reply races the caller's timeout + re-call: the
            # reply lands right around the next call's rendezvous
            # registration (cf. tests/ipc/test_l4_abandoned_schedules)
            yield from t.compute(2800.0 if message % 3 == 0 else 100.0)
            caller, message = yield from endpoint.reply_and_wait(
                t, caller, ("ack", message))

    def client(t):
        for i in range(12):
            try:
                reply = yield from with_deadline(
                    t, endpoint.call(t, i), 3400.0)
            except (RequestTimeout, PeerResetError, KernelError):
                continue
            if reply != ("ack", i):
                findings.append(
                    f"wrong-wake: request {i} woke with {reply!r}")

    kernel.spawn(server_proc, server, name=f"{_WORKER_PREFIX}0",
                 pin=1, daemon=True)
    kernel.spawn(client_proc, client, name="load-clients/c0", pin=0)
    kernel.run_all()
    return findings


# -- lostwake: the deliberately broken fixture ------------------------------

def _run_lostwake(topo_n: Optional[int]) -> List[str]:
    from repro.kernel.kernel import Kernel

    kernel = Kernel(num_cpus=2)
    producer_proc = kernel.spawn_process(_SERVER_PROCESS)
    consumer_proc = kernel.spawn_process("consumer")
    items: deque = deque()
    waiting: List = []
    total = 40

    def producer(t):
        for i in range(total):
            yield from t.compute(100.0)
            items.append(i)
            if waiting:
                kernel.wake(waiting.pop(0))

    def consumer(t):
        consumed = 0
        while consumed < total:
            while not items:
                # BROKEN BY DESIGN: no peer-death hook — if the
                # producer dies here, nothing ever wakes us
                waiting.append(t)
                yield t.block("lostwake-empty")
            items.popleft()
            consumed += 1

    kernel.spawn(producer_proc, producer, name=f"{_WORKER_PREFIX}0")
    kernel.spawn(consumer_proc, consumer, name="consumer/main")
    kernel.run_all()
    return []


# -- topostorm: supervised chain under adversarial kill schedules -----------

def _run_topostorm(topo_n: Optional[int]) -> List[str]:
    # the seed-11 shape: a supervised dIPC service chain whose root is
    # killed and pool-rebuilt mid-traffic. No goodput floor here: the
    # storm may legally fire enough kills that every request sheds —
    # the findings that matter are the supervisor's pre-rebuild
    # reclamation audit (returned here) and the session's A1-A10 sweep
    from repro.recovery.conformance import run_cell_workload
    return run_cell_workload("dipc", "chain", topo_n,
                             goodput_floor=None)


# -- killpoint-<phase>-<primitive>-<pattern>: conformance cells -------------

_KILLPOINT_PREFIX = "killpoint-"


def _killpoint_scenario(target: str) -> Optional[Scenario]:
    """Build a conformance-cell scenario on the fly from its name.

    The workload is fully determined by the name (the kills arrive via
    the session's plan overrides), which is what lets a failing cell's
    bundle replay through the ordinary ``check --replay`` path.
    """
    if not target.startswith(_KILLPOINT_PREFIX):
        return None
    parts = target[len(_KILLPOINT_PREFIX):].split("-")
    if len(parts) != 3:
        return None
    phase, primitive, pattern = parts
    from repro import primitives
    from repro.recovery import conformance
    if (phase not in conformance.PHASES
            or pattern not in conformance.PATTERNS
            or primitive not in primitives.names()):
        return None

    def run(topo_n: Optional[int],
            _primitive: str = primitive,
            _pattern: str = pattern) -> List[str]:
        return conformance.run_cell_workload(_primitive, _pattern,
                                             topo_n)

    return Scenario(
        name=target, run=run,
        processes=(_SERVER_PROCESS,),
        thread_prefixes=(_WORKER_PREFIX,),
        horizon_ns=0.7 * units.MS,
        default_n=conformance.pattern_default_n(pattern))


_SCENARIOS: Dict[str, Scenario] = {}


def _register(scenario: Scenario) -> None:
    _SCENARIOS[scenario.name] = scenario


_register(Scenario(
    name="chain4", run=_run_chain,
    processes=_chain_processes(4),
    thread_prefixes=(_WORKER_PREFIX,),
    horizon_ns=0.7 * units.MS, default_n=4))
_register(Scenario(
    name="l4race", run=_run_l4race,
    processes=(_SERVER_PROCESS,),
    thread_prefixes=(_WORKER_PREFIX,),
    horizon_ns=12_000.0))
_register(Scenario(
    name="lostwake", run=_run_lostwake,
    processes=(_SERVER_PROCESS,),
    thread_prefixes=(_WORKER_PREFIX,),
    horizon_ns=4_500.0, min_rules=1, max_rules=3))
_register(Scenario(
    name="topostorm", run=_run_topostorm,
    processes=_chain_processes(4),
    thread_prefixes=(_WORKER_PREFIX,),
    horizon_ns=0.7 * units.MS, default_n=4,
    min_rules=2, max_rules=4))


def is_scenario(target: str) -> bool:
    return (target in _SCENARIOS
            or _killpoint_scenario(target) is not None)


def get(target: str) -> Scenario:
    if target in _SCENARIOS:
        return _SCENARIOS[target]
    scenario = _killpoint_scenario(target)
    if scenario is not None:
        return scenario
    raise KeyError(f"unknown scenario {target!r} (choose from "
                   f"{', '.join(sorted(_SCENARIOS))} or "
                   f"killpoint-<phase>-<primitive>-<pattern>)")


def names() -> List[str]:
    return sorted(_SCENARIOS)
