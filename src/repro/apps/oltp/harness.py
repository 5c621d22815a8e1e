"""The multi-tier OLTP web server of §7.4, in its three configurations:

* **linux** — Apache, PHP (FastCGI) and MariaDB as separate processes
  communicating over UNIX sockets (the tuned baseline);
* **dipc** — the three components as dIPC-enabled processes with
  asymmetric isolation policies ("only PHP trusts all other components");
  a request runs *in place* on the Apache worker thread, crossing
  processes through proxies — no service threads;
* **ideal** — the unsafe upper bound: everything in one process, plain
  function calls (PHP as an Apache plugin, libmariadbd embedded).

The harness runs a closed-loop client population of ``concurrency``
Apache workers for a warm-up plus a measurement window and reports
throughput (ops/min, as in Figure 8), mean operation latency and the
machine-wide user/kernel/idle breakdown (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import units
from repro.apps.oltp.storage import IN_MEMORY, ON_DISK, StorageEngine
from repro.apps.oltp.workload import (STANDARD_MIX, Transaction,
                                      WorkloadGenerator)
from repro.core.api import DipcManager
from repro.core.objects import EntryDescriptor, Signature
from repro.core.policies import IsolationPolicy
from repro.ipc.unixsocket import SocketNamespace
from repro.kernel import Kernel
from repro.sim.stats import Block, Breakdown, RunningStats
from repro.topo.generate import sequential_chain
from repro.topo.spec import ROOT

LINUX = "linux"
DIPC = "dipc"
IDEAL = "ideal"

CONFIGS = (LINUX, DIPC, IDEAL)

#: the 3-tier chain of §7.4 declared once as a repro.topo spec
#: (apache -> php -> mariadb). The builders below derive the shared
#: *structure* from it — process spawn order, per-edge socket wiring,
#: dIPC entry/proxy registration order — while the tier bodies keep
#: the workload's idiosyncratic CPU/FastCGI placement.
CHAIN = sequential_chain(("apache", "php", "mariadb"))

#: linux config: process name per service (PHP runs under its FastCGI
#: process manager)
_LINUX_PROC = {"php": "php-fpm"}

#: linux config: well-known inbound socket path per callee service
_SOCK_ALIAS = {"php": "php", "mariadb": "db"}


@dataclass
class OltpParams:
    """Tunables of the macro-benchmark."""

    config: str = LINUX
    storage: str = IN_MEMORY
    concurrency: int = 16
    num_cpus: int = 4
    #: closed-loop client network/think time per operation
    client_delay_ns: float = 250.0 * units.US
    #: FastCGI/protocol user-level encode or decode, per message side
    fcgi_user_ns: float = 350.0
    warmup_ns: float = 60.0 * units.MS
    window_ns: float = 250.0 * units.MS
    seed: int = 42
    mix: List[Transaction] = field(default_factory=lambda: STANDARD_MIX)


@dataclass
class OltpResult:
    config: str
    storage: str
    concurrency: int
    operations: int
    throughput_ops_min: float
    mean_latency_ns: float
    breakdown: Breakdown
    idle_fraction: float
    kernel_fraction: float
    user_fraction: float

    def __repr__(self) -> str:
        return (f"<oltp {self.config}/{self.storage} c={self.concurrency}: "
                f"{self.throughput_ops_min:.0f} ops/min, "
                f"{self.mean_latency_ns / units.MS:.2f}ms, "
                f"idle={self.idle_fraction:.0%}>")


class _Run:
    """Mutable state shared by the worker threads of one run."""

    def __init__(self, params: OltpParams):
        self.params = params
        self.kernel = Kernel(num_cpus=params.num_cpus)
        self.workload = WorkloadGenerator(params.mix, seed=params.seed)
        self.storage: Optional[StorageEngine] = None
        self.measuring = False
        self.operations = 0
        self.latency = RunningStats()

    def record(self, latency_ns: float) -> None:
        if self.measuring:
            self.operations += 1
            self.latency.add(latency_ns)


def _php_chunks(txn: Transaction) -> float:
    """PHP CPU is spent in slices between its database calls."""
    return txn.php_cpu_ns / (len(txn.queries) + 1)


def _db_work(run: _Run, t, query):
    """The database side of one query: CPU + storage."""
    yield from t.compute(query.db_cpu_ns)
    yield from run.storage.access(t, miss=run.workload.disk_miss(query))


# ---------------------------------------------------------------------------
# Linux configuration
# ---------------------------------------------------------------------------

def _build_linux(run: _Run):
    kernel = run.kernel
    params = run.params
    ns = SocketNamespace()
    procs = {}
    for node_id in CHAIN.topological_order():
        name = CHAIN.nodes[node_id].name
        procs[node_id] = kernel.spawn_process(
            _LINUX_PROC.get(name, name))
    apache, php, mariadb = (procs[node_id]
                            for node_id in CHAIN.topological_order())
    run.storage = StorageEngine(kernel, params.storage)
    big = 64 * units.MB
    socks = {}
    for edge in CHAIN.edges:
        sock = ns.socket(kernel, bufsize=big)
        sock.bind(f"/oltp/{_SOCK_ALIAS[CHAIN.nodes[edge.dst].name]}")
        socks[(edge.src, edge.dst)] = sock
    php_sock = socks[(0, 1)]
    db_sock = socks[(1, 2)]
    fcgi = params.fcgi_user_ns

    def db_worker(t):
        while True:
            request, _ = yield from db_sock.recvfrom(t)
            yield from t.compute(fcgi)
            yield from _db_work(run, t, request["query"])
            yield from t.compute(fcgi)
            yield from db_sock.sendto(t, request["reply_to"],
                                      request["query"].result_bytes,
                                      payload={"rows": "..."})

    def php_worker(t, index):
        reply = ns.socket(kernel, bufsize=big)
        reply.bind(f"/oltp/php/worker{index}")
        while True:
            request, _ = yield from php_sock.recvfrom(t)
            txn = request["txn"]
            yield from t.compute(fcgi)
            chunk = _php_chunks(txn)
            yield from t.compute(chunk)
            for query in txn.queries:
                yield from t.compute(fcgi)
                yield from reply.sendto(t, db_sock.path, 256, payload={
                    "query": query, "reply_to": reply.path})
                yield from reply.recvfrom(t)
                yield from t.compute(chunk)
            yield from t.compute(fcgi)
            yield from reply.sendto(t, request["reply_to"],
                                    txn.response_bytes,
                                    payload={"page": "..."})

    def apache_worker(t, index):
        reply = ns.socket(kernel, bufsize=big)
        reply.bind(f"/oltp/apache/worker{index}")
        while True:
            yield from t.sleep(params.client_delay_ns)
            start = t.now()
            txn = run.workload.next_transaction()
            yield from t.compute(txn.apache_cpu_ns * 0.6)
            yield from t.compute(fcgi)
            yield from reply.sendto(t, php_sock.path, txn.request_bytes,
                                    payload={"txn": txn,
                                             "reply_to": reply.path})
            yield from reply.recvfrom(t)
            yield from t.compute(fcgi)
            yield from t.compute(txn.apache_cpu_ns * 0.4)
            run.record(t.now() - start)

    for i in range(params.concurrency):
        kernel.spawn(mariadb, db_worker, name=f"db{i}")
        kernel.spawn(php, lambda t, i=i: php_worker(t, i), name=f"php{i}")
        kernel.spawn(apache, lambda t, i=i: apache_worker(t, i),
                     name=f"ap{i}")


# ---------------------------------------------------------------------------
# dIPC configuration
# ---------------------------------------------------------------------------

def _build_dipc(run: _Run):
    kernel = run.kernel
    params = run.params
    manager = DipcManager(kernel)
    order = CHAIN.topological_order()
    procs = {node_id: kernel.spawn_process(CHAIN.nodes[node_id].name,
                                           dipc=True)
             for node_id in order}
    apache_id, php_id, db_id = order
    run.storage = StorageEngine(kernel, params.storage)

    # --- the database exports 'query'; PHP exports 'handle_request'.
    # A request runs in place on the Apache worker thread, crossing
    # tiers through proxies whose addresses land in ``addresses`` ---
    def db_query(t, query):
        result = yield from _db_work(run, t, query)
        return result

    def php_handle(t, txn):
        chunk = _php_chunks(txn)
        yield from t.compute(chunk)
        for query in txn.queries:
            yield from manager.call(t, addresses[(php_id, db_id)],
                                    query)
            yield from t.compute(chunk)
        return {"page": "..."}

    exports = {db_id: (db_query, "query"),
               php_id: (php_handle, "handle_request")}
    #: asymmetric trust ("only PHP trusts all other components"): the
    #: database protects itself from PHP; Apache asks for integrity on
    #: its registers/stack since it does not trust PHP; PHP requests
    #: nothing in either role
    server_policy = {
        db_id: IsolationPolicy(stack_confidentiality=True,
                               dcs_integrity=True),
        php_id: IsolationPolicy(),
    }
    request_policy = {
        php_id: IsolationPolicy(),
        apache_id: IsolationPolicy(reg_integrity=True,
                                   stack_integrity=True,
                                   dcs_integrity=True),
    }

    # callee-first wiring (reversed topological order): register each
    # tier's entry, then hand a proxy to every caller on an inbound
    # edge of the chain spec
    addresses = {}
    for dst in reversed(order):
        if dst == ROOT:
            continue
        func, entry_name = exports[dst]
        entry = manager.entry_register(
            procs[dst], manager.dom_default(procs[dst]),
            [EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                             policy=server_policy[dst],
                             func=func, name=entry_name)])
        for src in CHAIN.parents(dst):
            request = [EntryDescriptor(
                signature=Signature(in_regs=1, out_regs=1),
                policy=request_policy[src], name=entry_name)]
            proxy_handle, _ = manager.entry_request(procs[src], entry,
                                                    request)
            manager.grant_create(manager.dom_default(procs[src]),
                                 proxy_handle)
            addresses[(src, dst)] = request[0].address

    def apache_worker(t):
        while True:
            yield from t.sleep(params.client_delay_ns)
            start = t.now()
            txn = run.workload.next_transaction()
            yield from t.compute(txn.apache_cpu_ns * 0.6)
            yield from manager.call(t, addresses[(apache_id, php_id)],
                                    txn)
            yield from t.compute(txn.apache_cpu_ns * 0.4)
            run.record(t.now() - start)

    for i in range(params.concurrency):
        kernel.spawn(procs[apache_id], apache_worker, name=f"ap{i}")


# ---------------------------------------------------------------------------
# Ideal (unsafe) configuration
# ---------------------------------------------------------------------------

def _build_ideal(run: _Run):
    kernel = run.kernel
    params = run.params
    server = kernel.spawn_process("monolith")
    run.storage = StorageEngine(kernel, params.storage)
    call = kernel.costs.FUNC_CALL

    def worker(t):
        while True:
            yield from t.sleep(params.client_delay_ns)
            start = t.now()
            txn = run.workload.next_transaction()
            yield from t.compute(txn.apache_cpu_ns * 0.6)
            yield from t.compute(call)               # apache -> mod_php
            chunk = _php_chunks(txn)
            yield from t.compute(chunk)
            for query in txn.queries:
                yield from t.compute(call)           # php -> libmariadbd
                yield from _db_work(run, t, query)
                yield from t.compute(chunk)
            yield from t.compute(txn.apache_cpu_ns * 0.4)
            run.record(t.now() - start)

    for i in range(params.concurrency):
        kernel.spawn(server, worker, name=f"w{i}")


_BUILDERS = {LINUX: _build_linux, DIPC: _build_dipc, IDEAL: _build_ideal}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_oltp(params: OltpParams) -> OltpResult:
    """Build and run one configuration; return its measurements."""
    if params.config not in _BUILDERS:
        raise ValueError(f"unknown config {params.config}")
    run = _Run(params)
    _BUILDERS[params.config](run)
    engine = run.kernel.engine
    machine = run.kernel.machine

    def start_measuring():
        machine.flush_idle()
        machine.reset_accounts()
        run.measuring = True

    engine.post(params.warmup_ns, start_measuring)
    run.kernel.run(until_ns=params.warmup_ns + params.window_ns)
    run.kernel.check()
    machine.flush_idle()
    breakdown = machine.total_account()
    modes = breakdown.by_mode()
    total = sum(modes.values()) or 1.0
    window_min = params.window_ns / units.MINUTE
    return OltpResult(
        config=params.config, storage=params.storage,
        concurrency=params.concurrency, operations=run.operations,
        throughput_ops_min=run.operations / window_min,
        mean_latency_ns=run.latency.mean,
        breakdown=breakdown,
        idle_fraction=modes["idle"] / total,
        kernel_fraction=modes["kernel"] / total,
        user_fraction=modes["user"] / total)


#: measurement windows long enough for several multiples of the highest
#: closed-loop latency at each concurrency (§7.1 runs 3 simulated minutes;
#: we scale down — throughput is a rate, longer only shrinks noise)
DEFAULT_WINDOWS = {4: 150, 16: 150, 64: 250, 256: 600, 512: 1100}
DEFAULT_WARMUPS = {4: 60, 16: 60, 64: 100, 256: 250, 512: 400}


def params_for(config: str, storage: str, concurrency: int,
               *, scale: float = 1.0) -> OltpParams:
    """Standard Figure 8 parameters with concurrency-scaled windows.

    ``scale`` shrinks the measurement window (for quick tests).
    """
    window = DEFAULT_WINDOWS.get(concurrency, 300) * units.MS * scale
    warmup = DEFAULT_WARMUPS.get(concurrency, 100) * units.MS * scale
    return OltpParams(config=config, storage=storage,
                      concurrency=concurrency,
                      window_ns=window, warmup_ns=max(warmup, 40 * units.MS))


def speedup_table(storage: str, concurrencies=(4, 16, 64, 256, 512), *,
                  scale: float = 1.0) -> Dict[str, Dict[int, float]]:
    """Figure 8: throughput of every config at every concurrency."""
    table: Dict[str, Dict[int, float]] = {c: {} for c in CONFIGS}
    for concurrency in concurrencies:
        for config in CONFIGS:
            result = run_oltp(params_for(config, storage, concurrency,
                                         scale=scale))
            table[config][concurrency] = result.throughput_ops_min
    return table
