"""Chaos storms: paper-style workloads run under seeded fault plans.

Each storm boots a fresh 4-CPU kernel and runs, concurrently:

* a **dIPC chain** (fig3/fig5-style): two web client threads calling a
  ``query`` entry in *database* which nests a ``fetch`` call into
  *storage* — multi-frame KCSes, some calls timeout-protected (§5.4),
  the database sometimes dawdling long enough to actually expire them;
* a **pipe** producer/consumer pair streaming framed messages (some
  larger than the pipe buffer);
* an **RPC** client/server pair over UNIX sockets, the client opted into
  bounded retransmit with exponential backoff;
* an **L4** client/server pair pinned to one CPU (the Handoff fast path).

A :class:`FaultPlan` sampled from the storm's derived seed
(``seed * 100003 + storm``) then kills processes, crashes threads,
revokes grants and drops/delays datagrams while all of that is in
flight. After the engine drains, surviving daemons are reaped and the
:class:`InvariantAuditor` sweeps the carcass.

Determinism contract: everything — workload parameters, plan, injection
timing, log text — derives from the seed and the deterministic event
order. ``run_chaos(verify=True)`` re-runs the whole storm set and
byte-compares the injection logs to prove it.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.api import DipcManager
from repro.core.objects import EntryDescriptor, Signature
from repro.core.policies import IsolationPolicy
from repro.core.proxy import CalleeTerminated, _KCSUnwind
from repro.core.timeouts import call_with_timeout
from repro.errors import (CallTimeout, DeadProcessError, DipcError,
                          KernelError, ProtectionFault, RemoteFault)
from repro.fault.auditor import InvariantAuditor
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan, render_log
from repro.ipc.l4 import L4Endpoint
from repro.ipc.pipe import Pipe
from repro.ipc.rpc import RpcClient, RpcServer
from repro.ipc.unixsocket import SocketNamespace
from repro.kernel import Kernel

#: the fault classes a chaos workload treats as survivable: everything
#: the kill/crash machinery is *supposed* to deliver. Anything else
#: crashing a thread (TypeError, SimulationError, a KCS imbalance...)
#: is an A8 invariant violation.
ALLOWED_CRASHES = (CalleeTerminated, _KCSUnwind, ProtectionFault,
                   RemoteFault, CallTimeout, KernelError,
                   DeadProcessError)

#: processes the plan may kill (all of them — storms play rough)
PROCESS_NAMES = ("web", "database", "storage", "pipeprod", "pipecons",
                 "rpcsrv", "rpccli", "l4srv", "l4cli")

#: thread-name prefixes crash injection may target. The L4 pair is
#: excluded: its Handoff fast path transfers the reply as the block
#: value, so a foreign exception there models nothing a real fault
#: isolates to one thread.
CRASHABLE_PREFIXES = ("web/", "pipeprod/", "pipecons/", "rpccli/")


@dataclass
class StormResult:
    storm: int
    records: list
    violations: List[str]
    stats: Dict[str, int]
    #: set instead of ``records`` when the storm came back as a point
    #: result (injection records are not JSON; only their rendered log
    #: and count cross the point boundary)
    n_records: Optional[int] = None

    @property
    def injection_count(self) -> int:
        return len(self.records) if self.n_records is None \
            else self.n_records


@dataclass
class ChaosReport:
    seed: int
    storms: int
    results: List[StormResult] = field(default_factory=list)
    log_text: str = ""
    #: True/False after the built-in same-seed re-run; None if skipped
    verified: Optional[bool] = None

    @property
    def total_injections(self) -> int:
        return sum(r.injection_count for r in self.results)

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    @property
    def ok(self) -> bool:
        return self.total_violations == 0 and self.verified is not False


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------

class _Workload:
    """Everything one storm's workload exposes to the injector."""

    def __init__(self):
        self.channels: Dict[str, object] = {}
        self.rpc_client = None


def _build_workload(kernel, manager, rng: random.Random, *,
                    quick: bool, stats) -> _Workload:
    wl = _Workload()
    n_requests = 8 if quick else 30
    n_msgs = 6 if quick else 14
    n_rpc = 6 if quick else 14
    n_l4 = 8 if quick else 18

    # -- dIPC chain: web -> database -> storage ----------------------------
    web = kernel.spawn_process("web", dipc=True)
    database = kernel.spawn_process("database", dipc=True)
    storage = kernel.spawn_process("storage", dipc=True)

    def fetch(t, key):
        yield from t.compute(30)
        return ("blob", key)

    storage_handle = manager.entry_register(
        storage, manager.dom_default(storage),
        [EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                         policy=IsolationPolicy(), func=fetch,
                         name="fetch")])
    fetch_request = [EntryDescriptor(
        signature=Signature(in_regs=1, out_regs=1),
        policy=IsolationPolicy(), name="fetch")]
    fetch_proxy_handle, _ = manager.entry_request(database, storage_handle,
                                                  fetch_request)
    manager.grant_create(manager.dom_default(database), fetch_proxy_handle)
    fetch_addr = fetch_request[0].address

    # per-call dawdle, pre-sampled so the draw order is injection-proof;
    # the 40us entries overrun the 15us call timeout and expire it
    db_delays = [rng.choice((0, 0, 0, 2_000, 40_000))
                 for _ in range(n_requests * 2)]
    call_counter = [0]

    def query(t, key):
        yield from t.compute(40)
        delay = db_delays[call_counter[0] % len(db_delays)]
        call_counter[0] += 1
        if delay:
            yield from t.sleep(delay)
        row = yield from manager.call(t, fetch_addr, key)
        return ("row", key, row)

    query_handle = manager.entry_register(
        database, manager.dom_default(database),
        [EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                         policy=IsolationPolicy.high(), func=query,
                         name="query")])
    query_request = [EntryDescriptor(
        signature=Signature(in_regs=1, out_regs=1),
        policy=IsolationPolicy(), name="query")]
    query_proxy_handle, query_proxies = manager.entry_request(
        web, query_handle, query_request)
    manager.grant_create(manager.dom_default(web), query_proxy_handle)
    query_addr = query_request[0].address
    query_proxy = query_proxies[0]

    use_timeout = [[rng.random() < 0.4 for _ in range(n_requests)]
                   for _client in range(2)]

    def make_web_client(idx):
        def body(thread):
            for i in range(n_requests):
                try:
                    if use_timeout[idx][i]:
                        yield from call_with_timeout(
                            thread, query_proxy, (i,), timeout_ns=15_000.0)
                    else:
                        yield from manager.call(thread, query_addr, i)
                    stats["web_ok"] += 1
                except CallTimeout:
                    stats["web_timeout"] += 1  # survivable: keep going
                except (RemoteFault, ProtectionFault, DipcError,
                        KernelError):
                    stats["web_aborted"] += 1  # peer dead / grant revoked
                    return
                yield from thread.compute(25)
        return body

    kernel.spawn(web, make_web_client(0), name="web/c0")
    kernel.spawn(web, make_web_client(1), name="web/c1")

    # -- pipe pair ----------------------------------------------------------
    pipeprod = kernel.spawn_process("pipeprod")
    pipecons = kernel.spawn_process("pipecons")
    pipe = Pipe(kernel)
    pipe.bind_endpoints(writer=pipeprod, reader=pipecons)
    msg_sizes = [rng.choice((512, 4096, 96 * 1024)) for _ in range(n_msgs)]

    def producer(thread):
        for i, size in enumerate(msg_sizes):
            try:
                yield from pipe.write(thread, size, payload=("m", i))
            except KernelError:
                stats["pipe_epipe"] += 1
                return
            stats["pipe_sent"] += 1
        pipe.close()

    def consumer(thread):
        while True:
            try:
                payload = yield from pipe.read(thread)
            except KernelError:
                stats["pipe_reset"] += 1
                return
            if payload is None:
                return
            stats["pipe_got"] += 1

    kernel.spawn(pipeprod, producer, name="pipeprod/w")
    kernel.spawn(pipecons, consumer, name="pipecons/r")

    # -- RPC pair -----------------------------------------------------------
    rpcsrv = kernel.spawn_process("rpcsrv")
    rpccli = kernel.spawn_process("rpccli")
    namespace = SocketNamespace()
    server = RpcServer(kernel, rpcsrv, namespace, "/chaos/rpc")

    def work(t, payload):
        yield from t.compute(300)
        return 64, ("ok", payload)

    server.register("work", work)
    kernel.spawn(rpcsrv, server.serve_loop, name="rpcsrv/svc",
                 daemon=True)
    client = RpcClient(kernel, rpccli, namespace, "/chaos/rpc",
                       retries=2, reply_timeout_ns=100_000.0)

    def rpc_body(thread):
        for i in range(n_rpc):
            try:
                yield from client.call(thread, "work", 256, args=i)
            except KernelError:
                stats["rpc_failed"] += 1
                return
            stats["rpc_ok"] += 1
        try:
            yield from client.shutdown_server(thread)
        except KernelError:
            pass

    kernel.spawn(rpccli, rpc_body, name="rpccli/c")
    wl.channels["rpc.server"] = server.sock
    wl.channels["rpc.client"] = client.sock
    wl.rpc_client = client

    # -- L4 pair (same-CPU Handoff fast path) -------------------------------
    l4srv = kernel.spawn_process("l4srv")
    l4cli = kernel.spawn_process("l4cli")
    endpoint = L4Endpoint(kernel)
    endpoint.bind_owner(l4srv)

    def l4_server(thread):
        try:
            caller, msg = yield from endpoint.wait(thread)
            while msg != "stop":
                caller, msg = yield from endpoint.reply_and_wait(
                    thread, caller, ("ack", msg))
            yield from endpoint.reply(thread, caller, "bye")
        except KernelError:
            return

    def l4_client(thread):
        for i in range(n_l4):
            try:
                yield from endpoint.call(thread, i)
            except KernelError:
                stats["l4_hangup"] += 1
                return
            stats["l4_ok"] += 1
            yield from thread.compute(50)
        try:
            yield from endpoint.call(thread, "stop")
        except KernelError:
            pass

    kernel.spawn(l4srv, l4_server, name="l4srv/s", pin=3, daemon=True)
    kernel.spawn(l4cli, l4_client, name="l4cli/c", pin=3)
    return wl


# ---------------------------------------------------------------------------
# Storm driver
# ---------------------------------------------------------------------------

def derived_seed(seed: int, storm: int) -> int:
    """Per-storm RNG seed; 100003 is prime so storms never collide for
    any reasonable seed range."""
    return seed * 100003 + storm


def run_storm(seed: int, storm: int, *, quick: bool = False) -> StormResult:
    """Boot a kernel, run the workload under one sampled fault plan,
    drain, reap, audit."""
    rng = random.Random(derived_seed(seed, storm))
    kernel = Kernel(num_cpus=4)
    manager = DipcManager(kernel)
    stats = defaultdict(int)
    workload = _build_workload(kernel, manager, rng, quick=quick,
                               stats=stats)
    horizon_ns = 120_000.0 if quick else 350_000.0
    plan = FaultPlan.storm(
        rng, processes=PROCESS_NAMES, thread_prefixes=CRASHABLE_PREFIXES,
        channels=list(workload.channels), horizon_ns=horizon_ns)
    injector = FaultInjector(kernel, plan, storm=storm)
    for name, sock in workload.channels.items():
        injector.register_channel(name, sock)
    injector.arm()
    kernel.run_all()
    # teardown: reap surviving daemons (blocked-forever service loops) so
    # the auditor can hold the dead-process invariants over *everything*
    for process in list(kernel.processes):
        kernel.kill_process(process)
    kernel.run_all()
    stats["retransmits"] += workload.rpc_client.retransmits
    auditor = InvariantAuditor(kernel, allowed_crashes=ALLOWED_CRASHES)
    return StormResult(storm=storm, records=injector.records,
                       violations=auditor.audit(),
                       stats=dict(sorted(stats.items())))


def _log_header(seed: int, storms: int, quick: bool) -> str:
    return f"# chaos seed={seed} storms={storms} quick={int(quick)}\n"


# -- parallel-runner decomposition (one point per storm) --------------------
# Storms are never cached: their whole purpose is to *prove* determinism
# by recomputation, and a cached replay would be circular.

def points(*, seed: int, storms: int, quick: bool = False) -> list:
    from repro.runner.points import PointSpec
    return [PointSpec("chaos", __name__,
                      {"seed": seed, "storm": storm, "quick": quick},
                      cacheable=False)
            for storm in range(storms)]


def compute_point(*, seed: int, storm: int, quick: bool) -> dict:
    result = run_storm(seed, storm, quick=quick)
    return {"storm": result.storm, "log": render_log(result.records),
            "n_records": len(result.records),
            "violations": list(result.violations),
            "stats": result.stats}


def run_chaos(seed: int, storms: int, *, quick: bool = False,
              verify: bool = True, jobs: int = 0) -> ChaosReport:
    """Run ``storms`` storms; with ``verify`` the whole set is run twice
    and the injection logs byte-compared (same seed => same log).

    Storms are :func:`points` computed by the point runner: in this
    process for ``jobs <= 1`` (where ``--trace``/``--chaos`` sessions
    see their kernels), on a worker pool otherwise. The log is merged
    in storm order either way, so it is byte-identical for any ``jobs``.
    """
    from repro.runner.pool import run_points

    def one_pass() -> ChaosReport:
        specs = points(seed=seed, storms=storms, quick=quick)
        results, _stats = run_points(specs, jobs=jobs)
        report = ChaosReport(seed=seed, storms=storms)
        parts = [_log_header(seed, storms, quick)]
        for point in results:
            report.results.append(StormResult(
                storm=point["storm"], records=[],
                violations=point["violations"], stats=point["stats"],
                n_records=point["n_records"]))
            parts.append(point["log"])
        report.log_text = "".join(parts)
        return report

    report = one_pass()
    if verify:
        report.verified = one_pass().log_text == report.log_text
    return report


def render(report: ChaosReport) -> str:
    """Human-readable storm summary (stdout; the log file is separate)."""
    lines = [f"chaos: seed={report.seed} storms={report.storms}"]
    for result in report.results:
        digest = " ".join(f"{k}={v}" for k, v in result.stats.items())
        lines.append(f"  storm {result.storm:03d}: "
                     f"{result.injection_count} injection(s), "
                     f"{len(result.violations)} violation(s)  [{digest}]")
        for violation in result.violations:
            lines.append(f"    VIOLATION: {violation}")
    lines.append(f"total: {report.total_injections} injections, "
                 f"{report.total_violations} violations")
    if report.verified is not None:
        lines.append("determinism: "
                     + ("byte-identical injection logs across re-run"
                        if report.verified else
                        "FAILED - logs differ between identical runs"))
    lines.append("auditor: all invariants held" if report.ok
                 else "auditor: FAILURES (see above)")
    return "\n".join(lines)
