"""Micro-benchmark drivers for Figures 2, 5 and 6 (§7.2's methodology).

Each ``bench_*`` function builds a fresh simulated system, runs a warm-up
phase, resets the accounts, measures ``iters`` synchronous round trips of
the primitive, and returns a :class:`BenchResult` with the mean latency,
per-iteration standard deviation and the Figure-2 block breakdown.

The ping-pong structure mirrors the paper's: the caller writes an
argument of ``size`` bytes, transfers control, and the callee reads it
and replies with a one-byte acknowledgement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.api import DipcManager
from repro.core.objects import EntryDescriptor, Signature
from repro.core.policies import IsolationPolicy
from repro.ipc.l4 import L4Endpoint
from repro.ipc.pipe import Pipe
from repro.ipc.rpc import RpcClient, RpcServer
from repro.ipc.semaphore import Semaphore
from repro.ipc.shm import SharedBuffer
from repro.ipc.unixsocket import SocketNamespace
from repro.kernel import Futex, Kernel
from repro.sim.stats import Block, Breakdown, RunningStats
from repro.trace.histogram import LatencyHistogram

DEFAULT_WARMUP = 5
DEFAULT_ITERS = 60

#: tiny user-side loop/stub work bracketing each round trip
STUB_NS = 2.0


@dataclass
class BenchResult:
    label: str
    mean_ns: float
    stddev_ns: float
    breakdown: Breakdown
    iterations: int
    #: per-iteration latency distribution (trace.histogram)
    hist: Optional[LatencyHistogram] = field(default=None, repr=False)

    @property
    def relative_stddev(self) -> float:
        return self.stddev_ns / self.mean_ns if self.mean_ns else 0.0

    @property
    def p50_ns(self) -> float:
        return self.hist.p50 if self.hist is not None else self.mean_ns

    @property
    def p95_ns(self) -> float:
        return self.hist.p95 if self.hist is not None else self.mean_ns

    @property
    def p99_ns(self) -> float:
        return self.hist.p99 if self.hist is not None else self.mean_ns

    def as_point(self) -> dict:
        """JSON-serializable form for the parallel runner / result cache.

        Floats survive a JSON round trip bit-for-bit, so figures
        assembled from cached points render byte-identically.
        """
        return {
            "label": self.label,
            "mean_ns": self.mean_ns,
            "stddev_ns": self.stddev_ns,
            "iterations": self.iterations,
            "p50_ns": self.p50_ns,
            "p95_ns": self.p95_ns,
            "p99_ns": self.p99_ns,
            "blocks": {block.name: ns
                       for block, ns in self.breakdown.ns.items()},
        }

    def __repr__(self) -> str:
        return f"<{self.label}: {self.mean_ns:.1f}ns ±{self.stddev_ns:.2f}>"


class _Harness:
    """Wraps the warm-up / reset / measure protocol on the caller thread."""

    def __init__(self, kernel: Kernel, label: str, *,
                 warmup: int = DEFAULT_WARMUP, iters: int = DEFAULT_ITERS):
        self.kernel = kernel
        self.label = label
        self.warmup = warmup
        self.iters = iters
        self.stats = RunningStats()
        self.hist = LatencyHistogram()
        self.total_span = 0.0
        # inside a TraceSession the kernel carries a generic runN label;
        # name the traced run after the benchmark instead
        if kernel.tracer.enabled:
            kernel.tracer.label = label

    def caller_body(self, iteration: Callable):
        """Build the caller thread body around ``iteration(t)``."""
        harness = self

        def body(t):
            tracer = harness.kernel.tracer
            for _ in range(harness.warmup):
                yield from iteration(t)
            harness.kernel.machine.flush_idle()
            harness.kernel.machine.reset_accounts()
            span_start = t.now()
            for index in range(harness.iters):
                iter_span = tracer.begin(
                    f"{harness.label}#{index}", "bench", thread=t) \
                    if tracer.enabled else None
                start = t.now()
                yield from iteration(t)
                latency = t.now() - start
                harness.stats.add(latency)
                harness.hist.add(latency)
                if iter_span is not None:
                    tracer.end(iter_span)
            harness.total_span = t.now() - span_start

        return body

    def result(self) -> BenchResult:
        self.kernel.machine.flush_idle()
        merged = self.kernel.machine.total_account()
        per_iter = merged.scaled(1.0 / self.iters)
        # idle accumulated after the measurement window is not meaningful
        # for a synchronous round trip on pinned CPUs; clamp it to the
        # measured span so breakdowns stay interpretable
        busy = per_iter.total(include_idle=False)
        span = self.total_span / self.iters if self.iters else 0.0
        if span > 0:
            per_iter.ns[Block.IDLE] = max(0.0, min(
                per_iter.ns[Block.IDLE], span * 2 - busy))
        return BenchResult(self.label, self.stats.mean, self.stats.stddev,
                           per_iter, self.iters, hist=self.hist)


def _fresh_kernel(num_cpus: int = 2, costs=None) -> Kernel:
    if costs is not None:
        from repro.hw.machine import Machine
        kernel = Kernel(machine=Machine(num_cpus, costs=costs))
    else:
        kernel = Kernel(num_cpus=num_cpus)
    DipcManager(kernel)
    return kernel


def _pins(same_cpu: bool):
    return (0, 0) if same_cpu else (0, 1)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def bench_func(size: int = 1, *, iters: int = DEFAULT_ITERS,
               warmup: int = DEFAULT_WARMUP) -> BenchResult:
    """The baseline: a function call where the caller writes the argument
    and the callee reads it (under 2 ns for 1 byte)."""
    kernel = _fresh_kernel(1)
    costs = kernel.costs
    cache = kernel.machine.cache
    harness = _Harness(kernel, "func", warmup=warmup, iters=iters)

    def iteration(t):
        yield from t.compute(costs.FUNC_CALL)
        if size > 1:
            yield from t.compute(cache.touch_ns(size))  # caller writes
            yield from t.compute(cache.touch_ns(size))  # callee reads

    proc = kernel.spawn_process("bench")
    kernel.spawn(proc, harness.caller_body(iteration), pin=0)
    kernel.run()
    kernel.check()
    return harness.result()


def bench_syscall(*, iters: int = DEFAULT_ITERS,
                  warmup: int = DEFAULT_WARMUP) -> BenchResult:
    """An empty system call (~34 ns)."""
    kernel = _fresh_kernel(1)
    harness = _Harness(kernel, "syscall", warmup=warmup, iters=iters)

    def iteration(t):
        yield from kernel.syscall_nop(t)

    proc = kernel.spawn_process("bench")
    kernel.spawn(proc, harness.caller_body(iteration), pin=0)
    kernel.run()
    kernel.check()
    return harness.result()


# ---------------------------------------------------------------------------
# POSIX semaphores over shared memory
# ---------------------------------------------------------------------------

def bench_sem(*, same_cpu: bool = True, size: int = 1,
              iters: int = DEFAULT_ITERS,
              warmup: int = DEFAULT_WARMUP) -> BenchResult:
    kernel = _fresh_kernel(2)
    costs = kernel.costs
    label = f"sem_{'same' if same_cpu else 'cross'}_cpu"
    harness = _Harness(kernel, label, warmup=warmup, iters=iters)
    caller_pin, callee_pin = _pins(same_cpu)
    proc_a = kernel.spawn_process("sem-a")
    proc_b = kernel.spawn_process("sem-b")
    request = Semaphore(kernel)
    reply = Semaphore(kernel)
    buffer = SharedBuffer(kernel, capacity=max(size, 64))

    def iteration(t):
        yield from t.compute(STUB_NS + costs.TOUCH_ARG)  # stub + read B's ack
        yield from buffer.populate(t, size)
        yield from request.post(t)
        yield from reply.wait(t)

    def server(t):
        while True:
            yield from request.wait(t)
            yield from t.compute(STUB_NS + costs.TOUCH_ARG)  # stub + write ack
            yield from buffer.consume(t)
            yield from reply.post(t)

    kernel.spawn(proc_b, server, pin=callee_pin, name="sem-server",
                 daemon=True)
    kernel.spawn(proc_a, harness.caller_body(iteration), pin=caller_pin,
                 name="sem-caller")
    kernel.run()
    kernel.check()
    return harness.result()


# ---------------------------------------------------------------------------
# pipes
# ---------------------------------------------------------------------------

def bench_pipe(*, same_cpu: bool = True, size: int = 1,
               iters: int = DEFAULT_ITERS,
               warmup: int = DEFAULT_WARMUP) -> BenchResult:
    kernel = _fresh_kernel(2)
    label = f"pipe_{'same' if same_cpu else 'cross'}_cpu"
    harness = _Harness(kernel, label, warmup=warmup, iters=iters)
    caller_pin, callee_pin = _pins(same_cpu)
    proc_a = kernel.spawn_process("pipe-a")
    proc_b = kernel.spawn_process("pipe-b")
    request = Pipe(kernel)
    reply = Pipe(kernel)

    def iteration(t):
        yield from t.compute(STUB_NS + kernel.costs.TOUCH_ARG)
        yield from request.write(t, size)
        yield from reply.read(t)

    def server(t):
        while True:
            yield from request.read(t)
            yield from t.compute(STUB_NS + kernel.costs.TOUCH_ARG)
            yield from reply.write(t, 1)

    kernel.spawn(proc_b, server, pin=callee_pin, name="pipe-server",
                 daemon=True)
    kernel.spawn(proc_a, harness.caller_body(iteration), pin=caller_pin,
                 name="pipe-caller")
    kernel.run()
    kernel.check()
    return harness.result()


# ---------------------------------------------------------------------------
# local RPC (rpcgen over UNIX sockets)
# ---------------------------------------------------------------------------

def bench_rpc(*, same_cpu: bool = True, size: int = 1,
              iters: int = DEFAULT_ITERS,
              warmup: int = DEFAULT_WARMUP) -> BenchResult:
    kernel = _fresh_kernel(2)
    label = f"rpc_{'same' if same_cpu else 'cross'}_cpu"
    harness = _Harness(kernel, label, warmup=warmup, iters=iters)
    caller_pin, callee_pin = _pins(same_cpu)
    namespace = SocketNamespace()
    server_proc = kernel.spawn_process("rpc-server")
    client_proc = kernel.spawn_process("rpc-client")
    bufsize = max(4 * size, 208 * 1024)
    server = RpcServer(kernel, server_proc, namespace, "/bench/rpc",
                       bufsize=bufsize)

    def echo(t, args):
        yield from t.compute(kernel.costs.FUNC_CALL)
        return 1, "ack"

    server.register("echo", echo)
    client = RpcClient(kernel, client_proc, namespace, "/bench/rpc",
                       bufsize=bufsize)

    def iteration(t):
        yield from t.compute(STUB_NS)
        yield from client.call(t, "echo", size)

    def done(t):
        yield from client.shutdown_server(t)

    kernel.spawn(server_proc, server.serve_loop, pin=callee_pin,
                 name="rpc-svc", daemon=True)

    def body(t):
        yield from harness.caller_body(iteration)(t)
        yield from done(t)

    kernel.spawn(client_proc, body, pin=caller_pin, name="rpc-cli")
    kernel.run()
    kernel.check()
    return harness.result()


# ---------------------------------------------------------------------------
# L4-style synchronous IPC
# ---------------------------------------------------------------------------

def bench_l4(*, same_cpu: bool = True, iters: int = DEFAULT_ITERS,
             warmup: int = DEFAULT_WARMUP) -> BenchResult:
    kernel = _fresh_kernel(2)
    label = f"l4_{'same' if same_cpu else 'cross'}_cpu"
    harness = _Harness(kernel, label, warmup=warmup, iters=iters)
    caller_pin, callee_pin = _pins(same_cpu)
    client_proc = kernel.spawn_process("l4-client")
    server_proc = kernel.spawn_process("l4-server")
    endpoint = L4Endpoint(kernel)

    def server(t):
        caller, msg = yield from endpoint.wait(t)
        while msg != "stop":
            caller, msg = yield from endpoint.reply_and_wait(t, caller,
                                                             "ack")
        yield from endpoint.reply(t, caller, "bye")

    def iteration(t):
        yield from endpoint.call(t, "ping")

    def body(t):
        yield from harness.caller_body(iteration)(t)
        yield from endpoint.call(t, "stop")

    kernel.spawn(server_proc, server, pin=callee_pin, name="l4-srv",
                 daemon=True)
    kernel.spawn(client_proc, body, pin=caller_pin, name="l4-cli")
    kernel.run()
    kernel.check()
    return harness.result()


# ---------------------------------------------------------------------------
# dIPC
# ---------------------------------------------------------------------------

def _policy(name: str) -> IsolationPolicy:
    if name == "low":
        return IsolationPolicy.low()
    if name == "high":
        return IsolationPolicy.high()
    raise ValueError(f"unknown policy {name}")


def bench_dipc(*, policy: str = "low", cross_process: bool = False,
               size: int = 1, iters: int = DEFAULT_ITERS,
               warmup: int = DEFAULT_WARMUP, costs=None,
               callee_read_ns: Optional[float] = None,
               label: Optional[str] = None) -> BenchResult:
    """dIPC synchronous call: same-process domains or cross-process
    (Figure 5's dIPC and dIPC +proc bars; Low vs High policies).

    ``costs`` overrides the cost model (used by the ablation studies,
    e.g. zeroing TLS_SWITCH to model the optimized TLS mode of §6.1.2).
    ``callee_read_ns`` replaces the callee's inline argument read with
    a fixed charge (fig11 uses it to model the DMA-offloaded copy of
    the odipc variant); ``label`` overrides the result label.
    """
    kernel = _fresh_kernel(1, costs=costs)
    manager = kernel.dipc
    costs = kernel.costs
    cache = kernel.machine.cache
    if label is None:
        label = f"dipc_{'proc_' if cross_process else ''}{policy}"
    harness = _Harness(kernel, label, warmup=warmup, iters=iters)
    caller_proc = kernel.spawn_process("dipc-caller", dipc=True)
    if cross_process:
        callee_proc = kernel.spawn_process("dipc-callee", dipc=True)
        callee_dom = manager.dom_default(callee_proc)
    else:
        callee_proc = caller_proc
        callee_dom = manager.dom_create(caller_proc)

    def target(t, payload):
        if callee_read_ns is not None:
            yield from t.compute(callee_read_ns)
        elif size > 1:
            yield from t.compute(cache.touch_ns(size))  # callee reads by ref
        else:
            yield from t.compute(0.0)
        return "ack"

    iso = _policy(policy)
    descriptor = EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                                 policy=iso, func=target, name="target")
    handle = manager.entry_register(callee_proc, callee_dom, [descriptor])
    request = [EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                               policy=iso, name="target")]
    proxy_handle, _ = manager.entry_request(caller_proc, handle, request)
    manager.grant_create(manager.dom_default(caller_proc), proxy_handle)
    address = request[0].address

    def iteration(t):
        if size > 1:
            yield from t.compute(cache.touch_ns(size))         # caller writes
            # pass-by-reference: one capability instead of copies (§4.2)
            yield from t.compute(costs.CAP_CREATE + 2 * costs.CAP_MEM)
        yield from manager.call(t, address, "payload")

    kernel.spawn(caller_proc, harness.caller_body(iteration), pin=0,
                 name="dipc-cli")
    kernel.run()
    kernel.check()
    return harness.result()


def bench_dipc_user_rpc(*, size: int = 1, iters: int = DEFAULT_ITERS,
                        warmup: int = DEFAULT_WARMUP) -> BenchResult:
    """'dIPC - User RPC (≠CPU)': cross-CPU RPC semantics implemented at
    user level in one dIPC process — the server copies its arguments and
    thread synchronization is the only kernel involvement (§7.2)."""
    kernel = _fresh_kernel(2)
    costs = kernel.costs
    cache = kernel.machine.cache
    harness = _Harness(kernel, "dipc_user_rpc", warmup=warmup, iters=iters)
    proc = kernel.spawn_process("dipc-user-rpc", dipc=True)
    request = Futex(kernel)
    reply = Futex(kernel)

    def copy_ns() -> float:
        return cache.copy_ns(max(size, 1), startup=costs.MEMCPY_STARTUP)

    def server(t):
        while True:
            yield from request.wait(t)
            # the server process makes a copy of its arguments (§7.2)
            yield from t.compute(STUB_NS + copy_ns())
            yield from t.compute(costs.FUNC_CALL)
            yield from reply.wake(t)

    def iteration(t):
        yield from t.compute(STUB_NS + copy_ns())  # marshal into server buffer
        yield from request.wake(t)
        yield from reply.wait(t)

    kernel.spawn(proc, server, pin=1, name="urpc-server", daemon=True)
    kernel.spawn(proc, harness.caller_body(iteration), pin=0,
                 name="urpc-caller")
    kernel.run()
    kernel.check()
    return harness.result()


# ---------------------------------------------------------------------------
# suite helpers
# ---------------------------------------------------------------------------

#: label -> builder for every bar of Figure 5, one simulation point each
#: (``fig05_sync_calls`` and the ``microbench`` sweep below)
_FIG5_BENCHES = {
    "func": lambda iters: bench_func(iters=iters),
    "syscall": lambda iters: bench_syscall(iters=iters),
    "dipc_low": lambda iters: bench_dipc(policy="low", iters=iters),
    "dipc_high": lambda iters: bench_dipc(policy="high", iters=iters),
    "sem_same_cpu": lambda iters: bench_sem(same_cpu=True, iters=iters),
    "sem_cross_cpu": lambda iters: bench_sem(same_cpu=False, iters=iters),
    "pipe_same_cpu": lambda iters: bench_pipe(same_cpu=True, iters=iters),
    "pipe_cross_cpu": lambda iters: bench_pipe(same_cpu=False,
                                               iters=iters),
    "dipc_proc_low": lambda iters: bench_dipc(policy="low",
                                              cross_process=True,
                                              iters=iters),
    "dipc_proc_high": lambda iters: bench_dipc(policy="high",
                                               cross_process=True,
                                               iters=iters),
    "rpc_same_cpu": lambda iters: bench_rpc(same_cpu=True, iters=iters),
    "rpc_cross_cpu": lambda iters: bench_rpc(same_cpu=False, iters=iters),
    "dipc_user_rpc": lambda iters: bench_dipc_user_rpc(iters=iters),
    "l4_same_cpu": lambda iters: bench_l4(same_cpu=True, iters=iters),
}


def fig5_bench(label: str, *, iters: int = DEFAULT_ITERS) -> BenchResult:
    """One bar of Figure 5 by label (one simulation point)."""
    try:
        builder = _FIG5_BENCHES[label]
    except KeyError:
        raise ValueError(f"unknown fig5 bench {label!r}") from None
    return builder(iters)


# -- the raw microbenchmark sweep as a registered figure driver -------------
#
# Unlike fig5 this renders the measured distributions without the
# paper-target comparison — the tool you reach for when tuning the cost
# model rather than checking it.

def points(*, iters: int = DEFAULT_ITERS) -> list:
    from repro.runner.points import PointSpec
    return [PointSpec("microbench", __name__,
                      {"label": label, "iters": iters})
            for label in _FIG5_BENCHES]


def compute_point(*, label: str, iters: int) -> dict:
    return fig5_bench(label, iters=iters).as_point()


def assemble(specs, results) -> str:
    lines = [
        "Microbenchmarks: raw synchronous round trips [ns]",
        "",
        f"{'primitive':<16}{'mean':>10}{'stddev':>9}"
        f"{'p50':>10}{'p95':>10}{'p99':>10}",
        "-" * 65,
    ]
    for spec, result in zip(specs, results):
        lines.append(f"{spec.kwargs['label']:<16}"
                     f"{result['mean_ns']:>10.1f}"
                     f"{result['stddev_ns']:>9.2f}"
                     f"{result['p50_ns']:>10.1f}"
                     f"{result['p95_ns']:>10.1f}"
                     f"{result['p99_ns']:>10.1f}")
    return "\n".join(lines)


from repro.runner.registry import register_figure  # noqa: E402


@register_figure
class MicrobenchDriver:
    """The raw microbenchmark sweep as a first-class experiment."""

    name = "microbench"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        return {"iters": 10 if quick else DEFAULT_ITERS}
