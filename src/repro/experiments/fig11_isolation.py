"""Figure 11 (repo extension): per-call cost of every isolation primitive.

Figure 5 compares the paper's five mechanisms at one argument size;
this figure sweeps all *seven* registered primitives — the five
process-switching baselines plus the two new bracketing mechanisms —
across argument sizes, and renders a Figure-2-style block
decomposition next to each latency so the sweep explains *where* each
mechanism spends its time:

* **dpti** — tagged-page-table domain switching (PCID-tagged CR3
  swaps, no TLB flush): cheaper than any process switch because the
  scheduler never runs, dearer than dIPC because every call still
  crosses the kernel and copies its argument twice;
* **odipc** — dIPC whose bulk argument copy is submitted to a DMA
  offload engine above :data:`~repro.hw.costs.CostModel.
  OFFLOAD_THRESHOLD`; below the threshold it is byte-identical to
  dIPC, above it the copy column shrinks to the non-overlapped
  remainder of the DMA transfer.

Every (primitive, size) pair is one
:class:`~repro.runner.points.PointSpec`, so ``--jobs N``, the result
cache, ``--trace``, ``--chaos`` and ``--supervise`` come from the
runner for free.

``assemble`` checks three claims and prints PASS/FAIL for each: the
per-call ordering (every process-switch baseline > dpti > dIPC) holds
at every size; odIPC ≤ dIPC at and above the offload threshold (and
is identical below it); and the rendered block columns sum to the
reported busy totals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import primitives
from repro.hw.costs import CostModel
from repro.experiments.microbench import (
    DEFAULT_ITERS, DEFAULT_WARMUP, STUB_NS, _Harness, _fresh_kernel,
    bench_dipc, bench_pipe, bench_rpc)
from repro.ipc.dpti import DptiEndpoint, copy_gate_ns
from repro.ipc.l4 import L4Endpoint
from repro.ipc.unixsocket import SOCK_BUF_SIZE, SocketNamespace
from repro.sim.stats import Block

#: argument-size sweep, bytes; 16384 is the DMA offload threshold
SIZES = (64, 1024, 16384, 65536)
QUICK_SIZES = (64, 16384)

#: the Figure-2 decomposition columns (IDLE is clamped noise on the
#: benches' pinned CPUs and is excluded from the busy total)
_COLUMNS = (Block.USER, Block.SYSCALL, Block.TRAMPOLINE, Block.KERNEL,
            Block.SCHED, Block.PTSW)


# ---------------------------------------------------------------------------
# benches the microbench module does not already provide
# ---------------------------------------------------------------------------

def bench_socket(*, size: int = 1, iters: int = DEFAULT_ITERS,
                 warmup: int = DEFAULT_WARMUP):
    """Datagram ping-pong over two bound UNIX sockets (same CPU)."""
    kernel = _fresh_kernel(2)
    costs = kernel.costs
    harness = _Harness(kernel, "socket", warmup=warmup, iters=iters)
    namespace = SocketNamespace()
    server_proc = kernel.spawn_process("sock-server")
    client_proc = kernel.spawn_process("sock-client")
    bufsize = max(4 * size, SOCK_BUF_SIZE)
    request = namespace.socket(kernel, bufsize=bufsize)
    request.bind("/fig11/req")
    request.bind_owner(server_proc)
    reply = namespace.socket(kernel, bufsize=bufsize)
    reply.bind("/fig11/rep")
    reply.bind_owner(client_proc)

    def server(t):
        while True:
            yield from request.recvfrom(t)
            yield from t.compute(STUB_NS + costs.TOUCH_ARG)
            yield from request.sendto(t, "/fig11/rep", 1, payload="ack")

    def iteration(t):
        yield from t.compute(STUB_NS + costs.TOUCH_ARG)
        yield from reply.sendto(t, "/fig11/req", size, payload="ping")
        yield from reply.recvfrom(t)

    kernel.spawn(server_proc, server, pin=0, name="sock-srv", daemon=True)
    kernel.spawn(client_proc, harness.caller_body(iteration), pin=0,
                 name="sock-cli")
    kernel.run()
    kernel.check()
    return harness.result()


def bench_l4(*, size: int = 1, iters: int = DEFAULT_ITERS,
             warmup: int = DEFAULT_WARMUP):
    """L4-style direct-switch IPC with a long-IPC argument copy: the
    kernel copies ``size`` bytes on the request leg (and the one-byte
    ack back), and each side touches the argument once."""
    kernel = _fresh_kernel(2)
    costs = kernel.costs
    cache = kernel.machine.cache
    harness = _Harness(kernel, "l4", warmup=warmup, iters=iters)
    client_proc = kernel.spawn_process("l4-client")
    server_proc = kernel.spawn_process("l4-server")
    endpoint = L4Endpoint(kernel)
    request_copy = copy_gate_ns(costs, cache, size)
    reply_copy = copy_gate_ns(costs, cache, 1)

    def server(t):
        caller, msg = yield from endpoint.wait(t)
        while True:
            if size > 1:
                yield from t.compute(cache.touch_ns(size))     # callee reads
            caller, msg = yield from endpoint.reply_and_wait(t, caller,
                                                             "ack")

    def iteration(t):
        if size > 1:
            yield from t.compute(cache.touch_ns(size))         # caller writes
        yield from t.kwork(request_copy)                       # long IPC in
        yield from endpoint.call(t, "ping")
        yield from t.kwork(reply_copy)                         # ack out

    kernel.spawn(server_proc, server, pin=0, name="l4-srv", daemon=True)
    kernel.spawn(client_proc, harness.caller_body(iteration), pin=0,
                 name="l4-cli")
    kernel.run()
    kernel.check()
    return harness.result()


def bench_dpti(*, size: int = 1, iters: int = DEFAULT_ITERS,
               warmup: int = DEFAULT_WARMUP):
    """Tagged-page-table domain call: the endpoint charges the kernel
    entry, both argument copies and the two PCID-tagged CR3 swaps; the
    handler runs on the caller's thread in the owner's domain."""
    kernel = _fresh_kernel(1)
    cache = kernel.machine.cache
    harness = _Harness(kernel, "dpti", warmup=warmup, iters=iters)
    server_proc = kernel.spawn_process("dpti-server")
    client_proc = kernel.spawn_process("dpti-client")

    def handler(t, payload):
        if size > 1:
            yield from t.compute(cache.touch_ns(size))         # callee reads
        else:
            yield from t.compute(0.0)
        return "ack"

    endpoint = DptiEndpoint(kernel, handler)
    endpoint.bind_owner(server_proc)

    def iteration(t):
        if size > 1:
            yield from t.compute(cache.touch_ns(size))         # caller writes
        yield from endpoint.call(t, "ping", size=size, reply_size=1)

    kernel.spawn(client_proc, harness.caller_body(iteration), pin=0,
                 name="dpti-cli")
    kernel.run()
    kernel.check()
    return harness.result()


def bench_odipc(*, size: int = 1, iters: int = DEFAULT_ITERS,
                warmup: int = DEFAULT_WARMUP):
    """dIPC with the bulk copy submitted to the DMA offload engine: at
    and above the threshold the callee's inline read is replaced by
    the non-overlapped remainder of the DMA transfer; below it the
    bench is byte-identical to the dIPC one."""
    costs = CostModel.default()
    if size >= costs.OFFLOAD_THRESHOLD:
        callee_read: Optional[float] = costs.offload_copy_ns(size)
    else:
        callee_read = None                 # same inline read as dipc
    return bench_dipc(policy="high", cross_process=True, size=size,
                      iters=iters, warmup=warmup,
                      callee_read_ns=callee_read, label="odipc")


#: primitive -> sized bench builder; the registry is the source of
#: truth for *which* mechanisms exist, this maps each to its bench
_BENCHES = {
    "pipe": lambda size, iters, warmup: bench_pipe(
        same_cpu=True, size=size, iters=iters, warmup=warmup),
    "socket": lambda size, iters, warmup: bench_socket(
        size=size, iters=iters, warmup=warmup),
    "rpc": lambda size, iters, warmup: bench_rpc(
        same_cpu=True, size=size, iters=iters, warmup=warmup),
    "l4": lambda size, iters, warmup: bench_l4(
        size=size, iters=iters, warmup=warmup),
    "dipc": lambda size, iters, warmup: bench_dipc(
        policy="high", cross_process=True, size=size, iters=iters,
        warmup=warmup, label="dipc"),
    "dpti": lambda size, iters, warmup: bench_dpti(
        size=size, iters=iters, warmup=warmup),
    "odipc": lambda size, iters, warmup: bench_odipc(
        size=size, iters=iters, warmup=warmup),
}


def _check_coverage() -> None:
    missing = [p for p in primitives.names() if p not in _BENCHES]
    if missing:
        raise RuntimeError(
            f"fig11 has no bench for registered primitive(s) "
            f"{', '.join(missing)}; add them to _BENCHES")


def points(*, sizes: Tuple[int, ...] = SIZES,
           iters: int = DEFAULT_ITERS,
           warmup: int = DEFAULT_WARMUP) -> list:
    from repro.runner.points import PointSpec
    _check_coverage()
    return [PointSpec("fig11", __name__, {
                "primitive": primitive, "size": int(size),
                "iters": iters, "warmup": warmup})
            for size in sizes
            for primitive in primitives.names()]


def compute_point(*, primitive: str, size: int, iters: int,
                  warmup: int) -> dict:
    _check_coverage()
    return _BENCHES[primitive](size, iters, warmup).as_point()


# ---------------------------------------------------------------------------
# rendering + verdicts
# ---------------------------------------------------------------------------

#: pretty names for verdict headlines
_DISPLAY = {"dipc": "dIPC", "odipc": "odIPC"}

#: the bracket members the ordering verdict names explicitly (their
#: capabilities cannot tell the offload variant from plain dIPC)
_TAGGED = "dpti"
_SUBJECT = "dipc"
_OFFLOAD = "odipc"


def _busy_total(row: dict) -> float:
    return sum(row["blocks"].get(block.name, 0.0) for block in _COLUMNS)


def assemble(specs, results) -> str:
    rows: Dict[tuple, dict] = {}
    sizes: List[int] = []
    for spec, result in zip(specs, results):
        size = spec.kwargs["size"]
        rows[(size, spec.kwargs["primitive"])] = result
        if size not in sizes:
            sizes.append(size)
    mechs = [p for p in primitives.names()
             if any((size, p) in rows for size in sizes)]
    baselines = [p for p in primitives.names(in_process=False)
                 if p in mechs]
    threshold = CostModel.default().OFFLOAD_THRESHOLD

    lines = [
        "Figure 11: per-call latency and block decomposition across "
        "isolation primitives",
        f"(synchronous ping-pong, same CPU; DMA offload threshold "
        f"{threshold} B)",
    ]
    for size in sizes:
        lines += [
            "",
            f"-- argument size {size} B " + "-" * max(0, 53 - len(str(size))),
            f"{'primitive':<10}{'mean[ns]':>11}{'p95[ns]':>10}"
            + "".join(f"{block.name:>9}" for block in _COLUMNS)
            + f"{'total':>10}",
        ]
        for primitive in mechs:
            row = rows.get((size, primitive))
            if row is None:
                continue
            cols = "".join(
                f"{row['blocks'].get(block.name, 0.0):>9.1f}"
                for block in _COLUMNS)
            lines.append(
                f"{primitive:<10}{row['mean_ns']:>11.1f}"
                f"{row['p95_ns']:>10.1f}{cols}"
                f"{_busy_total(row):>10.1f}")

    # -- claim 1: process-switch baselines > dpti > dipc at every size
    lines.append("")
    ordering_ok = True
    detail = []
    for size in sizes:
        best_base = min(baselines,
                        key=lambda p: rows[(size, p)]["mean_ns"])
        base_ns = rows[(size, best_base)]["mean_ns"]
        dpti_ns = rows[(size, _TAGGED)]["mean_ns"]
        dipc_ns = rows[(size, _SUBJECT)]["mean_ns"]
        ok = base_ns > dpti_ns > dipc_ns
        ordering_ok = ordering_ok and ok
        detail.append(
            f"  size {size:>6} B: best baseline {best_base} "
            f"{base_ns:.1f} > dpti {dpti_ns:.1f} > dipc "
            f"{dipc_ns:.1f}" + ("" if ok else "  <-- violated"))
    lines.append(
        "per-call ordering (every process-switch baseline > dpti > "
        f"dIPC): {'PASS' if ordering_ok else 'FAIL'}")
    lines += detail

    # -- claim 2: the offload engine wins at and above the threshold
    crossover_ok = True
    detail = []
    for size in sizes:
        dipc_ns = rows[(size, _SUBJECT)]["mean_ns"]
        odipc_ns = rows[(size, _OFFLOAD)]["mean_ns"]
        if size >= threshold:
            ok = odipc_ns <= dipc_ns
            relation = "<="
        else:
            ok = abs(odipc_ns - dipc_ns) < 1e-9
            relation = "=="
        crossover_ok = crossover_ok and ok
        detail.append(
            f"  size {size:>6} B: odipc {odipc_ns:.1f} {relation} dipc "
            f"{dipc_ns:.1f}" + ("" if ok else "  <-- violated"))
    headline = _DISPLAY.get(_OFFLOAD, _OFFLOAD)
    lines.append(
        f"offload crossover ({headline} <= dIPC at size >= {threshold} "
        f"B, identical below): "
        f"{'PASS' if crossover_ok else 'FAIL'}")
    lines += detail

    # -- claim 3: the six rendered columns explain the whole busy
    # total — no block outside them carries time
    drift = 0.0
    span_ok = True
    for row in rows.values():
        busy = _busy_total(row)
        total = sum(ns for name, ns in row["blocks"].items()
                    if name != Block.IDLE.name)
        if abs(busy - total) > 1e-6:
            span_ok = False
        drift = max(drift, abs(busy - total))
    lines.append(
        "decomposition: block columns sum to the reported busy totals: "
        f"{'PASS' if span_ok else 'FAIL'} (max drift {drift:.2f} ns)")
    return "\n".join(lines)


from repro.runner.registry import register_figure  # noqa: E402


@register_figure
class Fig11Driver:
    """The isolation-primitive argument-size sweep (tentpole of PR 9)."""

    name = "fig11"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        if quick:
            return {"sizes": QUICK_SIZES, "iters": 10}
        return {"sizes": SIZES, "iters": DEFAULT_ITERS}
