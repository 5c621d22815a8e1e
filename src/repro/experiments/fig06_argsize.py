"""Figure 6: added execution time of a producer-consumer synchronous call
as the argument size grows (1 B to 1 MB).

The caller writes the argument and the callee reads it in every
configuration, so the figure plots the time *added* by each primitive
over the baseline function call at the same size. Copy-based primitives
(Pipe, RPC) grow with size and fall off the L1/L2 cliffs; Sem. pays one
populate copy; dIPC passes capabilities by reference and stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.microbench import (BenchResult, bench_dipc,
                                          bench_dipc_user_rpc, bench_func,
                                          bench_pipe, bench_rpc, bench_sem,
                                          bench_syscall)

#: the x axis: powers of two, 1B .. 1MB (paper: 2^0 .. 2^20)
DEFAULT_SIZES = tuple(4 ** i for i in range(0, 11))  # 1B .. 1MB, sparser

SERIES = ("syscall", "sem_cross_cpu", "pipe_cross_cpu", "rpc_cross_cpu",
          "dipc_low", "dipc_high", "dipc_proc_low", "dipc_proc_high",
          "dipc_user_rpc")


@dataclass
class Fig6Series:
    label: str
    added_ns: Dict[int, float]
    #: (p50, p95, p99) absolute latency per size, from trace.histogram
    tail_ns: Dict[int, Tuple[float, float, float]] = field(
        default_factory=dict)


def _measure(label: str, size: int, iters: int) -> BenchResult:
    if label == "syscall":
        return bench_syscall(iters=iters)
    if label == "sem_cross_cpu":
        return bench_sem(same_cpu=False, size=size, iters=iters)
    if label == "pipe_cross_cpu":
        return bench_pipe(same_cpu=False, size=size, iters=iters)
    if label == "rpc_cross_cpu":
        return bench_rpc(same_cpu=False, size=size, iters=iters)
    if label == "dipc_low":
        return bench_dipc(policy="low", size=size, iters=iters)
    if label == "dipc_high":
        return bench_dipc(policy="high", size=size, iters=iters)
    if label == "dipc_proc_low":
        return bench_dipc(policy="low", cross_process=True, size=size,
                          iters=iters)
    if label == "dipc_proc_high":
        return bench_dipc(policy="high", cross_process=True, size=size,
                          iters=iters)
    if label == "dipc_user_rpc":
        return bench_dipc_user_rpc(size=size, iters=iters)
    raise ValueError(label)


# -- point decomposition -----------------------------------------------------
# One baseline point per size plus one point per (series, size) cell.

def points(*, sizes=DEFAULT_SIZES, iters: int = 20) -> list:
    from repro.runner.points import PointSpec
    specs = [PointSpec("fig6", __name__,
                       {"kind": "baseline", "size": size, "iters": iters})
             for size in sizes]
    specs += [PointSpec("fig6", __name__,
                        {"kind": "measure", "label": label, "size": size,
                         "iters": iters})
              for label in SERIES for size in sizes]
    return specs


def compute_point(*, kind: str, size: int, iters: int,
                  label: str = "") -> dict:
    if kind == "baseline":
        return bench_func(size=size, iters=iters).as_point()
    return _measure(label, size, iters).as_point()


def fold(specs, results) -> List[Fig6Series]:
    baseline = {}
    measured = {}
    sizes = []
    for spec, result in zip(specs, results):
        kwargs = spec.kwargs
        if kwargs["kind"] == "baseline":
            baseline[kwargs["size"]] = result["mean_ns"]
            sizes.append(kwargs["size"])
        else:
            measured[(kwargs["label"], kwargs["size"])] = result
    series = []
    for label in SERIES:
        added = {}
        tail = {}
        for size in sizes:
            result = measured[(label, size)]
            added[size] = max(result["mean_ns"] - baseline[size], 0.0)
            tail[size] = (result["p50_ns"], result["p95_ns"],
                          result["p99_ns"])
        series.append(Fig6Series(label, added, tail))
    return series


def assemble(specs, results) -> str:
    return render(fold(specs, results))


def render(series: List[Fig6Series]) -> str:
    sizes = sorted(next(iter(series)).added_ns)
    from repro import units
    header = f"{'size':>8} | " + " ".join(f"{s.label:>15}" for s in series)
    lines = [
        "Figure 6: added execution time vs argument size [ns] "
        "(lower is better)",
        "",
        header,
        "-" * len(header),
    ]
    for size in sizes:
        cells = " ".join(f"{s.added_ns[size]:>15.0f}" for s in series)
        lines.append(f"{units.human_size(size):>8} | {cells}")
    largest = sizes[-1]
    if any(s.tail_ns for s in series):
        lines += [
            "",
            f"tail latency at {units.human_size(largest)} "
            "[ns, from trace.histogram; p* are absolute, 'added' is "
            "over the baseline call]:",
            f"{'series':<16}{'added':>12}{'p50':>12}"
            f"{'p95':>12}{'p99':>12}",
        ]
        for s in series:
            p50, p95, p99 = s.tail_ns.get(largest, (0.0, 0.0, 0.0))
            lines.append(f"{s.label:<16}{s.added_ns[largest]:>12.0f}"
                         f"{p50:>12.0f}{p95:>12.0f}{p99:>12.0f}")
    lines += [
        "",
        "expected shape: dIPC flat (capabilities, pass-by-reference); "
        "Sem. ~1 copy; Pipe ~2 copies; RPC ~4 copies;",
        "knees near the L1 (32KB) and L2 (256KB) capacities.",
    ]
    return "\n".join(lines)


from repro.runner.registry import register_figure


@register_figure
class Fig6Driver:
    """Figure 6 under the unified experiment-driver API."""

    name = "fig6"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        sizes = tuple(16 ** i for i in range(0, 6)) if quick else \
            DEFAULT_SIZES
        return {"sizes": sizes, "iters": 7 if quick else 20}
