"""Figure 5: performance of synchronous calls in dIPC and other
primitives, with the paper's speedup multipliers over a function call."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.hw.costs import FIG5_TARGETS_NS

#: bar order of Figure 5, left to right
ORDER = ("func", "syscall", "dipc_low", "dipc_high", "sem_same_cpu",
         "sem_cross_cpu", "pipe_same_cpu", "pipe_cross_cpu",
         "dipc_proc_low", "dipc_proc_high", "rpc_same_cpu",
         "rpc_cross_cpu", "dipc_user_rpc", "l4_same_cpu")


@dataclass
class Fig5Row:
    label: str
    measured_ns: float
    multiplier_over_func: float
    paper_target_ns: float
    error_pct: float
    #: tail latency from trace.histogram (per-iteration distribution)
    p50_ns: float = 0.0
    p95_ns: float = 0.0
    p99_ns: float = 0.0


# -- point decomposition (one point per bar) ---------------------------------

def points(*, iters: int = 40) -> list:
    from repro.runner.points import PointSpec
    return [PointSpec("fig5", __name__, {"label": label, "iters": iters})
            for label in ORDER]


def compute_point(*, label: str, iters: int) -> dict:
    from repro.experiments.microbench import fig5_bench
    return fig5_bench(label, iters=iters).as_point()


def fold(specs, results) -> List[Fig5Row]:
    by = {spec.kwargs["label"]: result
          for spec, result in zip(specs, results)}
    func_ns = by["func"]["mean_ns"]
    rows = []
    for label in ORDER:
        result = by[label]
        target = FIG5_TARGETS_NS[label]
        rows.append(Fig5Row(
            label, result["mean_ns"], result["mean_ns"] / func_ns, target,
            (result["mean_ns"] - target) / target * 100.0,
            result["p50_ns"], result["p95_ns"], result["p99_ns"]))
    return rows


def assemble(specs, results) -> str:
    return render(fold(specs, results))


from repro.runner.registry import register_figure


@register_figure
class Fig5Driver:
    """Figure 5 under the unified experiment-driver API."""

    name = "fig5"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        return {"iters": 15 if quick else 40}


def headline_ratios(rows: List[Fig5Row]) -> Dict[str, float]:
    by = {row.label: row.measured_ns for row in rows}
    return {
        "dipc_vs_rpc": by["rpc_same_cpu"] / by["dipc_proc_high"],
        "dipc_vs_l4": by["l4_same_cpu"] / by["dipc_proc_high"],
        "policy_spread": by["dipc_high"] / by["dipc_low"],
        "vs_sem": by["sem_same_cpu"] / by["dipc_proc_high"],
        "vs_rpc_low": by["rpc_same_cpu"] / by["dipc_proc_low"],
    }


def render(rows: List[Fig5Row]) -> str:
    lines = [
        "Figure 5: Performance of synchronous calls [ns, log scale in "
        "the paper]",
        "",
        f"{'primitive':<16}{'measured':>10}{'x func':>9}"
        f"{'paper':>10}{'err%':>7}"
        f"{'p50':>10}{'p95':>10}{'p99':>10}",
        "-" * 85,
    ]
    for row in rows:
        lines.append(f"{row.label:<16}{row.measured_ns:>10.1f}"
                     f"{row.multiplier_over_func:>8.0f}x"
                     f"{row.paper_target_ns:>10.1f}{row.error_pct:>+6.1f}%"
                     f"{row.p50_ns:>10.1f}{row.p95_ns:>10.1f}"
                     f"{row.p99_ns:>10.1f}")
    ratios = headline_ratios(rows)
    lines += [
        "",
        f"dIPC vs local RPC : {ratios['dipc_vs_rpc']:.2f}x "
        "(paper: 64.12x)",
        f"dIPC vs L4        : {ratios['dipc_vs_l4']:.2f}x (paper: 8.87x)",
        f"policy spread     : {ratios['policy_spread']:.2f}x "
        "(paper: up to 8.47x)",
        f"vs Sem / vs RPC   : {ratios['vs_sem']:.2f}x / "
        f"{ratios['vs_rpc_low']:.2f}x (paper: 14.16x - 120.67x)",
    ]
    return "\n".join(lines)
