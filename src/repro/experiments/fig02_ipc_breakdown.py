"""Figure 2: time breakdown of traditional IPC primitives.

Reproduces the stacked bars: Sem. (=CPU / ≠CPU), L4 (=CPU / ≠CPU) and
Local RPC (=CPU / ≠CPU), decomposed into the paper's seven blocks. The
paper notes it did not examine breakdowns for L4; we report them anyway
since the simulator gives them for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.microbench import (BenchResult, bench_l4, bench_rpc,
                                          bench_sem)
from repro.sim.stats import Block

#: bars of Figure 2, bottom to top
BARS = ("sem_same_cpu", "sem_cross_cpu", "l4_same_cpu", "l4_cross_cpu",
        "rpc_same_cpu", "rpc_cross_cpu")


@dataclass
class Fig2Row:
    label: str
    total_ns: float
    blocks: Dict[Block, float]


def _bench(label: str, iters: int) -> BenchResult:
    family, where = label.rsplit("_", 2)[0], label.endswith("same_cpu")
    if family == "sem":
        return bench_sem(same_cpu=where, iters=iters)
    if family == "l4":
        return bench_l4(same_cpu=where, iters=iters)
    if family == "rpc":
        return bench_rpc(same_cpu=where, iters=iters)
    raise ValueError(label)


# -- point decomposition (one point per bar) ---------------------------------

def points(*, iters: int = 40) -> list:
    from repro.runner.points import PointSpec
    return [PointSpec("fig2", __name__, {"label": label, "iters": iters})
            for label in BARS]


def compute_point(*, label: str, iters: int) -> dict:
    return _bench(label, iters).as_point()


def fold(specs, results) -> List[Fig2Row]:
    return [Fig2Row(spec.kwargs["label"], result["mean_ns"],
                    {Block[name]: ns
                     for name, ns in result["blocks"].items()})
            for spec, result in zip(specs, results)]


def assemble(specs, results) -> str:
    return render(fold(specs, results))


def render(rows: List[Fig2Row]) -> str:
    lines = [
        "Figure 2: Time breakdown of different IPC primitives [ns]",
        "(function call < 2ns, empty Linux syscall ~ 34ns)",
        "",
        f"{'primitive':<16}{'total':>9} | " + " ".join(
            f"{f'({b.value})':>8}" for b in Block),
        "-" * 90,
    ]
    for row in rows:
        cells = " ".join(f"{row.blocks.get(b, 0.0):>8.0f}" for b in Block)
        lines.append(f"{row.label:<16}{row.total_ns:>9.0f} | {cells}")
    lines += [
        "",
        "blocks: (1) user code  (2) syscall+2xswapgs+sysret  "
        "(3) dispatch trampoline  (4) kernel code",
        "        (5) schedule/ctxt switch  (6) page table switch  "
        "(7) idle/IO wait",
    ]
    return "\n".join(lines)


from repro.runner.registry import register_figure


@register_figure
class Fig2Driver:
    """Figure 2 under the unified experiment-driver API."""

    name = "fig2"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        return {"iters": 15 if quick else 40}
