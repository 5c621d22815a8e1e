"""Ablation studies over dIPC's design choices (see DESIGN.md §3).

Each ablation flips one design decision and reports the effect:

* ``tls`` — the proposed cheaper TLS mode (§6.1.2) vs wrfsbase;
* ``policy`` — asymmetric (Low) vs symmetric-worst-case (High) policies;
* ``stubs`` — compiler-co-optimized stubs vs runtime-folded worst case;
* ``tracking`` — hot vs warm vs cold process-tracking paths (§6.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.annotations import STUB_COOPT_FACTOR
from repro.experiments.microbench import bench_dipc
from repro.hw.costs import CostModel


@dataclass
class AblationRow:
    name: str
    baseline_ns: float
    variant_ns: float
    note: str

    @property
    def ratio(self) -> float:
        return self.baseline_ns / self.variant_ns if self.variant_ns \
            else 0.0


def tls_ablation(iters: int = 25) -> List[AblationRow]:
    fast = CostModel(TLS_SWITCH=0.0)
    rows = []
    for policy in ("low", "high"):
        base = bench_dipc(policy=policy, cross_process=True, iters=iters)
        optimized = bench_dipc(policy=policy, cross_process=True,
                               iters=iters, costs=fast)
        rows.append(AblationRow(
            f"tls-optimized ({policy})", base.mean_ns, optimized.mean_ns,
            "paper predicts 3.22x (Low) / 1.54x (High)"))
    return rows


def policy_ablation(iters: int = 25) -> AblationRow:
    high = bench_dipc(policy="high", iters=iters)
    low = bench_dipc(policy="low", iters=iters)
    return AblationRow("asymmetric policy", high.mean_ns, low.mean_ns,
                       "paper: up to 8.47x between policies")


def stub_ablation() -> AblationRow:
    costs = CostModel.default()
    folded = costs.STUB_REG_SAVE + costs.STUB_REG_RESTORE \
        + costs.STUB_REG_ZERO + costs.STUB_STACK_CAPS
    optimized = (costs.STUB_REG_SAVE + costs.STUB_REG_RESTORE
                 + costs.STUB_REG_ZERO) / STUB_COOPT_FACTOR \
        + costs.STUB_STACK_CAPS
    return AblationRow("compiler stubs", folded, optimized,
                       "register work ~2.5x cheaper with liveness info")


def tracking_ablation() -> List[AblationRow]:
    costs = CostModel.default()
    hot = costs.TRACK_PROCESS_CALL
    warm = hot + costs.TRACK_TREE_LOOKUP
    cold = costs.TRACK_UPCALL + costs.syscall_empty() + hot
    return [
        AblationRow("tracking warm-vs-hot", warm, hot,
                    "cache-array miss costs a per-thread tree walk"),
        AblationRow("tracking cold-vs-hot", cold, hot,
                    "first contact upcalls into a management thread"),
    ]


# -- point decomposition (one point per ablation family) ---------------------

#: the families in row order
PARTS = ("tls", "policy", "stubs", "tracking")


def points(*, iters: int = 25) -> list:
    from repro.runner.points import PointSpec
    return [PointSpec("ablation", __name__, {"part": part, "iters": iters})
            for part in PARTS]


def compute_point(*, part: str, iters: int) -> list:
    if part == "tls":
        rows = tls_ablation(iters)
    elif part == "policy":
        rows = [policy_ablation(iters)]
    elif part == "stubs":
        rows = [stub_ablation()]
    elif part == "tracking":
        rows = tracking_ablation()
    else:
        raise ValueError(part)
    return [{"name": row.name, "baseline_ns": row.baseline_ns,
             "variant_ns": row.variant_ns, "note": row.note}
            for row in rows]


def assemble(specs, results) -> str:
    rows = [AblationRow(**row) for part in results for row in part]
    return render(rows)


def render(rows: List[AblationRow]) -> str:
    lines = [
        "Ablations over dIPC design choices",
        "",
        f"{'ablation':<26}{'baseline':>10}{'variant':>10}{'ratio':>8}"
        f"  note",
        "-" * 96,
    ]
    for row in rows:
        lines.append(f"{row.name:<26}{row.baseline_ns:>8.1f}ns"
                     f"{row.variant_ns:>8.1f}ns{row.ratio:>7.2f}x"
                     f"  {row.note}")
    return "\n".join(lines)


from repro.runner.registry import register_figure


@register_figure
class AblationDriver:
    """The ablation study under the unified experiment-driver API."""

    name = "ablation"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        return {"iters": 10 if quick else 25}
