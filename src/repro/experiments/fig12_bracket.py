"""Figure 12 (repo extension): the new isolation bracket under load.

Figure 11 prices the new mechanisms per call; this figure puts them
under pressure, in two parts:

* **Part A — load sweep** (Figure-9 style): every *in-process*
  primitive (dipc, dpti, odipc — registry ``in_process`` capability)
  behind the ``repro.load`` open-loop harness at
  :data:`REQ_SIZE`-byte requests — deliberately **above** the DMA
  offload threshold, so the copy column Figure 11 decomposes is what
  saturates first.  The knee verdict comes from
  :func:`repro.experiments.fig09_load.verdict_lines` with its default
  registry-derived baseline set, which here resolves to ``dpti``: the
  tagged-PT mechanism is the *bracket floor* the trusted mechanisms
  must clear.

* **Part B — chain compounding** (Figure-10 style): the bracket plus
  the ``socket`` baseline across deepening ``chain-*`` scenarios at
  the latency rung, reusing Figure 10's harness and scenario table.
  Each new primitive must compound past
  :data:`~repro.experiments.fig10_topo.SPEEDUP_FLOOR` over sockets at
  depth ≥ :data:`~repro.experiments.fig10_topo.DEPTH_FLOOR`, exactly
  like dIPC does in Figure 10.

Every point is one :class:`~repro.runner.points.PointSpec`;
``--jobs N``, the result cache, ``--trace``, ``--chaos`` and
``--supervise`` come from the runner for free.
"""

from __future__ import annotations

from typing import Dict, List

from repro import primitives, units
from repro.experiments import fig09_load as fig9
from repro.experiments.fig10_topo import (
    _HARNESS, DEPTH_FLOOR, SPEEDUP_FLOOR, _agg, _cells, scenario_spec)
from repro.hw.costs import CostModel
from repro.topo import mean_ci

#: request size of the load sweep — the DMA offload threshold itself,
#: so the sweep runs exactly where the offload engine starts to matter
REQ_SIZE = CostModel.default().OFFLOAD_THRESHOLD

#: open-loop offered-load ladder, kilo-requests/second
RUNGS = (800.0, 1600.0, 2400.0, 3200.0, 4000.0)
QUICK_RUNGS = (1600.0, 2400.0, 3200.0)

#: Figure 10 chain scenarios reused for the compounding part
CHAIN_SCENARIOS = ("chain-4", "chain-9", "chain-16")
QUICK_CHAIN_SCENARIOS = ("chain-4", "chain-9")

#: latency rung for the chains (Figure 10's comparison rung)
CHAIN_KOPS = 25.0

REPS = 3
QUICK_REPS = 2


def _bracket():
    """The in-process mechanisms, from the registry."""
    return tuple(primitives.names(in_process=True))


def _chain_members():
    """Part B sweeps the bracket plus the socket baseline."""
    return ("socket",) + _bracket()


def points(*, rungs=RUNGS, scenarios=CHAIN_SCENARIOS, reps: int = REPS,
           window_ns: float = 2.0 * units.MS,
           warmup_ns: float = 1.0 * units.MS, seed: int = 42) -> list:
    from repro.runner.points import PointSpec
    specs = []
    for primitive in _bracket():
        for kops in rungs:
            specs.append(PointSpec("fig12", __name__, {
                "part": "load", "primitive": primitive,
                "mode": "open", "policy": "shed",
                "offered_kops": float(kops), "req_size": REQ_SIZE,
                "window_ns": window_ns, "warmup_ns": warmup_ns,
                "seed": seed}))
    for name in scenarios:
        topo = scenario_spec(name).to_dict()
        for primitive in _chain_members():
            for rep in range(reps):
                kwargs = dict(_HARNESS)
                kwargs.update({
                    "part": "chain", "scenario": name, "rep": rep,
                    "primitive": primitive,
                    "offered_kops": CHAIN_KOPS,
                    "window_ns": window_ns, "warmup_ns": warmup_ns,
                    "seed": seed + 101 * rep, "topo": topo})
                specs.append(PointSpec("fig12", __name__, kwargs))
    return specs


def compute_point(**kwargs) -> dict:
    from repro.load import LoadParams, run_load_point
    part = kwargs.pop("part")
    if part == "chain":
        scenario = kwargs.pop("scenario")
        rep = kwargs.pop("rep")
        point = run_load_point(LoadParams(**kwargs)).to_point()
        point["scenario"] = scenario
        point["rep"] = rep
        return point
    return run_load_point(LoadParams(**kwargs)).to_point()


#: pretty names for verdict headlines
_DISPLAY = {"dipc": "dIPC", "odipc": "odIPC"}


def assemble(specs, results) -> str:
    load_specs, load_results = [], []
    chain_specs, chain_results = [], []
    for spec, result in zip(specs, results):
        if spec.kwargs["part"] == "load":
            load_specs.append(spec)
            load_results.append(result)
        else:
            chain_specs.append(spec)
            chain_results.append(result)

    lines = [
        "Figure 12: the new isolation bracket under load and at depth",
        "",
        f"Part A: open-loop sweep at {REQ_SIZE} B requests "
        "(Poisson arrivals, shed policy)",
    ]

    open_points: Dict[str, List[dict]] = {}
    for spec, row in zip(load_specs, load_results):
        open_points.setdefault(spec.kwargs["primitive"], []).append(row)
    for primitive in _bracket():
        rows = open_points.get(primitive, [])
        lines += [
            "",
            f"-- {primitive} " + "-" * (62 - len(primitive)),
            f"{'offered[kops]':>14}{'tput[kops]':>12}{'goodput':>9}"
            f"{'shed':>7}{'p50[us]':>9}{'p99[us]':>9}{'p999[us]':>10}",
        ]
        for row in rows:
            lines.append(
                f"{row['offered_kops']:>14.0f}"
                f"{row['throughput_kops']:>12.1f}"
                f"{row['goodput_ratio']:>9.2f}"
                f"{row['shed']:>7d}"
                f"{row['p50_ns'] / 1e3:>9.1f}"
                f"{row['p99_ns'] / 1e3:>9.1f}"
                f"{row['p999_ns'] / 1e3:>10.1f}")

    knee_by = fig9.knees(open_points)
    lines += [
        "",
        f"saturation knees (highest offered load with goodput >= "
        f"{fig9.KNEE_GOODPUT:.2f}):",
    ]
    for primitive in _bracket():
        lines.append(f"  {primitive:<8}{knee_by[primitive]:>7.0f} kops")
    # default baseline set: registry baselines actually swept = dpti
    lines += fig9.verdict_lines(knee_by)

    # -- Part B ---------------------------------------------------------------
    cells = _cells(chain_specs, chain_results)
    names: List[str] = []
    for spec in chain_specs:
        if spec.kwargs["scenario"] not in names:
            names.append(spec.kwargs["scenario"])
    reps = 1 + max(spec.kwargs["rep"] for spec in chain_specs)

    lines += [
        "",
        f"Part B: chain compounding at {CHAIN_KOPS:.0f} kops "
        f"(p50, mean +- 95% CI over {reps} reps)",
        f"{'scenario':<10}{'depth':>6}" + "".join(
            f"{p + '[us]':>13}" for p in _chain_members()),
        "-" * (16 + 13 * len(_chain_members())),
    ]
    for name in names:
        spec = scenario_spec(name)
        row = f"{name:<10}{spec.depth:>6d}"
        for primitive in _chain_members():
            rows = cells.get((name, primitive, CHAIN_KOPS))
            if not rows:
                row += f"{'-':>13}"
                continue
            p50, ci = _agg(rows, "p50_ns")
            row += f"{p50 / 1e3:>8.1f}+-{ci / 1e3:<4.1f}"
        lines.append(row)

    lines.append("")
    for subject in _bracket():
        best = None    # (speedup, ci, scenario, depth)
        for name in names:
            spec = scenario_spec(name)
            if spec.depth < DEPTH_FLOOR:
                continue
            soc = cells.get((name, "socket", CHAIN_KOPS))
            sub = cells.get((name, subject, CHAIN_KOPS))
            if not soc or not sub:
                continue
            ratios = [s["p50_ns"] / d["p50_ns"]
                      for s, d in zip(soc, sub) if d["p50_ns"] > 0]
            ratio, ratio_ci = mean_ci(ratios)
            if best is None or ratio > best[0]:
                best = (ratio, ratio_ci, name, spec.depth)
        headline = _DISPLAY.get(subject, subject)
        if best is None:
            lines.append(
                f"{headline} compounding: FAIL (no scenario of depth "
                f">= {DEPTH_FLOOR} in the sweep)")
        else:
            ratio, ratio_ci, name, depth = best
            verdict = "PASS" if ratio >= SPEEDUP_FLOOR else "FAIL"
            lines.append(
                f"{headline} compounding: {verdict} ({name}, depth "
                f"{depth}: {ratio:.1f}x +- {ratio_ci:.1f} end-to-end "
                f"vs socket, floor {SPEEDUP_FLOOR:.0f}x)")
    return "\n".join(lines)


from repro.runner.registry import register_figure  # noqa: E402


@register_figure
class Fig12Driver:
    """The bracket's load + compounding sweep (rides with fig11)."""

    name = "fig12"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        if quick:
            return {"rungs": QUICK_RUNGS,
                    "scenarios": QUICK_CHAIN_SCENARIOS,
                    "reps": QUICK_REPS, "window_ns": 1.0 * units.MS,
                    "warmup_ns": 0.5 * units.MS}
        return {"rungs": RUNGS, "scenarios": CHAIN_SCENARIOS,
                "reps": REPS, "window_ns": 2.0 * units.MS,
                "warmup_ns": 1.0 * units.MS}
