"""Figure 10 (repo extension): end-to-end compounding at topology scale.

Figures 5 and 9 measure one hop. Real deployments chain many: an
N-deep service graph pays the per-hop gap on *every* edge of the
request path, so a constant per-hop advantage compounds into an
order-of-magnitude end-to-end one. This figure sweeps
:mod:`repro.topo` scenarios — the six muBench-style graph patterns at
several sizes — against every primitive and several offered-load
rungs, with each cell repeated across seeded reps and reported as
mean ± 95% CI (:func:`repro.topo.stats.mean_ci`).

Every (scenario, primitive, rung, rep) is one
:class:`~repro.runner.points.PointSpec` whose kwargs embed the
serialized :class:`~repro.topo.spec.TopoSpec` — the graph itself is
part of the cache key, so editing a scenario invalidates exactly its
own points. ``--jobs N``, the result cache, ``--trace``, ``--chaos``
and ``--supervise`` come from the runner for free.

The headline: dIPC's end-to-end p50 speedup over UNIX sockets grows
with graph depth, crossing 5x well before depth 8 (the paper's §7
per-hop advantages, compounded). ``assemble`` states it with the
per-rep confidence interval attached and prints PASS/FAIL.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import units
from repro.load.transports import PRIMITIVES
from repro.topo import TopoSpec, generate, mean_ci

#: the scenario ladder: pattern x size, ordered by depth so the
#: compounding trend reads top to bottom
SCENARIOS = (
    ("fanout-seq-8", "seq_fanout", 8, {}),
    ("fanout-par-8", "par_fanout", 8, {}),
    ("tree-15", "tree", 15, {"width": 2}),
    ("rtree-12", "random_tree", 12, {"seed": 5}),
    ("mesh-12", "mesh", 12, {"width": 3, "seed": 3}),
    ("chain-4", "chain_branch", 4, {}),
    ("chain-8", "chain_branch", 8, {}),
    ("chain-9", "chain_branch", 9, {}),
    ("chain-16", "chain_branch", 16, {}),
)
QUICK_SCENARIOS = ("fanout-par-8", "mesh-12", "chain-4", "chain-9",
                   "chain-16")

#: offered-load ladder, kilo-requests/second; the lowest rung is the
#: latency-comparison rung (baselines not yet fully saturated)
RUNGS = (25.0, 100.0, 400.0)
QUICK_RUNGS = (25.0, 100.0)

REPS = 3
QUICK_REPS = 2

#: end-to-end compounding claim: dIPC >= this over socket at depth >= 8
SPEEDUP_FLOOR = 5.0
DEPTH_FLOOR = 8

#: the latency-under-load harness knobs shared by every cell
_HARNESS = {
    "mode": "open", "policy": "shed", "arrivals": "poisson",
    "n_clients": 4, "n_conns": 8, "n_workers": 2, "queue_depth": 16,
    "req_size": 128, "deadline_ns": 2_000_000.0, "num_cpus": 8,
}


def scenario_spec(name: str) -> TopoSpec:
    """Materialize one named scenario (pure function of the table)."""
    for sname, pattern, n, kwargs in SCENARIOS:
        if sname == name:
            return generate(pattern, n, **kwargs)
    raise KeyError(f"unknown fig10 scenario {name!r}")


def points(*, scenarios: Tuple[str, ...] = None, rungs=RUNGS,
           reps: int = REPS, window_ns: float = 2.0 * units.MS,
           warmup_ns: float = 1.0 * units.MS, seed: int = 42) -> list:
    from repro.runner.points import PointSpec
    names = [s[0] for s in SCENARIOS] if scenarios is None \
        else list(scenarios)
    specs = []
    for name in names:
        topo = scenario_spec(name).to_dict()
        for primitive in PRIMITIVES:
            for kops in rungs:
                for rep in range(reps):
                    kwargs = dict(_HARNESS)
                    kwargs.update({
                        "scenario": name, "rep": rep,
                        "primitive": primitive,
                        "offered_kops": float(kops),
                        "window_ns": window_ns,
                        "warmup_ns": warmup_ns,
                        "seed": seed + 101 * rep, "topo": topo})
                    specs.append(PointSpec("fig10", __name__, kwargs))
    return specs


def compute_point(**kwargs) -> dict:
    from repro.load import LoadParams, run_load_point
    scenario = kwargs.pop("scenario")
    rep = kwargs.pop("rep")
    point = run_load_point(LoadParams(**kwargs)).to_point()
    point["scenario"] = scenario
    point["rep"] = rep
    return point


def _cells(specs, results) -> Dict[tuple, List[dict]]:
    """Group rep rows: (scenario, primitive, rung) -> [row per rep]."""
    cells: Dict[tuple, List[dict]] = {}
    for spec, row in zip(specs, results):
        key = (spec.kwargs["scenario"], spec.kwargs["primitive"],
               spec.kwargs["offered_kops"])
        cells.setdefault(key, []).append(row)
    return cells


def _agg(rows: List[dict], field: str) -> Tuple[float, float]:
    return mean_ci([row[field] for row in rows])


#: pretty names for verdict headlines
_DISPLAY = {"dipc": "dIPC", "odipc": "odIPC"}


def assemble(specs, results, *, subject: str = "dipc",
             baseline: str = "socket") -> str:
    """``subject``/``baseline`` name the primitives the compounding
    verdict compares (defaults: the paper's headline pair); fig12
    reuses this with its own bracket members."""
    cells = _cells(specs, results)
    names = []
    for spec in specs:
        if spec.kwargs["scenario"] not in names:
            names.append(spec.kwargs["scenario"])
    rungs = sorted({spec.kwargs["offered_kops"] for spec in specs})
    reps = 1 + max(spec.kwargs["rep"] for spec in specs)
    low = rungs[0]

    lines = [
        "Figure 10: end-to-end compounding at topology scale "
        f"(open loop, shed policy, {reps} reps, mean +- 95% CI)",
    ]
    for name in names:
        spec = scenario_spec(name)
        lines += [
            "",
            f"-- {name}: {spec.pattern} n={spec.n} depth={spec.depth} "
            f"width={spec.width} edges={len(spec.edges)} "
            f"[{spec.spec_hash()}] " + "-" * max(
                0, 76 - 40 - len(name) - len(spec.pattern)),
            f"{'primitive':<10}{'offered':>8}{'tput[kops]':>11}"
            f"{'goodput':>8}{'p50[us]':>14}{'p99[us]':>9}"
            f"{'p999[us]':>10}",
        ]
        for primitive in PRIMITIVES:
            for kops in rungs:
                rows = cells.get((name, primitive, kops))
                if not rows:
                    continue
                tput, _ = _agg(rows, "throughput_kops")
                good, _ = _agg(rows, "goodput_ratio")
                p50, p50ci = _agg(rows, "p50_ns")
                p99, _ = _agg(rows, "p99_ns")
                p999, _ = _agg(rows, "p999_ns")
                lines.append(
                    f"{primitive:<10}{kops:>8.0f}{tput:>11.1f}"
                    f"{good:>8.2f}"
                    f"{p50 / 1e3:>8.1f}+-{p50ci / 1e3:<4.1f}"
                    f"{p99 / 1e3:>9.1f}{p999 / 1e3:>10.1f}")

    lines += [
        "",
        f"end-to-end p50 speedup vs {baseline} at {low:.0f} kops "
        f"(mean +- 95% CI across {reps} reps):",
        f"{'scenario':<14}{'depth':>6}"
        f"{baseline + ' p50[us]':>16}"
        f"{subject + ' p50[us]':>14}{'speedup':>13}",
        "-" * 63,
    ]
    best = None     # (ci_clears_floor, speedup_mean, ci, name, depth)
    for name in names:
        spec = scenario_spec(name)
        soc = cells.get((name, baseline, low))
        dip = cells.get((name, subject, low))
        if not soc or not dip:
            continue
        # speedup per rep (paired by seed), then mean +- CI of those
        ratios = [s["p50_ns"] / d["p50_ns"]
                  for s, d in zip(soc, dip) if d["p50_ns"] > 0]
        ratio, ratio_ci = mean_ci(ratios)
        soc50, soc_ci = _agg(soc, "p50_ns")
        dip50, dip_ci = _agg(dip, "p50_ns")
        lines.append(
            f"{name:<14}{spec.depth:>6d}"
            f"{soc50 / 1e3:>10.1f}+-{soc_ci / 1e3:<4.1f}"
            f"{dip50 / 1e3:>9.2f}+-{dip_ci / 1e3:<4.2f}"
            f"{ratio:>7.1f}x+-{ratio_ci:<4.1f}")
        if spec.depth >= DEPTH_FLOOR:
            # prefer a scenario whose CI *lower bound* clears the
            # floor (a defensible claim); break ties on the mean
            cand = (ratio - ratio_ci >= SPEEDUP_FLOOR, ratio,
                    ratio_ci, name, spec.depth)
            if best is None or cand[:2] > best[:2]:
                best = cand

    headline = _DISPLAY.get(subject, subject)
    if best is None:
        lines.append(f"{headline} compounding: FAIL (no scenario of "
                     f"depth >= {DEPTH_FLOOR} in the sweep)")
    else:
        _, ratio, ratio_ci, name, depth = best
        verdict = "PASS" if ratio >= SPEEDUP_FLOOR else "FAIL"
        lines.append(
            f"{headline} compounding: {verdict} ({name}, depth {depth}: "
            f"{ratio:.1f}x +- {ratio_ci:.1f} end-to-end vs {baseline}, "
            f"floor {SPEEDUP_FLOOR:.0f}x)")
    return "\n".join(lines)


from repro.runner.registry import register_figure  # noqa: E402


@register_figure
class Fig10Driver:
    """The topology-scale compounding sweep (tentpole of PR 6)."""

    name = "fig10"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        if quick:
            return {"scenarios": QUICK_SCENARIOS, "rungs": QUICK_RUNGS,
                    "reps": QUICK_REPS, "window_ns": 1.0 * units.MS,
                    "warmup_ns": 0.5 * units.MS}
        return {"scenarios": tuple(s[0] for s in SCENARIOS),
                "rungs": RUNGS, "reps": REPS,
                "window_ns": 2.0 * units.MS,
                "warmup_ns": 1.0 * units.MS}
