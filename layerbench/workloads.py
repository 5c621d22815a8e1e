"""The benchmark's four workloads: seeded point lists and one-point execution.

A workload is a fixed list of simulation points. Each point calls one of
the drivers' public point functions, so the benchmark measures exactly the
code a figure run executes:

* ``pingpong`` -- the 14 Figure-5 bars plus every registered primitive at
  64 B (Figure 11). Uncontended runqueues, a nearly empty event
  heap; it bypasses the load, topo and apps layers and the recovery
  machinery.
* ``load`` -- Figure-9 points for every primitive: open loop with the shed
  policy and closed loop with the block policy. Saturated pools, contended
  runqueues and a deep heap.
* ``topo`` -- Figure-10 points over two service graphs, plus a storm
  slice run under a fresh ``ChaosSession`` and ``RecoverySession`` per
  point. The only workload with nested proxies, deep KCS chains,
  supervisor rebuilds and breakers.
* ``oltp`` -- the Figure-8 web-server stack, on-disk and in-memory, Linux
  and dIPC. The only workload that reaches the apps layer and disk timers.

Point lists are a pure function of the seed (``pingpong`` ignores it).
Points keep the sizes of quick figure runs (2000 round trips, 0.5 ms
warm-up + 1.5 ms windows; Figure 8's windows scaled by 1/16); a pass
stays within 3.5-8 s of host time on a 2-CPU Xeon because the lists run
fewer rungs and scenarios than the figures do, not smaller points.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Tuple

WORKLOADS = ("pingpong", "load", "topo", "oltp")

#: pingpong: round trips per point (plus the drivers' 5 warm-up calls).
#: Figure 11 runs at 64 B only: at 16 KiB every primitive posts the same
#: events as at 64 B, with larger costs
PINGPONG_ITERS = 2000
FIG11_SIZE = 64
FIG11_WARMUP = 5

#: load: the saturated open-loop rung (kops) and one closed-loop
#: population; a 1 ms timeslice fits in the window, so saturated
#: baselines are preempted
LOAD_OPEN_KOPS = (6400.0,)
LOAD_CLOSED_CLIENTS = (16,)
LOAD_WARMUP_NS = 500_000.0
LOAD_WINDOW_NS = 1_500_000.0

#: topo: (scenarios, rungs, warm-up, window) of the steady and storm
#: slices; the deepest chain and the mesh at the rung where dIPC carries
#: full load
TOPO_SCENARIOS = ("mesh-12", "chain-16")
TOPO_KOPS = (100.0,)
TOPO_WARMUP_NS = 500_000.0
TOPO_WINDOW_NS = 1_500_000.0
STORM_SCENARIOS = ("chain-9", "mesh-12")
STORM_KOPS = (100.0,)
STORM_WARMUP_NS = 500_000.0
STORM_WINDOW_NS = 1_000_000.0
#: the storm slice runs the same storms whatever the seed: a storm that
#: kills a service early does a fraction of the work of one that does not
#: (the slice's events ranged over 2x across seeds 1-10), which would
#: swamp ``wall_s``; the seed varies the steady slice's traffic
STORM_SEED = 42

#: oltp: one closed-loop population; Figure 8's window and warm-up at
#: that concurrency (250 ms and 100 ms) both scaled by 1/16. ``params_for``
#: would raise the warm-up to its 40 ms floor, which more than doubles a
#: point's host time
OLTP_CONCURRENCY = 64
OLTP_SCALE = 0.0625
OLTP_WARMUP_NS = 6_250_000.0


def point_id(workload: str, kind: str, kwargs: dict) -> str:
    """Content hash of a point: equal ids mean the same simulation."""
    payload = json.dumps({"workload": workload, "kind": kind,
                          "kwargs": kwargs}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _spec(workload: str, kind: str, kwargs: dict, label: str) -> dict:
    return {"id": point_id(workload, kind, kwargs), "kind": kind,
            "label": label, "kwargs": kwargs}


def _point_seed(seed: int, index: int) -> int:
    """Each point draws from its own stream. The drivers give every point
    of a sweep the same seed, so that primitives see the same arrivals;
    here that would make the whole list's work rise and fall together
    from one seed to the next."""
    return seed * 1000 + index


def specs(workload: str, seed: int) -> List[dict]:
    """The workload's point list, in execution order."""
    if workload == "pingpong":
        return _pingpong()
    if workload == "load":
        return _load(seed)
    if workload == "topo":
        return _topo(seed)
    if workload == "oltp":
        return _oltp(seed)
    raise ValueError(f"unknown workload {workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")


def _pingpong() -> List[dict]:
    from repro import primitives
    from repro.experiments import fig05_sync_calls
    out = [_spec("pingpong", "fig5",
                 {"label": label, "iters": PINGPONG_ITERS}, label)
           for label in fig05_sync_calls.ORDER]
    for primitive in primitives.names():
        out.append(_spec(
            "pingpong", "fig11",
            {"primitive": primitive, "size": FIG11_SIZE,
             "iters": PINGPONG_ITERS, "warmup": FIG11_WARMUP},
            f"{primitive}@{FIG11_SIZE}"))
    return out


def _load(seed: int) -> List[dict]:
    from repro.experiments import fig09_load
    points = fig09_load.points(
        open_rungs=LOAD_OPEN_KOPS, closed_clients=LOAD_CLOSED_CLIENTS,
        window_ns=LOAD_WINDOW_NS, warmup_ns=LOAD_WARMUP_NS, seed=seed)
    out = []
    for point in points:
        kw = dict(point.kwargs, seed=_point_seed(seed, len(out)))
        level = (f"{kw['offered_kops']:.0f}k" if kw["mode"] == "open"
                 else f"{kw['n_clients']}c")
        out.append(_spec("load", "fig9", kw,
                         f"{kw['primitive']}/{kw['mode']}/{level}"))
    return out


def _topo(seed: int) -> List[dict]:
    from repro.experiments import fig10_topo
    out = []
    for kind, scenarios, rungs, warmup, window in (
            ("fig10", TOPO_SCENARIOS, TOPO_KOPS, TOPO_WARMUP_NS,
             TOPO_WINDOW_NS),
            ("storm", STORM_SCENARIOS, STORM_KOPS, STORM_WARMUP_NS,
             STORM_WINDOW_NS)):
        for point in fig10_topo.points(
                scenarios=scenarios, rungs=rungs, reps=1,
                window_ns=window, warmup_ns=warmup, seed=seed):
            base = STORM_SEED if kind == "storm" else seed
            kw = dict(point.kwargs, seed=_point_seed(base, len(out)))
            out.append(_spec(
                "topo", kind, kw,
                f"{kind}:{kw['scenario']}/{kw['primitive']}/"
                f"{kw['offered_kops']:.0f}k"))
    return out


def _oltp(seed: int) -> List[dict]:
    out = []
    for storage in ("on-disk", "in-memory"):
        for config in ("linux", "dipc"):
            out.append(_spec(
                "oltp", "oltp",
                {"config": config, "storage": storage,
                 "concurrency": OLTP_CONCURRENCY, "scale": OLTP_SCALE,
                 "warmup_ns": OLTP_WARMUP_NS,
                 "seed": _point_seed(seed, len(out))},
                f"{storage}/{config}"))
    return out


# ---------------------------------------------------------------------------
# running one point
# ---------------------------------------------------------------------------

def run_point(spec: dict) -> Tuple[dict, int, List[str]]:
    """Run one point on fresh kernels: ``(result, simulated ops, violations)``.

    ``result`` is JSON-only, so its digest is a pure function of the
    simulation. ``violations`` lists invariant-audit failures (storm
    points only).
    """
    kind = spec["kind"]
    kwargs = json.loads(json.dumps(spec["kwargs"]))  # drivers may mutate
    if kind == "fig5":
        from repro.experiments import fig05_sync_calls
        result = fig05_sync_calls.compute_point(**kwargs)
        return result, result["iterations"], []
    if kind == "fig11":
        from repro.experiments import fig11_isolation
        result = fig11_isolation.compute_point(**kwargs)
        return result, result["iterations"], []
    if kind == "fig9":
        from repro.experiments import fig09_load
        result = fig09_load.compute_point(**kwargs)
        return result, result["completed"], []
    if kind == "fig10":
        from repro.experiments import fig10_topo
        result = fig10_topo.compute_point(**kwargs)
        return result, result["completed"], []
    if kind == "storm":
        return _run_storm(kwargs)
    if kind == "oltp":
        return _run_oltp(kwargs)
    raise ValueError(f"unknown point kind {kind!r}")


def _run_storm(kwargs: dict) -> Tuple[dict, int, List[str]]:
    from repro.experiments import fig10_topo
    from repro.fault.session import ChaosSession
    from repro.recovery.session import RecoverySession
    seed = kwargs["seed"]
    horizon = kwargs["warmup_ns"] + kwargs["window_ns"]
    with ChaosSession(seed=seed, horizon_ns=horizon) as chaos, \
            RecoverySession(seed=seed) as recovery:
        result = fig10_topo.compute_point(**kwargs)
    violations = chaos.audit_kernels()
    violations += [f"recovery {v}" for v in recovery.audit_violations()]
    result["storm"] = {
        "injections": chaos.total_injections,
        "log_sha256": _sha256(chaos.render_log()),
        "events_sha256": _sha256("\n".join(recovery.event_log())),
        "violations": len(violations)}
    return result, result["completed"], violations


def _run_oltp(kwargs: dict) -> Tuple[dict, int, List[str]]:
    from repro.apps.oltp import params_for, run_oltp
    params = dataclasses.replace(
        params_for(kwargs["config"], kwargs["storage"],
                   kwargs["concurrency"], scale=kwargs["scale"]),
        warmup_ns=kwargs["warmup_ns"], seed=kwargs["seed"])
    result = run_oltp(params)
    point = {"operations": result.operations,
             "throughput_ops_min": result.throughput_ops_min,
             "mean_latency_ns": result.mean_latency_ns,
             "idle_fraction": result.idle_fraction,
             "kernel_fraction": result.kernel_fraction,
             "user_fraction": result.user_fraction,
             "blocks": {block.name: ns
                        for block, ns in result.breakdown.ns.items()}}
    return point, result.operations, []


def check_result(spec: dict, result: dict) -> List[str]:
    """Sanity checks that hold for every seed (the golden digests pin
    exact values only for the seeds recorded in ``golden.json``)."""
    kind = spec["kind"]
    problems = []
    if kind in ("fig5", "fig11"):
        if result["iterations"] != spec["kwargs"]["iters"]:
            problems.append("iteration count differs from the request")
        if not result["mean_ns"] > 0:
            problems.append("non-positive mean latency")
    elif kind in ("fig9", "fig10", "storm"):
        # a short window may see no arrival at all, and saturated baselines
        # on deep graphs may complete nothing in it
        if not 0 <= result["completed"] <= result["offered_seen"]:
            problems.append("more requests completed than offered")
        if not 0.0 <= result["goodput_ratio"] <= 1.0:
            problems.append("goodput ratio outside [0, 1]")
    elif kind == "oltp":
        if result["operations"] <= 0:
            problems.append("no operation completed")
    return problems


def digest(result) -> str:
    """sha256 of a result's canonical JSON (floats round-trip exactly)."""
    return _sha256(json.dumps(result, sort_keys=True,
                              separators=(",", ":")))


def workload_digest(point_digests: Dict[str, str], order: List[str]) -> str:
    """One digest over a workload's per-point digests, in list order."""
    return _sha256("\n".join(f"{pid} {point_digests[pid]}"
                             for pid in order))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
