"""Figure 9 (repo extension): latency under load for every primitive.

The paper's figures measure *unloaded* round-trip cost; this figure
puts every registered primitive (the paper's five plus the bracketing
mechanisms dpti/odipc) behind the ``repro.load`` harness and sweeps
offered load:

* **open loop** — Poisson arrivals at each rung of ``open_rungs``
  (total kilo-requests/second) through a bounded request queue with
  the *shed* policy; the saturation knee is the highest rung the
  primitive still serves with goodput ≥ :data:`KNEE_GOODPUT`;
* **closed loop** — ``closed_clients`` concurrent clients with 10 µs
  mean think time through a blocking admission gate.

Every (primitive, rung) pair is one :class:`~repro.runner.points.
PointSpec`, so ``--jobs N`` fans the sweep across worker processes
and the result cache reuses unchanged points — byte-identical to the
in-process run, like every other figure.

The headline the paper predicts (§7, Figure 5's 64×/8.9× round-trip
advantages compounding under load): dIPC has no service-thread pool to
saturate — callers migrate into the server process and the only limit
is CPU capacity — so its knee sits strictly above every baseline's.
``assemble`` checks exactly that and prints PASS/FAIL.
"""

from __future__ import annotations

from typing import Dict, List

from repro import primitives, units
from repro.load.transports import PRIMITIVES

#: open-loop offered-load ladder, kilo-requests/second
OPEN_RUNGS = (400.0, 800.0, 1600.0, 3200.0, 6400.0)
QUICK_OPEN_RUNGS = (400.0, 1600.0, 3200.0, 6400.0)

#: closed-loop client-population sweep
CLOSED_CLIENTS = (4, 16, 48)
QUICK_CLOSED_CLIENTS = (4, 16)

#: a primitive "still keeps up" at a rung while goodput ≥ this
KNEE_GOODPUT = 0.90

#: closed loop: mean exponential think time between a client's requests
CLOSED_THINK_NS = 10_000.0


def points(*, open_rungs=OPEN_RUNGS, closed_clients=CLOSED_CLIENTS,
           window_ns: float = 2.0 * units.MS,
           warmup_ns: float = 1.0 * units.MS, seed: int = 42) -> list:
    from repro.runner.points import PointSpec
    specs = []
    for primitive in PRIMITIVES:
        for kops in open_rungs:
            specs.append(PointSpec("fig9", __name__, {
                "primitive": primitive, "mode": "open",
                "policy": "shed", "offered_kops": float(kops),
                "window_ns": window_ns, "warmup_ns": warmup_ns,
                "seed": seed}))
    for primitive in PRIMITIVES:
        for n_clients in closed_clients:
            specs.append(PointSpec("fig9", __name__, {
                "primitive": primitive, "mode": "closed",
                "policy": "block", "n_clients": n_clients,
                "queue_depth": 16, "think_ns": CLOSED_THINK_NS,
                "window_ns": window_ns, "warmup_ns": warmup_ns,
                "seed": seed}))
    return specs


def compute_point(**kwargs) -> dict:
    from repro.load import LoadParams, run_load_point
    return run_load_point(LoadParams(**kwargs)).to_point()


def knees(open_points: Dict[str, List[dict]]) -> Dict[str, float]:
    """Highest offered rung per primitive with goodput ≥ the threshold
    (0.0 when even the lowest rung overloads it)."""
    out = {}
    for primitive, rows in open_points.items():
        knee = 0.0
        for row in rows:
            if row["goodput_ratio"] >= KNEE_GOODPUT:
                knee = max(knee, row["offered_kops"])
        out[primitive] = knee
    return out


def verdict_lines(knee_by: Dict[str, float], *,
                  baseline_set=None) -> List[str]:
    """PASS/FAIL lines: every *subject* (primitive not in the baseline
    set) must saturate strictly above the best baseline knee.

    ``baseline_set`` defaults to the registry's untrusted primitives
    restricted to what was actually swept, so the verdict stays correct
    as mechanisms are added — new untrusted ones raise the bar, new
    trusted ones are judged against it.
    """
    if baseline_set is None:
        baseline_set = tuple(p for p in primitives.baseline_names()
                             if p in knee_by)
    subjects = [p for p in knee_by if p not in baseline_set]
    best_baseline = max(knee_by[p] for p in baseline_set)
    lines = []
    for subject in subjects:
        verdict = "PASS" if knee_by[subject] > best_baseline else "FAIL"
        label = _DISPLAY.get(subject, subject)
        lines.append(
            f"{label} saturates above every baseline: {verdict} "
            f"({subject} {knee_by[subject]:.0f} kops vs best baseline "
            f"{best_baseline:.0f} kops)")
    return lines


#: pretty names for verdict headlines
_DISPLAY = {"dipc": "dIPC", "odipc": "odIPC"}


def assemble(specs, results, *, baseline_set=None) -> str:
    # fig9's headline is about *pool* saturation: the baselines are the
    # primitives that drain requests through a worker pool, and every
    # in-process mechanism (dIPC, dpti, odipc) is a subject that must
    # knee above them.  fig12 reuses verdict_lines with its generic
    # untrusted default instead, where dpti *is* the swept baseline.
    if baseline_set is None:
        baseline_set = primitives.names(has_worker_threads=True)
    open_points: Dict[str, List[dict]] = {p: [] for p in PRIMITIVES}
    closed_points: Dict[str, List[dict]] = {p: [] for p in PRIMITIVES}
    for spec, result in zip(specs, results):
        bucket = open_points if spec.kwargs["mode"] == "open" \
            else closed_points
        bucket[spec.kwargs["primitive"]].append(result)

    lines = [
        "Figure 9: latency under load "
        "(open loop, Poisson arrivals, shed policy)",
    ]
    for primitive in PRIMITIVES:
        lines += [
            "",
            f"-- {primitive} " + "-" * (62 - len(primitive)),
            f"{'offered[kops]':>14}{'tput[kops]':>12}{'goodput':>9}"
            f"{'shed':>7}{'p50[us]':>9}{'p95[us]':>9}{'p99[us]':>9}"
            f"{'p999[us]':>10}",
        ]
        for row in open_points[primitive]:
            lines.append(
                f"{row['offered_kops']:>14.0f}"
                f"{row['throughput_kops']:>12.1f}"
                f"{row['goodput_ratio']:>9.2f}"
                f"{row['shed']:>7d}"
                f"{row['p50_ns'] / 1e3:>9.1f}"
                f"{row['p95_ns'] / 1e3:>9.1f}"
                f"{row['p99_ns'] / 1e3:>9.1f}"
                f"{row['p999_ns'] / 1e3:>10.1f}")

    knee_by = knees(open_points)
    lines += [
        "",
        f"saturation knees (highest offered load with goodput >= "
        f"{KNEE_GOODPUT:.2f}):",
    ]
    for primitive in PRIMITIVES:
        lines.append(f"  {primitive:<8}{knee_by[primitive]:>7.0f} kops")
    lines += verdict_lines(knee_by, baseline_set=baseline_set)

    lines += [
        "",
        f"Closed loop (N clients, "
        f"{CLOSED_THINK_NS / 1e3:.0f}us think, block policy)",
        f"{'primitive':<10}{'clients':>8}{'tput[kops]':>12}"
        f"{'p50[us]':>9}{'p99[us]':>9}{'p999[us]':>10}",
        "-" * 58,
    ]
    for primitive in PRIMITIVES:
        for row in closed_points[primitive]:
            lines.append(
                f"{primitive:<10}{row['n_clients']:>8d}"
                f"{row['throughput_kops']:>12.1f}"
                f"{row['p50_ns'] / 1e3:>9.1f}"
                f"{row['p99_ns'] / 1e3:>9.1f}"
                f"{row['p999_ns'] / 1e3:>10.1f}")
    return "\n".join(lines)


from repro.runner.registry import register_figure  # noqa: E402


@register_figure
class Fig9Driver:
    """The latency-under-load sweep (tentpole of PR 4)."""

    name = "fig9"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        if quick:
            return {"open_rungs": QUICK_OPEN_RUNGS,
                    "closed_clients": QUICK_CLOSED_CLIENTS,
                    "window_ns": 1.0 * units.MS,
                    "warmup_ns": 0.5 * units.MS}
        return {"open_rungs": OPEN_RUNGS,
                "closed_clients": CLOSED_CLIENTS,
                "window_ns": 2.0 * units.MS,
                "warmup_ns": 1.0 * units.MS}
