"""Figure 1: time breakdown of the OLTP web application stack — the
paper's motivating figure (Linux vs Ideal, in-memory DB, and the IPC
overhead between them)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import units
from repro.apps.oltp import IDEAL, IN_MEMORY, LINUX, params_for, run_oltp


@dataclass
class Fig1Row:
    config: str
    #: closed-loop cycle time per operation (concurrency / throughput) —
    #: the "average operation latency" of a loaded server
    mean_latency_ms: float
    #: server-side service latency of one operation (no client wait)
    service_latency_ms: float
    user_pct: float
    kernel_pct: float
    idle_pct: float


@dataclass
class Fig1Result:
    linux: Fig1Row
    ideal: Fig1Row

    @property
    def ipc_overhead_factor(self) -> float:
        """The '1.92x' annotation: Ideal's speedup from dropping IPC."""
        return self.linux.mean_latency_ms / self.ideal.mean_latency_ms


def _row(config: str, concurrency: int, scale: float) -> Fig1Row:
    params = params_for(config, IN_MEMORY, concurrency, scale=scale)
    result = run_oltp(params)
    ops_per_ns = result.throughput_ops_min / units.MINUTE
    cycle_ms = concurrency / ops_per_ns / units.MS if ops_per_ns else 0.0
    return Fig1Row(config,
                   cycle_ms,
                   result.mean_latency_ns / units.MS,
                   result.user_fraction * 100,
                   result.kernel_fraction * 100,
                   result.idle_fraction * 100)


# -- point decomposition (one OLTP run per config) ---------------------------

def points(*, concurrency: int = 256, scale: float = 1.0) -> list:
    from repro.runner.points import PointSpec
    return [PointSpec("fig1", __name__,
                      {"config": config, "concurrency": concurrency,
                       "scale": scale})
            for config in (LINUX, IDEAL)]


def compute_point(*, config: str, concurrency: int, scale: float) -> dict:
    import dataclasses
    return dataclasses.asdict(_row(config, concurrency, scale))


def fold(specs, results) -> Fig1Result:
    rows = {row["config"]: Fig1Row(**row) for row in results}
    return Fig1Result(linux=rows[LINUX], ideal=rows[IDEAL])


def assemble(specs, results) -> str:
    return render(fold(specs, results))


def render(result: Fig1Result) -> str:
    lines = [
        "Figure 1: Time breakdown of the OLTP web application stack",
        "",
        f"{'config':<16}{'latency':>10}{'user%':>8}{'kernel%':>9}"
        f"{'idle%':>8}",
        "-" * 52,
    ]
    for row in (result.linux, result.ideal):
        lines.append(f"{row.config:<16}{row.mean_latency_ms:>8.2f}ms"
                     f"{row.user_pct:>8.1f}{row.kernel_pct:>9.1f}"
                     f"{row.idle_pct:>8.1f}")
    lines += [
        "",
        f"IPC overhead: Ideal runs {result.ipc_overhead_factor:.2f}x "
        "faster (paper: 1.92x; paper breakdown Linux 51/23/24 vs "
        "Ideal 81/16/1)",
    ]
    return "\n".join(lines)


from repro.runner.registry import register_figure


@register_figure
class Fig1Driver:
    """Figure 1 under the unified experiment-driver API."""

    name = "fig1"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        return {"concurrency": 64 if quick else 256,
                "scale": 0.3 if quick else 1.0}
