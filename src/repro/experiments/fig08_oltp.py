"""Figure 8: throughput of the dynamic web server — Linux vs dIPC vs
Ideal, on-disk and in-memory, 4 to 512 threads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.apps.oltp import (CONFIGS, DIPC, IDEAL, IN_MEMORY, LINUX,
                             ON_DISK, params_for, run_oltp)
from repro.sim.stats import geometric_mean

DEFAULT_CONCURRENCIES = (4, 16, 64, 256, 512)

#: the paper's speedup annotations over Linux, for EXPERIMENTS.md
PAPER_SPEEDUPS = {
    (ON_DISK, DIPC): {4: 2.23, 16: 3.18, 64: 1.80, 256: 1.39, 512: 1.11},
    (ON_DISK, IDEAL): {4: 2.26, 16: 3.19, 64: 1.84, 256: 1.40, 512: 1.12},
    (IN_MEMORY, DIPC): {4: 2.42, 16: 5.12, 64: 2.62, 256: 1.81, 512: 1.17},
    (IN_MEMORY, IDEAL): {4: 2.49, 16: 5.22, 64: 2.68, 256: 1.92,
                         512: 1.17},
}


@dataclass
class Fig8Result:
    storage: str
    throughput: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def speedup(self, config: str, concurrency: int) -> float:
        return (self.throughput[config][concurrency]
                / self.throughput[LINUX][concurrency])

    def dipc_efficiency(self, concurrency: int) -> float:
        """dIPC throughput as a fraction of Ideal (paper: > 94%)."""
        return (self.throughput[DIPC][concurrency]
                / self.throughput[IDEAL][concurrency])

    def mean_dipc_speedup(self) -> float:
        return geometric_mean(
            self.speedup(DIPC, c) for c in self.throughput[DIPC])


# -- point decomposition -----------------------------------------------------
# One OLTP simulation per (storage, config, concurrency) triple: the
# dominant cost of a full sweep, and embarrassingly parallel.

def points(*, concurrencies=DEFAULT_CONCURRENCIES, scale: float = 1.0,
           storages=(ON_DISK, IN_MEMORY)) -> list:
    from repro.runner.points import PointSpec
    return [PointSpec("fig8", __name__,
                      {"storage": storage, "config": config,
                       "concurrency": concurrency, "scale": scale})
            for storage in storages
            for config in CONFIGS
            for concurrency in concurrencies]


def compute_point(*, storage: str, config: str, concurrency: int,
                  scale: float) -> dict:
    result = run_oltp(params_for(config, storage, concurrency,
                                 scale=scale))
    return {"throughput_ops_min": result.throughput_ops_min}


def fold(specs, results) -> Dict[str, Fig8Result]:
    """One :class:`Fig8Result` per storage, in spec order."""
    by_storage: Dict[str, Fig8Result] = {}
    for spec, result in zip(specs, results):
        kwargs = spec.kwargs
        storage = kwargs["storage"]
        if storage not in by_storage:
            by_storage[storage] = Fig8Result(storage)
        table = by_storage[storage].throughput.setdefault(
            kwargs["config"], {})
        table[kwargs["concurrency"]] = result["throughput_ops_min"]
    return by_storage


def assemble(specs, results) -> str:
    return "\n\n".join(render(result)
                       for result in fold(specs, results).values())


def render(result: Fig8Result) -> str:
    concurrencies = sorted(result.throughput[LINUX])
    title = ("With on-disk DB" if result.storage == ON_DISK
             else "With in-memory DB")
    lines = [
        f"Figure 8 ({title}): throughput [ops/min], higher is better",
        "",
        f"{'conc.':>6} {'Linux':>10} {'dIPC':>10} {'Ideal':>10} "
        f"{'dIPC x':>8} {'Ideal x':>8} {'paper dIPC x':>13} "
        f"{'dIPC/Ideal':>11}",
        "-" * 74,
    ]
    for c in concurrencies:
        paper = PAPER_SPEEDUPS[(result.storage, DIPC)].get(c)
        paper_str = f"{paper:.2f}x" if paper else "-"
        lines.append(
            f"{c:>6} {result.throughput[LINUX][c]:>10.0f} "
            f"{result.throughput[DIPC][c]:>10.0f} "
            f"{result.throughput[IDEAL][c]:>10.0f} "
            f"{result.speedup(DIPC, c):>7.2f}x "
            f"{result.speedup(IDEAL, c):>7.2f}x {paper_str:>13} "
            f"{result.dipc_efficiency(c):>10.1%}")
    lines += [
        "",
        f"geometric-mean dIPC speedup: {result.mean_dipc_speedup():.2f}x "
        "(paper overall average: 2.13x)",
    ]
    return "\n".join(lines)


from repro.runner.registry import register_figure


@register_figure
class Fig8Driver:
    """Figure 8 under the unified experiment-driver API."""

    name = "fig8"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        concurrencies = (4, 16, 64) if quick else DEFAULT_CONCURRENCIES
        return {"concurrencies": concurrencies,
                "scale": 0.3 if quick else 1.0}
