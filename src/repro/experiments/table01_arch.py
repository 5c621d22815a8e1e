"""Table 1: best-case round-trip domain switch + bulk data communication
across architectures."""

from __future__ import annotations

from typing import List

from repro.arch import ArchResult, table1


# -- point decomposition (analytic: a single point) -------------------------

def points(*, data_size: int = 1024) -> list:
    from repro.runner.points import PointSpec
    return [PointSpec("table1", __name__, {"data_size": data_size})]


def compute_point(*, data_size: int) -> list:
    import dataclasses
    return [dataclasses.asdict(row) for row in table1(data_size=data_size)]


def assemble(specs, results) -> str:
    return render([ArchResult(**row) for row in results[0]])


def render(rows: List[ArchResult]) -> str:
    lines = [
        "Table 1: best-case round-trip domain switch (S) and bulk data "
        "communication (D)",
        "",
        f"{'architecture':<18}{'S [ns]':>9}  {'S: operations':<46}"
        f"{'D [ns/KB]':>10}  D: operations",
        "-" * 118,
    ]
    for row in rows:
        lines.append(f"{row.name:<18}{row.switch_ns:>9.1f}  "
                     f"{row.switch_ops:<46}{row.data_ns_per_kb:>10.1f}  "
                     f"{row.data_ops}")
    return "\n".join(lines)


from repro.runner.registry import register_figure


@register_figure
class Table1Driver:
    """Table 1 under the unified experiment-driver API."""

    name = "table1"
    points = staticmethod(points)
    compute_point = staticmethod(compute_point)
    assemble = staticmethod(assemble)

    @staticmethod
    def cli_params(quick: bool) -> dict:
        return {}
