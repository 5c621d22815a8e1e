"""Generate a single markdown report with every reproduced table/figure.

``python -m repro.experiments report`` writes ``REPORT.md`` in the
current directory (or pass a path programmatically via :func:`generate`),
plus a ``REPORT.meta.json`` sidecar with the full run metadata. The
report header embeds the metadata summary (commit, cost-constants hash,
quick/full mode) so reports from different PRs are comparable at a
glance.

Each section is one registered figure computed with its own parameter
table (``registry.specs_for(name, quick)``), so a section body is
byte-identical to ``run <name>`` in the same mode and shares its cache
entries. The report body is a pure function of those tables and the
cost model — no timestamps, no wall-clock — so an in-process run, a
``--jobs N`` run and a warm-cache run of the same tree produce
byte-identical files (pinned by ``tests/runner`` and diffed in CI).
Sections appear in :data:`SECTION_ORDER`, the paper's presentation
order; results are merged back by position regardless of which worker
finished first.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.trace import meta as trace_meta

#: canonical section order: (markdown title, registry/experiment name).
#: This tuple — not dict insertion order, not completion order — is the
#: single source of section ordering (pinned by
#: ``tests/runner/test_report_order.py``).
SECTION_ORDER: Tuple[Tuple[str, str], ...] = (
    ("Table 1", "table1"),
    ("Figure 2", "fig2"),
    ("Figure 5", "fig5"),
    ("Figure 6", "fig6"),
    ("Figure 7", "fig7"),
    ("Figure 1", "fig1"),
    ("Figure 8", "fig8"),
    ("Figure 9", "fig9"),
    ("Figure 10", "fig10"),
    ("Figure 11", "fig11"),
    ("Figure 12", "fig12"),
    ("In-text extras", "extras"),
)


def _section_specs(quick: bool) -> List[tuple]:
    """``(title, name, specs)`` per section, in canonical order; each
    section's points are exactly those of ``run <name>`` in that mode."""
    from repro.runner import registry
    return [(title, name, registry.specs_for(name, quick))
            for title, name in SECTION_ORDER]


def generate(path: str = "REPORT.md", *, quick: bool = True,
             jobs: int = 0, cache=None, checkpoint=None,
             resume: bool = False, timeout_s=None,
             retries: int = 2) -> str:
    """Run every experiment and write a markdown report; returns path.

    ``jobs > 1`` fans the underlying simulation points out across a
    process pool, and any ``jobs > 0`` (an explicit ``--jobs``) prints
    the ``runner:`` summary line, as ``run <name>`` does; ``cache`` (a
    ``repro.runner.cache.ResultCache``) reuses previously computed
    points. ``checkpoint``/``resume`` journal per-point progress so an
    interrupted generation can be resumed (see
    ``repro.recovery.checkpoint``). All of these are output-invariant:
    the written file is byte-identical to the default in-process run.
    """
    from repro.runner import registry
    from repro.runner.pool import run_points, summary

    section_specs = _section_specs(quick)
    flat = [spec for _title, _name, specs in section_specs
            for spec in specs]
    flat_results, stats = run_points(flat, jobs=jobs, cache=cache,
                                     checkpoint=checkpoint,
                                     resume=resume, timeout_s=timeout_s,
                                     retries=retries)

    sections = []
    cursor = 0
    for title, name, specs in section_specs:
        results = flat_results[cursor:cursor + len(specs)]
        cursor += len(specs)
        body = registry.assemble(name, specs, results)
        sections.append(f"## {title}\n\n```\n{body}\n```\n")

    meta = trace_meta.collect_meta(
        experiment="report", quick=quick,
        params={name: registry.cli_params(name, quick)
                for _title, name in SECTION_ORDER})
    meta_path = (path[:-3] if path.endswith(".md") else path) + ".meta.json"
    trace_meta.write_meta(meta_path, meta)
    # the header must stay deterministic (no timestamps, no elapsed
    # time): CI byte-compares in-process vs parallel vs cached reports.
    # timestamp/platform live in the meta.json sidecar.
    sha = meta.get("git_sha", "unknown")
    if sha not in ("", "unknown"):
        dirty = sha.endswith("-dirty")
        sha = sha.split("-", 1)[0][:12] + ("-dirty" if dirty else "")
    header = (
        "# dIPC reproduction report\n\n"
        "Auto-generated by `python -m repro.experiments report` "
        f"({'quick' if quick else 'full'} mode).\n"
        "See EXPERIMENTS.md for the paper-vs-measured discussion.\n\n"
        f"> commit {sha} · costs {meta.get('constants_hash', '?')} · "
        f"python {meta.get('python', '?')}\n"
        f"> full metadata: `{meta_path}`\n\n")
    with open(path, "w") as handle:
        handle.write(header + "\n".join(sections))
    if jobs > 0:
        print(summary(stats))
    return path
