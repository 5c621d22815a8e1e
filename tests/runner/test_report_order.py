"""REPORT.md section ordering and header determinism."""

import hashlib
import re

import pytest

from repro.experiments import report
from repro.runner import registry


def test_section_order_is_the_canonical_tuple():
    assert report.SECTION_ORDER == (
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


@pytest.mark.parametrize("quick,count,pin", [
    (True, 327, "5294f0f2a6de8327"),
    (False, 870, "6c0387ecbd571797"),
], ids=["quick", "full"])
def test_report_points_are_pinned(quick, count, pin):
    """The points REPORT.md computes, in order: every section is its
    figure's registered parameter table for the mode, so the report and
    ``run <name>`` compute the same points. The hashes predate the
    report's use of those tables, so they also pin that the switch moved
    no report point."""
    sections = report._section_specs(quick)
    assert [name for _t, name, _s in sections] == \
        [name for _t, name in report.SECTION_ORDER]
    for _title, name, specs in sections:
        assert specs == registry.specs_for(name, quick)
    flat = [spec for _t, _n, specs in sections for spec in specs]
    digest = hashlib.sha256(
        "\n".join(spec.payload() for spec in flat).encode()).hexdigest()
    assert (len(flat), digest[:16]) == (count, pin)


def test_generated_report_is_deterministic_and_ordered(tmp_path,
                                                       monkeypatch):
    # a cheap two-section report exercises the full generate() path
    monkeypatch.setattr(report, "SECTION_ORDER",
                        (("Table 1", "table1"),
                         ("In-text extras", "extras")))
    first = report.generate(str(tmp_path / "a.md"), quick=True)
    second = report.generate(str(tmp_path / "b.md"), quick=True)
    text_a = open(first).read()
    text_b = open(second).read()
    # byte-identical modulo the self-referencing meta path
    assert text_a.replace("a.meta.json", "b.meta.json") == text_b
    headings = re.findall(r"^## (.+)$", text_a, flags=re.M)
    assert headings == ["Table 1", "In-text extras"]
    # no wall-clock leaks into the report body
    assert "s of" not in text_a
    assert not re.search(r"\d{4}-\d{2}-\d{2}T", text_a)
