"""Pinned explorer and conformance output.

``layerbench/golden.py`` pins the figures' stdout; these pins cover the
``check`` side: the decision traces and findings of explored schedules,
and the conformance matrix's per-cell ``kill@[...]`` engine event
indices. Each pin is the first 16 hex digits of a sha256, so any change
to the event order, the tie-break decision points or the event count
shows up here. The values hold across Python 3.11/3.12 and across
``PYTHONHASHSEED``s.
"""

import hashlib
import json

import pytest

from repro.check.explore import explore_one


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: (target, schedules, chaos, pin, total decisions, deadlock findings)
EXPLORER_PINS = [
    ("chain4", 10, True, "19c639cd1543f6db", 160, 0),
    ("topostorm", 15, True, "014e0d67daba0f0d", 281, 0),
    ("l4race", 20, False, "d6e50225dd75ca9a", 100, 0),
    ("lostwake", 10, True, "5272d5c708453565", 20, 7),
]


@pytest.mark.parametrize("target,schedules,chaos,pin,decisions,deadlocks",
                         EXPLORER_PINS,
                         ids=[case[0] for case in EXPLORER_PINS])
def test_explored_schedules_match_pin(target, schedules, chaos, pin,
                                      decisions, deadlocks):
    results = [explore_one(target, seed=7, schedule=schedule, chaos=chaos)
               for schedule in range(schedules)]
    assert sum(r["decision_count"] for r in results) == decisions
    assert sum(f.startswith("deadlock:") for r in results
               for f in r["findings"]) == deadlocks
    encoded = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert _digest(encoded) == pin


def test_conformance_quick_stdout_matches_pin(tmp_path, capsys):
    from repro.experiments.__main__ import main
    code = main(["conformance", "--quick", "--seed", "0",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(tmp_path / "bundles")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("conformance: 35 cell(s), 0 failing "
                        "(quick matrix, seed 0)\n")
    assert _digest(out) == "138e1b8ccfd6f1b2"
