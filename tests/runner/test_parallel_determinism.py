"""Byte-identity of the sharded runner vs the in-process run.

These are the determinism pins for ``--jobs``: a parallel or cached run
must render the exact same text as the default in-process run.
"""

import re

import pytest

from repro.experiments.__main__ import main
from repro.runner import registry
from repro.runner.cache import ResultCache
from repro.runner.pool import run_points


def _sharded(name, quick, jobs, cache=None):
    specs = registry.specs_for(name, quick)
    results, stats = run_points(specs, jobs=jobs, cache=cache)
    return registry.assemble(name, specs, results), stats


_NOISE = re.compile(r"^(\[\w+ took [0-9.]+s\]|runner:)")


def _stdout(capsys, argv):
    """``main(argv)``'s stdout lines, and how many were ``runner:`` lines,
    with the ``took``/``runner:`` lines dropped."""
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return ([line for line in lines if not _NOISE.match(line)],
            sum(line.startswith("runner:") for line in lines))


@pytest.mark.parametrize("name", ["table1", "fig2", "fig5", "fig6", "fig7",
                                  "extras", "ablation", "microbench"])
def test_run_quick_matches_jobs2(name, capsys, tmp_path):
    in_process, quiet = _stdout(capsys, ["run", name, "--quick"])
    sharded, summaries = _stdout(
        capsys, ["run", name, "--quick", "--jobs", "2", "--no-cache",
                 "--cache-dir", str(tmp_path)])
    assert sharded == in_process
    # the runner: line prints under --jobs only
    assert (quiet, summaries) == (0, 1)


def test_warm_cache_render_is_identical_and_skips_everything(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cold, cold_stats = _sharded("fig2", True, jobs=1, cache=cache)
    warm, warm_stats = _sharded("fig2", True, jobs=1, cache=cache)
    assert warm == cold
    assert cold_stats.computed == cold_stats.total
    assert warm_stats.skipped_fraction >= 0.9


def test_chaos_under_runner_matches_serial():
    from repro.fault import chaos
    serial = chaos.run_chaos(11, 2, quick=True, verify=False)
    sharded = chaos.run_chaos(11, 2, quick=True, verify=False, jobs=2)
    assert sharded.log_text == serial.log_text
    assert chaos.render(sharded) == chaos.render(serial)
    assert sharded.ok and serial.ok
