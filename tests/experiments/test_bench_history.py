"""The bench results history and the --compare regression gate."""

import json

from repro.experiments import bench


def _entry(**overrides):
    payload = {
        "bench_version": 2, "mode": "quick", "points": 100,
        "cold_serial_s": 50.0, "cold_parallel_s": 25.0,
        "warm_cached_s": 0.5, "engine_events_per_sec": 2_000_000,
        "cpu_count": 4,
    }
    payload.update(overrides)
    return payload


def test_append_history_is_append_only(tmp_path):
    d = str(tmp_path)
    first = bench.append_history(_entry(), "aa", history_dir=d)
    second = bench.append_history(_entry(), "bb", history_dir=d)
    assert first.endswith("0001-aa.json")
    assert second.endswith("0002-bb.json")
    names = [name for name, _payload in bench.history_entries(d)]
    assert names == ["0001-aa.json", "0002-bb.json"]


def test_append_never_overwrites_same_label(tmp_path):
    d = str(tmp_path)
    bench.append_history(_entry(points=1), "run", history_dir=d)
    bench.append_history(_entry(points=2), "run", history_dir=d)
    entries = bench.history_entries(d)
    assert len(entries) == 2
    assert [payload["points"] for _name, payload in entries] == [1, 2]


def test_compare_needs_two_entries(tmp_path):
    d = str(tmp_path)
    assert bench.compare(history_dir=d) == 2
    bench.append_history(_entry(), "only", history_dir=d)
    assert bench.compare(history_dir=d) == 2


def test_compare_clean_when_stable(tmp_path, capsys):
    d = str(tmp_path)
    bench.append_history(_entry(), "base", history_dir=d)
    bench.append_history(_entry(cold_serial_s=51.0), "next",
                         history_dir=d)
    assert bench.compare(history_dir=d) == 0
    assert "no regression" in capsys.readouterr().out


def test_compare_flags_engine_regression(tmp_path, capsys):
    d = str(tmp_path)
    bench.append_history(_entry(), "base", history_dir=d)
    bench.append_history(_entry(engine_events_per_sec=1_500_000),
                         "slow", history_dir=d)
    assert bench.compare(history_dir=d) == 1
    assert "REGRESSION: engine_events_per_sec" in \
        capsys.readouterr().out


def test_compare_flags_serial_time_regression(tmp_path):
    d = str(tmp_path)
    bench.append_history(_entry(), "base", history_dir=d)
    bench.append_history(_entry(cold_serial_s=60.0), "slow",
                         history_dir=d)
    assert bench.compare(history_dir=d) == 1


def test_compare_normalizes_per_point(tmp_path):
    # double the points at double the wall-clock: per-point unchanged,
    # raw seconds alone would have screamed regression
    d = str(tmp_path)
    bench.append_history(_entry(), "base", history_dir=d)
    bench.append_history(
        _entry(points=200, cold_serial_s=100.0, warm_cached_s=1.0),
        "grown", history_dir=d)
    assert bench.compare(history_dir=d) == 0


def test_compare_tolerance_loosens_the_gate(tmp_path):
    d = str(tmp_path)
    bench.append_history(_entry(), "base", history_dir=d)
    bench.append_history(_entry(engine_events_per_sec=1_500_000),
                         "slow", history_dir=d)
    assert bench.compare(history_dir=d, tolerance=0.5) == 0


def test_compare_ignores_sub_epsilon_warm_wobble(tmp_path):
    # 0.1ms/point of warm-cache noise is filesystem, not code
    d = str(tmp_path)
    bench.append_history(_entry(warm_cached_s=0.02, points=100), "base",
                         history_dir=d)
    bench.append_history(_entry(warm_cached_s=0.04, points=100), "next",
                         history_dir=d)
    assert bench.compare(history_dir=d) == 0


def test_compare_ignores_retired_shard_speedup(tmp_path, capsys):
    # entries up to 0003-pr8 carry shard_* keys; newer ones do not
    d = str(tmp_path)
    bench.append_history(_entry(shard_speedup=0.81), "old",
                         history_dir=d)
    bench.append_history(_entry(), "new", history_dir=d)
    assert bench.compare(history_dir=d) == 0
    assert "shard_speedup" not in capsys.readouterr().out


def test_seeded_repo_history_is_loadable():
    entries = bench.history_entries()
    names = [name for name, _payload in entries]
    assert "0001-pr3.json" in names and "0002-pr6.json" in names
    for _name, payload in entries:
        assert json.dumps(payload)  # JSON-clean
        assert payload["points"] > 0
