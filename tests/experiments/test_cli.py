"""Tests for the experiments command-line interface."""

import pytest

from repro.experiments.__main__ import DEFAULT_SET, EXPERIMENTS, main
from repro.runner import registry


def test_runner_registry_covers_every_artifact():
    assert {"table1", "fig1", "fig2", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig12", "extras", "ablation",
            "microbench", "report", "chaos"} == set(EXPERIMENTS)
    # every name but the report and the chaos smoke is a registered
    # figure driver, which is how `run <name>` computes it
    assert set(EXPERIMENTS) - {"report", "chaos"} == \
        set(registry.SUPPORTED)


def test_default_set_excludes_report_chaos_and_microbench():
    assert "report" not in DEFAULT_SET
    assert "chaos" not in DEFAULT_SET
    assert "microbench" not in DEFAULT_SET
    assert "fig5" in DEFAULT_SET
    assert "fig9" in DEFAULT_SET


def test_unknown_name_is_an_error(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_unknown_name_under_run_verb_is_an_error(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_runs_cheap_experiments(capsys):
    assert main(["table1", "extras", "ablation", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "CODOMs" in out
    assert "setjmp" in out
    assert "tls-optimized" in out


def test_cli_runs_fig5_quick(capsys):
    assert main(["fig5", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "64.12x" in out
    assert "dipc_proc_high" in out


def test_cli_run_verb_matches_bare_form(capsys):
    assert main(["run", "table1"]) == 0
    run_out = capsys.readouterr().out
    assert main(["table1"]) == 0
    bare_out = capsys.readouterr().out
    strip = [line for line in run_out.splitlines()
             if not line.startswith("[")]
    assert strip == [line for line in bare_out.splitlines()
                     if not line.startswith("[")]


def test_cli_accepts_zero_padded_names(capsys):
    assert main(["fig05", "--quick"]) == 0
    assert "dipc_proc_high" in capsys.readouterr().out


def test_cli_accepts_fig09_load_alias():
    from repro.experiments.__main__ import _normalize
    assert _normalize("fig09_load") == "fig9"
    assert _normalize("fig9_load") == "fig9"
    assert _normalize("fig09") == "fig9"


def test_cli_chaos_writes_log_and_verifies(tmp_path, capsys):
    assert main(["chaos", "--seed", "3", "--storms", "1", "--quick",
                 "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "byte-identical injection logs" in captured.out
    assert "all invariants held" in captured.out
    assert "deprecated" in captured.err
    log = (tmp_path / "chaos.log").read_text()
    assert log.startswith("# chaos seed=3 storms=1 quick=1\n")


def test_cli_run_chaos_takes_the_seed(capsys):
    assert main(["run", "chaos", "--quick", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "chaos: seed=3 storms=2" in out
    assert "chaos: seed=7" not in out


def test_cli_trace_alias_is_gone(capsys):
    # ``trace <name>`` was an alias of ``run <name> --trace``
    assert main(["trace", "fig05"]) == 2
    assert "unknown experiment 'trace'" in capsys.readouterr().err


def test_cli_bench_verb_is_gone(capsys):
    # host time is measured by layerbench/ alone
    assert main(["bench"]) == 2
    assert "unknown experiment 'bench'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--compare"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --compare" in capsys.readouterr().err


def test_cli_trace_flag_records_one_experiment_only(capsys):
    assert main(["run", "table1", "extras", "--trace"]) == 2
    assert "one experiment" in capsys.readouterr().err


def test_cli_trace_fig5_writes_artifacts(tmp_path, capsys):
    import csv
    import json

    assert main(["run", "fig05", "--trace", "--quick",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "perfetto" in out
    assert "dipc.proxy_calls" in out

    with open(tmp_path / "trace.json") as handle:
        trace = json.load(handle)
    events = trace["traceEvents"]
    assert events
    span_names = {e["name"] for e in events if e["ph"] == "X"}
    # at least one span per IPC primitive family exercised by fig5
    for expected in ("futex.wait", "pipe.write", "rpc.call", "l4.call"):
        assert expected in span_names, expected
    assert any(name.startswith("dipc:") for name in span_names)

    with open(tmp_path / "spans.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) > 1

    with open(tmp_path / "meta.json") as handle:
        meta = json.load(handle)
    assert meta["experiment"] == "fig5"
    assert meta["mode"] == "quick"
    assert meta["params"]["traced_runs"] > 0


def test_cli_run_trace_flag_writes_artifacts(tmp_path, capsys):
    import json

    assert main(["run", "fig05", "--quick", "--trace",
                 "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    # the canonical spelling is not deprecated
    assert "deprecated" not in captured.err
    assert "perfetto" in captured.out
    with open(tmp_path / "meta.json") as handle:
        assert json.load(handle)["experiment"] == "fig5"


def test_cli_chaos_flag_storms_table1(capsys):
    # table1 builds kernels without load-server processes: the armed
    # storms record deterministic misses and the figure still renders
    assert main(["run", "table1", "--chaos", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "CODOMs" in out
    assert "chaos:" in out
    assert "seed 5" in out
