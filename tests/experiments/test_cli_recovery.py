"""CLI recovery surface: --supervise, --resume, audit exit codes, and
the deprecated-alias warning stream (stderr, never stdout)."""

import glob

import pytest

from repro.experiments.__main__ import main


def test_chaos_audit_violation_exits_nonzero(monkeypatch, capsys):
    from repro.fault.session import ChaosSession
    monkeypatch.setattr(ChaosSession, "audit_kernels",
                        lambda self: ["A1: fake violation"])
    assert main(["run", "table1", "--chaos", "--seed", "5"]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION: A1: fake violation" in out
    assert "chaos audit: FAILED (1 violation(s))" in out


def test_chaos_clean_run_reports_audit_and_exits_zero(capsys):
    assert main(["run", "table1", "--chaos", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "chaos:" in out
    assert "chaos audit: all invariants held" in out


def test_supervise_flag_wraps_the_run_in_a_recovery_session(capsys):
    assert main(["run", "table1", "--supervise", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    # table1 builds no load kernels: 0 supervised, still audited clean
    assert "recovery: 0 kernel(s) supervised" in out
    assert "recovery audit: all invariants held" in out


def test_chaos_alias_warns_on_stderr_not_stdout(tmp_path, capsys):
    assert main(["chaos", "--seed", "3", "--storms", "1", "--quick",
                 "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "deprecated" in captured.err
    assert "deprecated" not in captured.out  # machine-read stdout stays clean


@pytest.mark.parametrize("conflict", ["--chaos", "--supervise", "--trace"])
def test_resume_conflicts_with_in_process_sessions(conflict, capsys):
    assert main(["run", "fig5", "--quick", "--resume", conflict]) == 2
    assert "--resume" in capsys.readouterr().err


def test_resume_with_no_journal_recomputes_everything(tmp_path, capsys):
    # --resume forces the runner path (jobs=1) and uses --cache-dir for
    # the checkpoint journal; with no journal it is a plain sweep
    assert main(["run", "fig5", "--quick", "--resume", "--no-cache",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "runner:" in out
    assert "dipc_proc_high" in out  # the figure still rendered
    # the completed sweep deleted its journal
    assert not glob.glob(str(tmp_path / "checkpoint-*.jsonl"))
