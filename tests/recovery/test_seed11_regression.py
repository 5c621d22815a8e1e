"""The fig10/fig12 seed-11 kill storm, pinned as a tier-1 regression.

Seed 11 is where the random chaos storms first caught the nested
crash-unwind bug: the storm kills the topology root mid-chain, the
supervisor rebuilds the pool while nested dIPC calls are in flight,
and pre-fix the thread popped someone else's KCS frame (the A8
underflow) while the pre-rebuild reclamation audit found stale frames
naming the corpse. Post-fix both figures must come back clean under
exactly that storm; under the ``LEGACY_UNWIND`` switch the historical
failure must still reproduce, so this file keeps honest evidence that
the harness would catch a regression.
"""

from repro.core import kcs
from repro.experiments.__main__ import run_experiment
from repro.fault.session import ChaosSession
from repro.recovery.session import RecoverySession


def _storm(name):
    """Run one figure's quick points in this process under the seed-11
    kill storm with supervision, exactly as ``run <name> --quick --chaos
    --supervise --seed 11`` does; returns every audit violation (chaos
    A1-A10 + recovery)."""
    with ChaosSession(seed=11) as chaos, \
            RecoverySession(seed=11) as recovery:
        run_experiment(name, True)
    violations = list(chaos.audit_kernels())
    violations.extend(f"recovery {v}"
                      for v in recovery.audit_violations())
    return violations


def test_fig10_seed11_supervised_storm_holds_every_invariant():
    assert _storm("fig10") == []


def test_fig12_seed11_supervised_storm_holds_every_invariant():
    assert _storm("fig12") == []


def test_fig10_seed11_reproduces_the_a8_underflow_pre_fix(monkeypatch):
    """The pre-fix failure, kept alive behind LEGACY_UNWIND: without
    kill-time pruning and generation stamps, the same storm must still
    produce the A8 underflow and stale-frame reclamation violations —
    proof the seed-11 gate actually guards the fix."""
    monkeypatch.setattr(kcs, "LEGACY_UNWIND", True)
    violations = _storm("fig10")
    assert violations, "LEGACY_UNWIND no longer reproduces the bug"
    text = "\n".join(violations)
    assert "KCS underflow: return without call" in text
    assert "still references dead process" in text
    # the hardened diagnostics name the thread and the incarnation
    assert "thread load-clients/" in text
    assert "(gen " in text
