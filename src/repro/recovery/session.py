"""Session object that switches the load harness into recovery mode.

A :class:`repro.session.Session` like
:class:`repro.fault.session.ChaosSession`, whose "current session"
:func:`repro.load.harness.run_load_point` consults. While a
:class:`RecoverySession` is active, every load point runs with
supervision and circuit breakers on (``supervise=True``,
``breaker=True``), and the session collects each kernel's
:class:`~repro.recovery.supervisor.Supervisor` so the CLI can print
one summary line and fail the run on any A9 reclamation violation.

Unlike ChaosSession it has no ``attach`` hook, so it never touches
kernels directly — the harness registers the supervisor/transport pair
it builds per point.
"""

from __future__ import annotations

from typing import List, Optional

from repro.recovery.supervisor import RestartPolicy
from repro.session import Session


class RecoverySession(Session):
    """Force supervision + breakers on for every load point inside."""

    def __init__(self, *, seed: int = 7,
                 policy: Optional[RestartPolicy] = None):
        self.seed = seed
        self.policy = policy
        self.supervisors: List = []
        self.transports: List = []

    # -- harness wiring ------------------------------------------------------

    def register(self, supervisor, transport) -> None:
        """Called by the load harness for each supervised kernel."""
        self.supervisors.append(supervisor)
        self.transports.append(transport)

    # -- reporting -----------------------------------------------------------

    @property
    def total_worker_restarts(self) -> int:
        return sum(s.worker_restarts for s in self.supervisors)

    @property
    def total_pool_rebuilds(self) -> int:
        return sum(s.pool_rebuilds for s in self.supervisors)

    @property
    def total_fast_fails(self) -> int:
        return sum(b.fast_fails
                   for t in self.transports for b in t.breakers)

    def audit_violations(self) -> List[str]:
        """Every A9 violation any supervisor recorded, in order."""
        violations: List[str] = []
        for index, supervisor in enumerate(self.supervisors):
            violations.extend(f"kernel {index}: {v}"
                              for v in supervisor.audit_violations)
        return violations

    def event_log(self) -> List[str]:
        """All supervisor events, kernel by kernel (deterministic)."""
        lines: List[str] = []
        for supervisor in self.supervisors:
            lines.extend(supervisor.events)
        return lines

    def summary(self) -> str:
        return (f"recovery: {len(self.supervisors)} kernel(s) supervised, "
                f"{self.total_worker_restarts} worker restart(s), "
                f"{self.total_pool_rebuilds} pool rebuild(s), "
                f"{self.total_fast_fails} breaker fast-fail(s) "
                f"(seed {self.seed})")
