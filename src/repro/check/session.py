"""Session-scoped concurrency checking.

``CheckSession`` is a :class:`repro.session.Session` with an ``attach``
hook, like :class:`repro.fault.session.ChaosSession`: while a session
is active, every :class:`repro.kernel.Kernel` constructed anywhere
inside it gets

* the session's :class:`~repro.check.controller.ScheduleController`
  installed on its engine (ready-queue picks and same-timestamp event
  tie-breaks become recorded decision points),
* deadlock detection armed (an all-blocked drain raises
  :class:`~repro.errors.DeadlockError` instead of returning silently),
* optionally a deterministic fault storm (``chaos=True``), seeded per
  kernel exactly like ChaosSession — or, when replaying/shrinking, an
  explicit per-kernel plan override.

One controller spans all kernels built inside the session: workloads
construct kernels in a deterministic order, so a single decision stream
replays exactly.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro import units
from repro.check.controller import ScheduleController
from repro.check.deadlock import install_detector
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.fault.session import (DEFAULT_PROCESSES,
                                 DEFAULT_THREAD_PREFIXES)
from repro.session import Session


class CheckSession(Session):
    """Instrument every kernel built inside ``with`` for checking."""

    def __init__(self, strategy, *, chaos: bool = False,
                 storm_seed: int = 7,
                 processes: Sequence[str] = DEFAULT_PROCESSES,
                 thread_prefixes: Sequence[str]
                 = DEFAULT_THREAD_PREFIXES,
                 horizon_ns: float = 4.0 * units.MS,
                 min_rules: int = 2, max_rules: int = 4,
                 plan_overrides: Optional[List[list]] = None):
        self.controller = ScheduleController(strategy)
        self.chaos = chaos
        self.storm_seed = storm_seed
        self.processes = tuple(processes)
        self.thread_prefixes = tuple(thread_prefixes)
        self.horizon_ns = horizon_ns
        self.min_rules = min_rules
        self.max_rules = max_rules
        #: explicit per-kernel rule lists (``FaultRule.to_dict`` rows);
        #: set when replaying a bundle or probing a shrink candidate
        self.plan_overrides = plan_overrides
        self.kernels: List = []
        self.injectors: List[FaultInjector] = []

    # -- wiring ------------------------------------------------------------

    def attach(self, kernel) -> None:
        index = len(self.kernels)
        self.kernels.append(kernel)
        kernel.engine.controller = self.controller
        install_detector(kernel)
        plan = self._plan_for(index)
        if plan is not None:
            injector = FaultInjector(kernel, plan, storm=index)
            injector.arm()
            self.injectors.append(injector)

    def _plan_for(self, index: int) -> Optional[FaultPlan]:
        if self.plan_overrides is not None:
            if index < len(self.plan_overrides):
                return FaultPlan.from_list(self.plan_overrides[index])
            return None
        if not self.chaos:
            return None
        rng = random.Random(self.storm_seed * 1_009 + index)
        return FaultPlan.storm(
            rng, processes=self.processes,
            thread_prefixes=self.thread_prefixes, channels=(),
            horizon_ns=self.horizon_ns,
            min_rules=self.min_rules, max_rules=self.max_rules)

    # -- results -----------------------------------------------------------

    def plans(self) -> List[list]:
        """The armed fault plans, one JSON-ready rule list per stormed
        kernel, in build order (captured into repro bundles)."""
        return [injector.plan.to_list() for injector in self.injectors]

    def audit_findings(self) -> List[str]:
        """Tear down and audit every kernel; returns A1–A9 violations.

        Mirrors ``ChaosSession.audit_kernels``: kill whatever is still
        alive, let the unwind machinery settle, then sweep with the full
        invariant auditor.
        """
        from repro.fault.auditor import InvariantAuditor
        from repro.fault.chaos import ALLOWED_CRASHES
        findings: List[str] = []
        for index, kernel in enumerate(self.kernels):
            for process in list(kernel.processes):
                if process.alive:
                    kernel.kill_process(process)
            kernel.run_all()
            auditor = InvariantAuditor(kernel,
                                       allowed_crashes=ALLOWED_CRASHES)
            findings.extend(f"invariant: kernel {index}: {violation}"
                            for violation in auditor.audit())
        return findings
