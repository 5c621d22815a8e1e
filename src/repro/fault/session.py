"""Session-scoped chaos: fault storms as an orthogonal CLI flag.

``ChaosSession`` is a :class:`repro.session.Session` with an
``attach`` hook: while a session is active (``with ChaosSession(...)``),
every :class:`repro.kernel.Kernel` constructed anywhere inside it gets
a deterministic fault storm armed against it — which is what lets the
experiments CLI compose ``--chaos`` with any figure instead of having
a separate chaos-only workload.

Each kernel's storm is seeded from ``seed`` and the kernel's build
index inside the session, so a ``run fig09_load --chaos --seed 7`` is
exactly reproducible. The default target menu is the load subsystem's
server pool (``load-server`` process, ``load-server/w*`` worker
threads); storms against kernels that never spawn those names record
their misses deterministically and otherwise leave the run alone.

Experiments that normally fail a run on any simulated-thread crash
(e.g. ``kernel.check()`` in the load harness) consult
:meth:`ChaosSession.current` and tolerate sanctioned crashes while a
session is active.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro import units
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan, InjectionRecord, render_log
from repro.session import Session

#: default victim menu: the repro.load server pool
DEFAULT_PROCESSES = ("load-server",)
DEFAULT_THREAD_PREFIXES = ("load-server/w",)


class ChaosSession(Session):
    """Arm a seeded fault storm on every kernel built inside ``with``."""

    def __init__(self, *, seed: int = 7,
                 processes: Sequence[str] = DEFAULT_PROCESSES,
                 thread_prefixes: Sequence[str]
                 = DEFAULT_THREAD_PREFIXES,
                 horizon_ns: float = 4.0 * units.MS,
                 min_rules: int = 2, max_rules: int = 4):
        self.seed = seed
        self.processes = tuple(processes)
        self.thread_prefixes = tuple(thread_prefixes)
        self.horizon_ns = horizon_ns
        self.min_rules = min_rules
        self.max_rules = max_rules
        self.injectors: List[FaultInjector] = []

    # -- storm wiring ------------------------------------------------------

    def attach(self, kernel) -> None:
        index = len(self.injectors)
        rng = random.Random(self.seed * 1_009 + index)
        plan = FaultPlan.storm(
            rng, processes=self.processes,
            thread_prefixes=self.thread_prefixes, channels=(),
            horizon_ns=self.horizon_ns,
            min_rules=self.min_rules, max_rules=self.max_rules)
        injector = FaultInjector(kernel, plan, storm=index)
        injector.arm()
        self.injectors.append(injector)

    # -- post-run audit ----------------------------------------------------

    def audit_kernels(self) -> List[str]:
        """Drain and audit every stormed kernel; returns violations.

        Run by the CLI after the workload finishes: kill whatever is
        still alive, let the unwind machinery settle, then sweep each
        kernel with the full A1–A9 auditor so ``--chaos`` runs can
        actually fail on an invariant breach.
        """
        from repro.fault.auditor import InvariantAuditor
        from repro.fault.chaos import ALLOWED_CRASHES
        violations: List[str] = []
        for index, injector in enumerate(self.injectors):
            kernel = injector.kernel
            for process in list(kernel.processes):
                if process.alive:
                    kernel.kill_process(process)
            kernel.run_all()
            auditor = InvariantAuditor(kernel,
                                       allowed_crashes=ALLOWED_CRASHES)
            violations.extend(f"kernel {index}: {violation}"
                              for violation in auditor.audit())
        return violations

    # -- results -----------------------------------------------------------

    @property
    def records(self) -> List[InjectionRecord]:
        return [record for injector in self.injectors
                for record in injector.records]

    @property
    def total_injections(self) -> int:
        return len(self.records)

    def render_log(self) -> str:
        return render_log(self.records)

    def summary(self) -> str:
        return (f"chaos: {len(self.injectors)} kernel(s) stormed, "
                f"{self.total_injections} injection(s) fired "
                f"(seed {self.seed})")
