"""The simulated machine: CPUs, cost model, cache model, IPIs, physical memory.

This stands in for the Table 3 evaluation board (4-core E3-1220v2). A
:class:`Machine` is pure hardware — the OS kernel (``repro.kernel``) and
the CODOMs protection logic (``repro.codoms``) are layered on top of it.
"""

from __future__ import annotations

from typing import Callable, List

from repro.errors import SimulationError
from repro.hw.cache import CacheModel
from repro.hw.costs import CostModel
from repro.hw.cpu import CPU
from repro.sim.engine import Engine
from repro.sim.stats import KERNEL, Breakdown


class Machine:
    """N simulated CPUs sharing a cost/cache model and an event engine."""

    def __init__(self, num_cpus: int = 4, *, costs: CostModel = None,
                 cache: CacheModel = None, engine: Engine = None):
        if num_cpus < 1:
            raise SimulationError("a machine needs at least one CPU")
        self.engine = engine if engine is not None else Engine()
        self.costs = costs if costs is not None else CostModel.default()
        self.cache = cache if cache is not None else CacheModel()
        self.cpus: List[CPU] = [CPU(self, i) for i in range(num_cpus)]

    @property
    def num_cpus(self) -> int:
        return len(self.cpus)

    def now(self) -> float:
        return self.engine.now()

    # -- inter-processor interrupts ----------------------------------------------

    def send_ipi(self, src: CPU, dst: CPU,
                 handler: Callable[[], None]) -> None:
        """Deliver an IPI from ``src`` to ``dst``.

        The send cost is charged to ``src`` immediately (the caller is
        responsible for advancing its own thread past it); after the flight
        latency, the handling cost is charged to ``dst`` and ``handler``
        runs in interrupt context on ``dst``.
        """
        if src is dst:
            raise SimulationError("IPI to self is never needed in this model")
        costs = self.costs
        src.charge(KERNEL, costs.IPI_SEND)

        def deliver() -> None:
            # If the target was idle, the interrupt ends its idle interval.
            dst.end_idle(self.engine.now())
            dst.charge(KERNEL, costs.IPI_HANDLE)
            handler()

        self.engine.post(costs.IPI_FLIGHT, deliver)

    # -- aggregate accounting -------------------------------------------------------

    def total_account(self) -> Breakdown:
        """Merged per-block time across all CPUs."""
        merged = Breakdown()
        for cpu in self.cpus:
            merged.merge(cpu.account)
        return merged

    def flush_idle(self) -> None:
        """Close all open idle intervals (call before reading accounts)."""
        now = self.engine.now()
        for cpu in self.cpus:
            cpu.flush_idle(now)

    def reset_accounts(self) -> None:
        """Zero all per-CPU accounts (between warm-up and measurement)."""
        now = self.engine.now()
        for cpu in self.cpus:
            cpu.account = Breakdown()
            if cpu.idle_since is not None:
                cpu.idle_since = now

    def utilization(self, window_ns: float) -> float:
        """Fraction of CPU-time spent non-idle over ``window_ns``."""
        if window_ns <= 0:
            raise ValueError("window must be positive")
        busy = sum(cpu.busy_ns() for cpu in self.cpus)
        return busy / (window_ns * self.num_cpus)

    def __repr__(self) -> str:
        return f"<Machine cpus={self.num_cpus} t={self.engine.now():.0f}ns>"
