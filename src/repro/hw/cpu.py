"""Per-CPU hardware state and time accounting."""

from __future__ import annotations

from typing import Optional

from repro.sim.stats import IDLE, Block, Breakdown


class CPU:
    """One hardware thread of the simulated machine.

    A CPU accumulates nanoseconds per :class:`Block`; the kernel scheduler
    is the only component that advances a CPU through time, so the account
    here is the ground truth for Figures 1, 2 and 8. The scheduler bills
    its charges and switch costs by adding to ``account.ns`` directly,
    which saves two Python calls per charge on the simulator's hottest
    path; :meth:`charge` serves the colder callers, the IPI send/handle
    costs and idle accounting, and keeps ``Breakdown.add``'s sign check.

    CODOMs per-hardware-thread state (the APL cache) also hangs off the
    CPU, mirroring §4.1: "an independent software-managed APL cache for
    each hardware thread".
    """

    def __init__(self, machine: "Machine", index: int):
        self.machine = machine
        self.index = index
        self.account = Breakdown()
        #: kernel thread currently running here (None = idle)
        self.current = None
        #: simulated time at which this CPU last became idle
        self.idle_since: Optional[float] = None
        #: CODOMs APL cache, installed by the machine when CODOMs is on
        self.apl_cache = None
        #: per-CPU variables reachable through the kernel gs segment
        self.percpu: dict = {}

    # -- accounting -----------------------------------------------------------

    def charge(self, block: Block, ns: float) -> None:
        """Attribute ``ns`` of this CPU's time to ``block``."""
        self.account.add(block, ns)

    def begin_idle(self, now: float) -> None:
        if self.idle_since is None:
            self.idle_since = now

    def end_idle(self, now: float) -> float:
        """Close an idle interval, charging it as Block.IDLE."""
        if self.idle_since is None:
            return 0.0
        span = now - self.idle_since
        if span > 0:
            self.charge(IDLE, span)
        self.idle_since = None
        return span

    def flush_idle(self, now: float) -> None:
        """Charge any open idle interval up to ``now`` (end of run)."""
        if self.idle_since is not None:
            span = now - self.idle_since
            if span > 0:
                self.charge(IDLE, span)
            self.idle_since = now

    @property
    def is_idle(self) -> bool:
        return self.current is None

    def busy_ns(self) -> float:
        return self.account.total(include_idle=False)

    def __repr__(self) -> str:
        running = self.current.name if self.current is not None else "idle"
        return f"<CPU{self.index} {running}>"
