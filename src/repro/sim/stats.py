"""Measurement helpers: running statistics and Figure-2 style breakdowns."""

from __future__ import annotations

import math
from enum import IntEnum
from typing import Dict, Iterable


class Block(IntEnum):
    """Time-attribution blocks, numbered exactly as in Figure 2 of the paper.

    ``USER`` counts as user time; ``IDLE`` as idle; everything else as
    kernel/privileged time.
    """

    USER = 1        # (1) user code
    SYSCALL = 2     # (2) syscall + 2×swapgs + sysret
    TRAMPOLINE = 3  # (3) syscall dispatch trampoline
    KERNEL = 4      # (4) kernel / privileged code
    SCHED = 5       # (5) schedule / context switch
    PTSW = 6        # (6) page table switch
    IDLE = 7        # (7) idle / IO wait


# the blocks as module globals, for charge sites: a ``Block.X`` lookup
# takes the enum metaclass's slow attribute path (about 100 ns, against
# under 10 ns for a global), which a charge site would pay every call
USER = Block.USER
SYSCALL = Block.SYSCALL
TRAMPOLINE = Block.TRAMPOLINE
KERNEL = Block.KERNEL
SCHED = Block.SCHED
PTSW = Block.PTSW
IDLE = Block.IDLE


#: Coarse mode for each block, used for Figure 1's user/kernel/idle split.
BLOCK_MODE = {
    Block.USER: "user",
    Block.SYSCALL: "kernel",
    Block.TRAMPOLINE: "kernel",
    Block.KERNEL: "kernel",
    Block.SCHED: "kernel",
    Block.PTSW: "kernel",
    Block.IDLE: "idle",
}


class Breakdown:
    """Accumulates nanoseconds per :class:`Block`."""

    __slots__ = ("ns",)

    def __init__(self):
        self.ns: Dict[Block, float] = {block: 0.0 for block in Block}

    def add(self, block: Block, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"negative charge: {amount}")
        self.ns[block] += amount

    def merge(self, other: "Breakdown") -> None:
        for block, amount in other.ns.items():
            self.ns[block] += amount

    def total(self, include_idle: bool = True) -> float:
        return sum(
            amount for block, amount in self.ns.items()
            if include_idle or block is not Block.IDLE
        )

    def by_mode(self) -> Dict[str, float]:
        """Collapse blocks into user/kernel/idle totals."""
        modes = {"user": 0.0, "kernel": 0.0, "idle": 0.0}
        for block, amount in self.ns.items():
            modes[BLOCK_MODE[block]] += amount
        return modes

    def fractions(self) -> Dict[Block, float]:
        total = self.total()
        if total == 0:
            return {block: 0.0 for block in Block}
        return {block: amount / total for block, amount in self.ns.items()}

    def scaled(self, factor: float) -> "Breakdown":
        out = Breakdown()
        for block, amount in self.ns.items():
            out.ns[block] = amount * factor
        return out

    def copy(self) -> "Breakdown":
        return self.scaled(1.0)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{block.name}={amount:.1f}"
            for block, amount in self.ns.items() if amount
        )
        return f"<Breakdown {parts or 'empty'}>"


class RunningStats:
    """Welford online mean/variance, as used for the micro-benchmarks."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def relative_stddev(self) -> float:
        """Stddev as a fraction of the mean (the paper reports < 1%)."""
        return self.stddev / self.mean if self.mean else 0.0

    def __repr__(self) -> str:
        return (f"<RunningStats n={self.count} mean={self.mean:.2f} "
                f"sd={self.stddev:.2f}>")


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, used for 'average speedup' style summaries."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
