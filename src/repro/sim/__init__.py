"""Discrete-event simulation core: engine, clock, and time accounting."""

from repro.sim.engine import Engine
from repro.sim.stats import Block, Breakdown, RunningStats, geometric_mean

__all__ = [
    "Engine",
    "Block",
    "Breakdown",
    "RunningStats",
    "geometric_mean",
]
