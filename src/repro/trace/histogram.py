"""Fixed-bucket log-scale latency histograms.

The paper (and the IPC-measurement literature it cites) argues about
*distributions* of nanoseconds, not averages: a primitive whose mean
looks fine can still hide a pathological tail. :class:`LatencyHistogram`
keeps a fixed array of log-spaced buckets covering 1 ns to ~100 s, so

* adding a sample is O(1) and allocation-free,
* two histograms with the same geometry merge by adding bucket counts
  (per-CPU or per-shard collection composes),
* any quantile is recoverable to within one bucket's relative width
  (sub-6% with the default 40 buckets per decade).

Exact count/sum/min/max ride along, so the mean stays exact even though
quantiles are bucketed.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

#: default geometry: 40 log buckets per decade, 1 ns .. 10^11 ns (~100 s)
BUCKETS_PER_DECADE = 40
MIN_NS = 1.0
DECADES = 11


class LatencyHistogram:
    """Log-scale histogram of nanosecond latencies with mergeable state."""

    __slots__ = ("buckets_per_decade", "min_ns", "decades", "_scale",
                 "counts", "count", "sum_ns", "minimum", "maximum")

    def __init__(self, *, buckets_per_decade: int = BUCKETS_PER_DECADE,
                 min_ns: float = MIN_NS, decades: int = DECADES):
        if buckets_per_decade < 1 or decades < 1 or min_ns <= 0:
            raise ValueError("invalid histogram geometry")
        self.buckets_per_decade = buckets_per_decade
        self.min_ns = min_ns
        self.decades = decades
        self._scale = buckets_per_decade / math.log(10.0)
        self.counts: List[int] = [0] * (buckets_per_decade * decades + 1)
        self.count = 0
        self.sum_ns = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    # -- geometry -----------------------------------------------------------

    def _index_of(self, value_ns: float) -> int:
        if value_ns <= self.min_ns:
            return 0
        index = int(math.log(value_ns / self.min_ns) * self._scale) + 1
        return min(index, len(self.counts) - 1)

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """(low, high) value range of bucket ``index``; bucket 0 is
        everything at or below ``min_ns``."""
        if index == 0:
            return (0.0, self.min_ns)
        low = self.min_ns * math.exp((index - 1) / self._scale)
        high = self.min_ns * math.exp(index / self._scale)
        return (low, high)

    @property
    def relative_error(self) -> float:
        """Worst-case quantile error from bucketing (one bucket's width)."""
        return math.exp(1.0 / self._scale) - 1.0

    def _same_geometry(self, other: "LatencyHistogram") -> bool:
        return (self.buckets_per_decade == other.buckets_per_decade
                and self.min_ns == other.min_ns
                and self.decades == other.decades)

    # -- recording ----------------------------------------------------------

    def add(self, value_ns: float) -> None:
        if value_ns < 0:
            raise ValueError(f"negative latency: {value_ns}")
        self.counts[self._index_of(value_ns)] += 1
        self.count += 1
        self.sum_ns += value_ns
        if value_ns < self.minimum:
            self.minimum = value_ns
        if value_ns > self.maximum:
            self.maximum = value_ns

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @classmethod
    def from_values(cls, values: Iterable[float],
                    **geometry) -> "LatencyHistogram":
        hist = cls(**geometry)
        hist.extend(values)
        return hist

    def merge(self, other: "LatencyHistogram") -> None:
        if not self._same_geometry(other):
            raise ValueError("cannot merge histograms with different "
                             "geometries")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.sum_ns += other.sum_ns
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    # -- statistics ---------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum_ns / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0..100), interpolated within its
        bucket and clamped to the observed min/max."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= rank:
                low, high = self.bucket_bounds(index)
                fraction = (rank - seen) / count
                value = low + (high - low) * fraction
                return min(max(value, self.minimum), self.maximum)
            seen += count
        return self.maximum

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ns": self.mean,
            "min_ns": self.minimum if self.count else 0.0,
            "p50_ns": self.p50,
            "p95_ns": self.p95,
            "p99_ns": self.p99,
            "p999_ns": self.p999,
            "max_ns": self.maximum if self.count else 0.0,
        }

    def nonzero_buckets(self) -> List[Tuple[float, float, int]]:
        """(low, high, count) for every populated bucket, low to high."""
        return [(*self.bucket_bounds(index), count)
                for index, count in enumerate(self.counts) if count]

    def __repr__(self) -> str:
        if not self.count:
            return "<LatencyHistogram empty>"
        return (f"<LatencyHistogram n={self.count} mean={self.mean:.1f} "
                f"p50={self.p50:.1f} p99={self.p99:.1f}>")
