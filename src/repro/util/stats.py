"""Latency statistics for the load generator.

:class:`LatencyHistogram` is a fixed geometric-bucket histogram for
recording per-query latency at load-generator scale. Exact-sample
percentiles need every observation in memory and a sort per report;
the histogram is O(buckets) memory regardless of query count, merges
across worker threads without reordering, and its bucket layout is a
*fixed* function of the constructor arguments — so two runs (or two
threads) always bin identically and merged results are independent of
merge order. Percentiles interpolate within the winning bucket, with
relative error bounded by the bucket growth factor.

Per-layer serving throughput and latency are measured by the
``perfbench/`` benchmark (its ``matching.*`` and ``service.*`` rows).

Everything here is pure computation — no clocks, no RNG — so it is
safe to import from deterministic modules.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["LatencyHistogram"]

#: Percentiles every latency report carries, as (key, q) pairs.
_SUMMARY_PERCENTILES: Sequence[tuple[str, float]] = (
    ("p50_ms", 50.0),
    ("p95_ms", 95.0),
    ("p99_ms", 99.0),
)


class LatencyHistogram:
    """Fixed geometric-bucket latency histogram.

    Buckets span ``[min_s, max_s)`` with ``buckets_per_decade`` bins per
    factor of ten; an underflow and an overflow bucket catch the rest.
    The layout depends only on the constructor arguments, never on the
    data, so histograms built with the same parameters merge exactly
    and percentile results are independent of recording order.

    Args:
        min_s: Lower edge of the first regular bucket (seconds).
        max_s: Upper edge of the last regular bucket (seconds).
        buckets_per_decade: Resolution; relative percentile error is
            bounded by ``10 ** (1 / buckets_per_decade) - 1`` (≈5.5%
            at the default 40/decade).
    """

    def __init__(
        self,
        min_s: float = 1e-6,
        max_s: float = 1e3,
        buckets_per_decade: int = 40,
    ) -> None:
        if not (0.0 < min_s < max_s):
            raise ValueError(
                f"need 0 < min_s < max_s, got {min_s!r}, {max_s!r}"
            )
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.min_s = float(min_s)
        self.max_s = float(max_s)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.max_s / self.min_s)
        count = int(math.ceil(decades * self.buckets_per_decade))
        # Edge i = min_s * 10 ** (i / per_decade); edges[0] == min_s.
        self._edges = self.min_s * np.power(
            10.0, np.arange(count + 1) / self.buckets_per_decade
        )
        # counts[0] is underflow (< min_s); counts[-1] overflow (>= max edge).
        self._counts = np.zeros(count + 2, dtype=np.int64)
        self._total = 0
        self._sum_s = 0.0
        self._max_s = 0.0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._total

    @property
    def max_seconds(self) -> float:
        return self._max_s

    @property
    def mean_seconds(self) -> float:
        return self._sum_s / self._total if self._total else 0.0

    def record(self, seconds: float) -> None:
        """Record one latency sample."""
        value = float(seconds)
        index = int(np.searchsorted(self._edges, value, side="right"))
        self._counts[index] += 1
        self._total += 1
        self._sum_s += value
        if value > self._max_s:
            self._max_s = value

    def record_many(self, seconds: Sequence[float]) -> None:
        """Record a batch of samples in one vectorized pass."""
        arr = np.asarray(seconds, dtype=float)
        if arr.size == 0:
            return
        indices = np.searchsorted(self._edges, arr, side="right")
        np.add.at(self._counts, indices, 1)
        self._total += int(arr.size)
        self._sum_s += float(arr.sum())
        self._max_s = max(self._max_s, float(arr.max()))

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram (layouts must match)."""
        if (
            other.min_s != self.min_s
            or other.max_s != self.max_s
            or other.buckets_per_decade != self.buckets_per_decade
        ):
            raise ValueError("cannot merge histograms with different layouts")
        self._counts += other._counts
        self._total += other._total
        self._sum_s += other._sum_s
        self._max_s = max(self._max_s, other._max_s)
        return self

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """The ``q``-th percentile in seconds (0 with no samples).

        Linear interpolation inside the winning bucket; the underflow
        bucket reports ``min_s`` scaled by rank, the overflow bucket
        reports the recorded maximum (exact, tracked separately).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self._total == 0:
            return 0.0
        rank = q / 100.0 * self._total
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, rank, side="left"))
        index = min(index, len(self._counts) - 1)
        if index >= len(self._counts) - 1:
            return self._max_s
        in_bucket = int(self._counts[index])
        below = int(cumulative[index]) - in_bucket
        fraction = (rank - below) / in_bucket if in_bucket else 0.0
        if index == 0:
            return self.min_s * fraction
        low = float(self._edges[index - 1])
        high = float(self._edges[index])
        return min(low + (high - low) * fraction, self._max_s)

    def summary(self) -> Dict[str, float]:
        """The shared latency row schema, with four nines (milliseconds)."""
        if self._total == 0:
            return {"count": 0}
        row: Dict[str, float] = {"count": self._total}
        for key, q in _SUMMARY_PERCENTILES:
            row[key] = self.percentile(q) * 1000.0
        row["p999_ms"] = self.percentile(99.9) * 1000.0
        row["max_ms"] = self._max_s * 1000.0
        row["mean_ms"] = self.mean_seconds * 1000.0
        return row

    def counts(self) -> np.ndarray:
        """Raw bucket counts (underflow, regular..., overflow); a copy."""
        return self._counts.copy()

    def edges(self) -> np.ndarray:
        """Regular bucket edges in seconds; a copy."""
        return self._edges.copy()

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self._total}, "
            f"p99={self.percentile(99.0) * 1000.0:.3f} ms)"
        )


def merge_histograms(
    histograms: Sequence[LatencyHistogram],
) -> Optional[LatencyHistogram]:
    """Merge per-thread histograms into one (None for an empty list)."""
    if not histograms:
        return None
    merged = histograms[0]
    for other in histograms[1:]:
        merged.merge(other)
    return merged
