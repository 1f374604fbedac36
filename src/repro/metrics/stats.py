"""Latency summary statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["quantile_sorted", "percentile", "LatencySummary", "summarize_ns"]


def quantile_sorted(xs: Sequence[float], q: float) -> float:
    """The *q*-quantile (0-1) of the ascending floats *xs*.

    Linear interpolation between the two closest ranks (Hyndman & Fan
    type 7, the usual ``"linear"`` default).  The float operations and
    their order are part of the contract: the pinned result digests
    were made with them, and ``tests/test_metrics_oracle.py`` checks
    them bit for bit against a reference implementation.
    """
    n = len(xs)
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return xs[-1]
    lo = math.floor(virtual)
    g = virtual - lo
    below, above = xs[lo], xs[lo + 1]
    d = above - below
    # Interpolate from whichever end is nearer.
    if g >= 0.5:
        return above - d * (1 - g)
    return below + d * g


def percentile(samples: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile (0-100) of *samples* (linear interpolation).

    Raises ValueError on an empty sample set — silently returning 0 would
    make a broken experiment look infinitely fast.
    """
    if len(samples) == 0:
        raise ValueError("cannot take a percentile of zero samples")
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    return quantile_sorted(sorted(map(float, samples)), pct / 100)


@dataclass(frozen=True)
class LatencySummary:
    """min / avg / median / p99 / p99.9 / max over a latency sample set."""

    count: int
    min_ns: float
    avg_ns: float
    p50_ns: float
    p90_ns: float
    p99_ns: float
    p999_ns: float
    max_ns: float

    @property
    def min_us(self) -> float:
        return self.min_ns / 1_000

    @property
    def avg_us(self) -> float:
        return self.avg_ns / 1_000

    @property
    def p50_us(self) -> float:
        return self.p50_ns / 1_000

    @property
    def p90_us(self) -> float:
        return self.p90_ns / 1_000

    @property
    def p99_us(self) -> float:
        return self.p99_ns / 1_000

    @property
    def p999_us(self) -> float:
        return self.p999_ns / 1_000

    @property
    def max_us(self) -> float:
        return self.max_ns / 1_000

    def __str__(self) -> str:
        return (f"n={self.count} min={self.min_us:.1f}us avg={self.avg_us:.1f}us "
                f"p50={self.p50_us:.1f}us p99={self.p99_us:.1f}us "
                f"max={self.max_us:.1f}us")


def summarize_ns(samples: Sequence[float]) -> Optional[LatencySummary]:
    """Summarize a nanosecond sample set; None when empty.

    ``avg_ns`` is the correctly rounded sum over *n*.  For integer
    samples whose total stays below 2**53 every partial sum is exact,
    so any summation order gives this same value.
    """
    if len(samples) == 0:
        return None
    xs = sorted(map(float, samples))

    def pct(p: float) -> float:
        # Divide, as percentile() does: 99.9 / 100 is not 0.999.
        return quantile_sorted(xs, p / 100)

    return LatencySummary(
        count=len(xs),
        min_ns=xs[0],
        avg_ns=math.fsum(xs) / len(xs),
        p50_ns=pct(50),
        p90_ns=pct(90),
        p99_ns=pct(99),
        p999_ns=pct(99.9),
        max_ns=xs[-1],
    )
