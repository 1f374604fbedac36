"""Empirical CDFs, for the paper's latency-distribution figures."""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence, Tuple

from repro.metrics.stats import quantile_sorted

__all__ = ["Cdf"]


class Cdf:
    """An empirical cumulative distribution over a sample set."""

    def __init__(self, samples: Sequence[float]) -> None:
        if len(samples) == 0:
            raise ValueError("cannot build a CDF from zero samples")
        self._sorted = sorted(map(float, samples))

    @property
    def count(self) -> int:
        return len(self._sorted)

    def at(self, value: float) -> float:
        """P(X <= value)."""
        return bisect_right(self._sorted, float(value)) / len(self._sorted)

    def quantile(self, q: float) -> float:
        """Inverse CDF, q in [0, 1]."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return quantile_sorted(self._sorted, q)

    def points(self, n: int = 100) -> List[Tuple[float, float]]:
        """(value, cumulative probability) pairs for plotting."""
        if n < 2:
            raise ValueError("need at least 2 points")
        # i * step with an exact endpoint, not i / (n - 1): the two
        # differ in the last bit for most n.
        step = 1 / (n - 1)
        qs = [i * step for i in range(n - 1)] + [1.0]
        return [(quantile_sorted(self._sorted, q), q) for q in qs]

    def render_ascii(self, width: int = 60, height: int = 12,
                     unit_divisor: float = 1_000.0, unit: str = "us") -> str:
        """A terminal-friendly CDF plot (x: value, y: cumulative fraction)."""
        points = self.points(width)
        lows = points[0][0]
        highs = points[-1][0]
        span = max(highs - lows, 1e-12)
        grid = [[" "] * width for _ in range(height)]
        for column, (value, prob) in enumerate(points):
            row = height - 1 - int(prob * (height - 1))
            grid[row][min(column, width - 1)] = "*"
        lines = ["".join(row) for row in grid]
        footer = (f"{lows / unit_divisor:.1f}{unit}"
                  + " " * max(1, width - 24)
                  + f"{highs / unit_divisor:.1f}{unit}")
        _ = span
        return "\n".join(lines + [footer])

    def __repr__(self) -> str:
        return (f"<Cdf n={self.count} p50={self.quantile(0.5):.0f} "
                f"p99={self.quantile(0.99):.0f}>")
