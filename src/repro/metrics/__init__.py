"""Measurement utilities: statistics, CDFs, recorders.

- :mod:`~repro.metrics.stats` — latency summaries (min/avg/percentiles);
- :mod:`~repro.metrics.cdf` — empirical CDFs and ASCII rendering for the
  paper's distribution figures;
- :mod:`~repro.metrics.recorder` — latency/throughput/CPU-utilization
  recorders used by the workloads and the bench harness.  Latency
  samples are kept exactly, so summaries and CDFs are bit-exact.
"""

from repro.metrics.cdf import Cdf
from repro.metrics.recorder import (
    CpuUtilizationSampler,
    LatencyRecorder,
    ThroughputMeter,
)
from repro.metrics.stats import LatencySummary, percentile, summarize_ns

__all__ = [
    "Cdf",
    "CpuUtilizationSampler",
    "LatencyRecorder",
    "LatencySummary",
    "ThroughputMeter",
    "percentile",
    "summarize_ns",
]
