"""Tracing infrastructure (the simulator's eBPF analogue).

The paper diagnosed the interleaved-polling problem by attaching eBPF
probes to NAPI tracepoints.  This package provides the same capability for
the simulated kernel:

- :mod:`~repro.trace.tracer` — a registry of named tracepoints with
  attachable callbacks (near-zero cost when nothing is attached);
- :mod:`~repro.trace.pollorder` — records the NAPI device polling order
  and poll-list snapshots, regenerating the paper's Fig. 6 tables;
- :mod:`~repro.trace.latency` — per-packet in-kernel latency probes
  (ring arrival to socket delivery).
"""

from repro.trace.latency import KernelLatencyProbe
from repro.trace.pollorder import PollOrderTracer, PollRecord
from repro.trace.timeline import StageTimeline
from repro.trace.tracer import TracePoint, Tracer

__all__ = [
    "KernelLatencyProbe",
    "PollOrderTracer",
    "PollRecord",
    "StageTimeline",
    "TracePoint",
    "Tracer",
]
