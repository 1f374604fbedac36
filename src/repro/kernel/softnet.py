"""Per-CPU softnet data: NAPI structures, poll lists, and the backlog.

This module models the kernel's ``softnet_data`` / ``napi_struct``
machinery, including PRISM's extensions:

- every :class:`NapiStruct` has **two** input queues (high/low priority),
  exactly the ``softnet_data``/``napi_struct`` extension of paper §IV-B
  (in VANILLA mode the high queue is simply never used);
- :class:`SoftnetData` supports head insertion and head-move of devices in
  the poll list (PRISM §III-A) in addition to vanilla tail scheduling.

The generic :meth:`NapiStruct.poll` implements the paper's Fig. 7 (lines
22–38) ``napi_poll``: if the high-priority queue is non-empty, a batch is
processed exclusively from it; otherwise from the low-priority queue.
With an always-empty high queue this degenerates to the vanilla FIFO poll,
so the same code serves both kernels faithfully.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, Optional, Tuple, TYPE_CHECKING

from repro.netdev.queues import PacketQueue
from repro.packet.skb import SKBuff
from repro.trace.tracer import TracePoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.cpu import CpuCore
    from repro.netdev.device import PacketStage

__all__ = ["NapiStruct", "SoftnetData", "NET_RX_SOFTIRQ"]

#: Linux's NET_RX_SOFTIRQ vector number.
NET_RX_SOFTIRQ = 3


class NapiStruct:
    """A pollable NAPI context (``napi_struct`` analogue).

    Generic virtual devices (gro_cells, backlog) use the dual input
    queues here; the physical NIC subclasses this and polls its rx ring
    instead (see :class:`repro.netdev.nic.NicNapi`).
    """

    def __init__(self, name: str, kernel: "Kernel", *,
                 stage: Optional["PacketStage"] = None,
                 queue_capacity: Optional[int] = None) -> None:
        self.name = name
        self.kernel = kernel
        self.stage = stage
        capacity = queue_capacity or kernel.config.napi_queue_capacity
        self.queue_low: PacketQueue[SKBuff] = PacketQueue(capacity, f"{name}:low")
        self.queue_high: PacketQueue[SKBuff] = PacketQueue(capacity, f"{name}:high")
        #: NAPI_STATE_SCHED: True while on a poll list or being polled.
        self.scheduled = False
        #: Softnet this NAPI is serviced by (set when bound to a CPU).
        self.softnet: Optional["SoftnetData"] = None
        #: Hook invoked on napi_complete (the NIC re-enables its irq here).
        self.on_complete: Optional[Callable[[], None]] = None
        self.polls = 0
        self.packets_processed = 0

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------
    def has_high(self) -> bool:
        return bool(self.queue_high)

    def has_low(self) -> bool:
        return bool(self.queue_low)

    def has_packets(self) -> bool:
        return bool(self.queue_high) or bool(self.queue_low)

    def enqueue(self, skb: SKBuff, high: bool) -> bool:
        """Enqueue to the high or low input queue; False on overflow drop."""
        kernel = self.kernel
        queue = self.queue_high if high else self.queue_low
        ledger = kernel.ledger
        faults = kernel.faults
        if faults is not None and faults.drop_at_queue(queue.name):
            # Forced fault drop at admission; the caller recycles the skb
            # exactly as it would for an organic overflow.
            site = f"fault:{queue.name}"
            kernel.count_drop(site, skb)
            if ledger is not None:
                w = skb.gro_segments
                ledger.drop(site, w)
                ledger.leave(w)
            return False
        ok = queue.enqueue(skb)
        if ledger is not None:
            # Either way the skb stops being "in processing": it is now
            # counted by the queue-depth provider, or terminally dropped.
            w = skb.gro_segments
            ledger.leave(w)
            if not ok:
                ledger.drop(queue.name, w)
        if not ok:
            kernel.tracer.emit(TracePoint.DROP, queue=queue.name, skb=skb)
            kernel.count_drop(queue.name, skb)
        elif kernel.tracer.active and \
                kernel.tracer.has_subscribers(TracePoint.QUEUE_WAIT):
            # Stamp the enqueue time so the dequeue side can emit the
            # complete residency interval.  Only when an observer is
            # attached: the mark is a dict insert per packet otherwise.
            skb.mark(f"q:{queue.name}", kernel.sim.now)
        return ok

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll(self, batch_size: int) -> Generator[int, None, int]:
        """Process one batch (paper Fig. 7 napi_poll).  Returns count.

        Chooses the high queue if non-empty at entry, else the low queue,
        and processes up to *batch_size* skbs exclusively from it.
        Tracepoint gates are read once per batch: untraced, each skb is
        dispatched straight to its stage.
        """
        self.polls += 1
        kernel = self.kernel
        tracer = kernel.tracer
        active = tracer.active
        trace_waits = active and tracer.has_subscribers(TracePoint.QUEUE_WAIT)
        probes = self._stage_probes() if active else None
        fixed_stage = self.stage
        softnet = self.softnet
        ledger = kernel.ledger
        yield kernel.costs.device_poll_overhead_ns
        queue = self.queue_high if self.queue_high else self.queue_low
        processed = 0
        while processed < batch_size and queue:
            skb = queue.dequeue()
            if ledger is not None:
                ledger.enter(skb.gro_segments)
            if trace_waits:
                since = skb.marks.get(f"q:{queue.name}")
                if since is not None:
                    tracer.emit(TracePoint.QUEUE_WAIT, queue=queue.name,
                                skb=skb, since=since)
            stage = (fixed_stage if fixed_stage is not None
                     else self._stage_for(skb))
            if probes is None:
                yield from stage.process(skb, softnet)
            else:
                yield from self._traced_stage(stage, skb, probes)
            processed += 1
        self.packets_processed += processed
        telemetry = kernel.telemetry
        if telemetry is not None:
            telemetry.on_poll(self.name, processed)
        return processed

    def process_inline(self, skb: SKBuff) -> Generator[int, None, None]:
        """PRISM-sync: run this device's stage for *skb* immediately.

        The skb never touches the input queues; per the paper's footnote,
        the stage still executes in this device's context (same cost).
        """
        tracer = self.kernel.tracer
        probes = None
        if tracer.active:
            if tracer.has_subscribers(TracePoint.SYNC_INLINE):
                tracer.emit(TracePoint.SYNC_INLINE, device=self.name, skb=skb)
            probes = self._stage_probes()
        stage = self._stage_for(skb)
        if probes is None:
            yield from stage.process(skb, self.softnet)
        else:
            yield from self._traced_stage(stage, skb, probes)
        self.packets_processed += 1

    def _stage_probes(self) -> Optional[Tuple[Optional[str], bool]]:
        """Gates of the per-skb stage tracepoints, or None if all closed.

        Returns ``(span track or None, stage_done subscribed)``.  Callers
        check ``tracer.active`` first and read this once per batch:
        observers attach before a run and detach after it, so a batch
        sees the subscribers a per-skb check would.
        """
        tracer = self.kernel.tracer
        track = None
        if tracer.has_subscribers(TracePoint.SPAN_BEGIN):
            softnet = self.softnet
            track = (f"cpu{softnet.cpu.core_id}" if softnet is not None
                     else self.name)
        stage_done = tracer.has_subscribers(TracePoint.STAGE_DONE)
        if track is None and not stage_done:
            return None
        return track, stage_done

    def _traced_stage(self, stage: "PacketStage", skb: SKBuff,
                      probes: Tuple[Optional[str], bool]
                      ) -> Generator[int, None, None]:
        """Run *stage* for *skb* wrapped in its span and STAGE_DONE."""
        track, stage_done = probes
        tracer = self.kernel.tracer
        if track is not None:
            # Per-skb stage span on the servicing CPU's track.  Inline
            # (PRISM-sync) stage chains nest naturally: the inner stage's
            # span opens and closes inside the outer one.
            tracer.emit(TracePoint.SPAN_BEGIN, track=track,
                        name=f"skb:{stage.name}", hp=skb.is_high_priority)
        yield from stage.process(skb, self.softnet)
        if track is not None:
            tracer.emit(TracePoint.SPAN_END, track=track,
                        name=f"skb:{stage.name}")
        if stage_done:
            tracer.emit(TracePoint.STAGE_DONE, device=self.name, skb=skb,
                        stage=stage.name)

    def _stage_for(self, skb: SKBuff) -> "PacketStage":
        """The stage to run: fixed, or per-skb for the shared backlog."""
        if self.stage is not None:
            return self.stage
        dev = skb.dev
        if dev is None or dev.rx_stage is None:
            raise RuntimeError(
                f"{self.name}: skb {skb!r} has no device rx_stage to dispatch to")
        return dev.rx_stage

    def __repr__(self) -> str:
        return (f"<NapiStruct {self.name!r} sched={self.scheduled} "
                f"high={len(self.queue_high)} low={len(self.queue_low)}>")


class SoftnetData:
    """Per-CPU NAPI bookkeeping (``softnet_data`` analogue)."""

    def __init__(self, kernel: "Kernel", cpu: "CpuCore") -> None:
        self.kernel = kernel
        self.cpu = cpu
        #: The global per-CPU poll list (paper Fig. 2 / Fig. 7 POLL_LIST).
        self.poll_list: Deque[NapiStruct] = deque()
        #: The per-CPU backlog NAPI serving non-NAPI-aware virtual devices
        #: (veth).  Its stage is resolved per-skb from ``skb.dev``.
        self.backlog = NapiStruct(
            f"backlog:cpu{cpu.core_id}", kernel,
            queue_capacity=kernel.config.backlog_capacity)
        self.backlog.softnet = self

    # ------------------------------------------------------------------
    # Scheduling devices onto the poll list
    # ------------------------------------------------------------------
    def napi_schedule(self, napi: NapiStruct) -> None:
        """Vanilla ``napi_schedule``: tail-append if not already scheduled."""
        if napi.scheduled:
            return
        napi.scheduled = True
        napi.softnet = self
        self.poll_list.append(napi)
        self.cpu.raise_softirq(NET_RX_SOFTIRQ)

    def napi_schedule_head(self, napi: NapiStruct) -> None:
        """PRISM: insert at the head, or move to the head if queued.

        Used for devices holding high-priority packets (§III-A steps
        2/5).  A device that is scheduled but *currently being polled*
        (popped off the list) is left alone — the poll loop re-inserts it
        at the right position afterwards.
        """
        if napi.scheduled:
            try:
                self.poll_list.remove(napi)
            except ValueError:
                return  # being polled right now
            self.poll_list.appendleft(napi)
            return
        napi.scheduled = True
        napi.softnet = self
        self.poll_list.appendleft(napi)
        self.cpu.raise_softirq(NET_RX_SOFTIRQ)

    def napi_complete(self, napi: NapiStruct) -> None:
        """Device has drained: clear SCHED and re-enable its interrupt."""
        napi.scheduled = False
        if napi.on_complete is not None:
            napi.on_complete()

    def poll_list_names(self) -> list:
        """Snapshot of device names on the poll list (for Fig. 6 traces)."""
        return [napi.name for napi in self.poll_list]

    def __repr__(self) -> str:
        return (f"<SoftnetData cpu{self.cpu.core_id} "
                f"poll_list={self.poll_list_names()}>")
