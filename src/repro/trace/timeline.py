"""Per-packet stage timelines — the data behind the paper's Fig. 5.

Attaches to the kernel tracepoints and reconstructs, for each packet,
when it entered the rx ring, when each pipeline stage finished with it,
and when it reached a socket.  :meth:`StageTimeline.render_ascii` draws a
terminal Gantt chart of a window of packets, which is exactly the shape
of the paper's Fig. 5 illustrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.packet.skb import SKBuff
from repro.trace.tracer import TracePoint, Tracer

__all__ = ["StageTimeline"]


@dataclass
class PacketTimeline:
    """Stage completion timestamps for one packet."""

    skb_id: int
    high_priority: bool
    ring_at: Optional[int] = None
    stage_done_at: Dict[str, int] = field(default_factory=dict)
    socket_at: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.ring_at is not None and self.socket_at is not None

    @property
    def kernel_time_ns(self) -> Optional[int]:
        if not self.complete:
            return None
        return self.socket_at - self.ring_at


class StageTimeline:
    """Reconstructs per-packet pipelines from tracepoints."""

    def __init__(self, tracer: Tracer, now: Callable[[], int],
                 max_packets: int = 10_000) -> None:
        self.tracer = tracer
        self.now = now
        self.max_packets = max_packets
        self.packets: Dict[int, PacketTimeline] = {}
        self._callbacks = [
            (TracePoint.SKB_ALLOC,
             tracer.attach(TracePoint.SKB_ALLOC, self._on_alloc)),
            (TracePoint.STAGE_DONE,
             tracer.attach(TracePoint.STAGE_DONE, self._on_stage)),
            (TracePoint.SOCKET_ENQUEUE,
             tracer.attach(TracePoint.SOCKET_ENQUEUE, self._on_socket)),
        ]

    def _entry(self, skb: SKBuff) -> Optional[PacketTimeline]:
        entry = self.packets.get(skb.skb_id)
        if entry is None:
            if len(self.packets) >= self.max_packets:
                return None
            entry = PacketTimeline(skb_id=skb.skb_id,
                                   high_priority=skb.is_high_priority)
            self.packets[skb.skb_id] = entry
        return entry

    def _on_alloc(self, device: str, skb: SKBuff, **_f: object) -> None:
        entry = self._entry(skb)
        if entry is not None:
            entry.ring_at = skb.marks.get("rx_ring", self.now())
            entry.high_priority = skb.is_high_priority

    def _on_stage(self, device: str, skb: SKBuff, **_f: object) -> None:
        entry = self.packets.get(skb.skb_id)
        if entry is not None:
            entry.stage_done_at[device] = self.now()
            entry.high_priority = skb.is_high_priority

    def _on_socket(self, socket: str, skb: SKBuff, **_f: object) -> None:
        entry = self.packets.get(skb.skb_id)
        if entry is not None:
            entry.socket_at = self.now()

    def stop(self) -> None:
        for point, callback in self._callbacks:
            self.tracer.detach(point, callback)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def completed(self) -> List[PacketTimeline]:
        """All packets that reached a socket, in ring-arrival order."""
        done = [entry for entry in self.packets.values() if entry.complete]
        done.sort(key=lambda entry: entry.ring_at)
        return done

    def kernel_times_ns(self) -> List[int]:
        return [entry.kernel_time_ns for entry in self.completed()]

    def render_ascii(self, limit: int = 16, width: int = 64) -> str:
        """A Gantt chart: one row per packet, '#' from ring to socket.

        High-priority packets are drawn with '=' so preemption is visible
        at a glance (the paper's Fig. 5 visual).
        """
        rows = self.completed()[:limit]
        if not rows:
            return "(no completed packets)"
        start = min(entry.ring_at for entry in rows)
        end = max(entry.socket_at for entry in rows)
        span = max(end - start, 1)

        def column(time_ns: int) -> int:
            return min(width - 1, int((time_ns - start) * (width - 1) / span))

        lines = []
        for entry in rows:
            begin = column(entry.ring_at)
            finish = column(entry.socket_at)
            marker = "=" if entry.high_priority else "#"
            bar = (" " * begin + marker * max(1, finish - begin + 1))
            label = "hi" if entry.high_priority else "lo"
            lines.append(f"{entry.skb_id:>6} {label} |{bar.ljust(width)}|")
        header = (f"{'skb':>6}    |{'<- ' + str(span // 1000) + 'us ->':^{width}}|")
        return "\n".join([header] + lines)
