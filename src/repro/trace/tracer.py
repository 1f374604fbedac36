"""Named tracepoints with attachable callbacks.

Kernel code calls :meth:`Tracer.emit` at well-known points; analysis tools
attach callbacks.  Emitting with no subscriber costs one dict lookup, so
tracepoints can stay in the hot path permanently (like compiled-in kernel
tracepoints).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

__all__ = ["Tracer", "TracePoint"]


class TracePoint:
    """Well-known tracepoint names used by the simulated kernel."""

    #: A softirq invocation of net_rx_action begins. fields: cpu
    NET_RX_ACTION = "net_rx_action"
    #: One device is polled. fields: cpu, device, poll_list (names after poll)
    NAPI_POLL = "napi_poll"
    #: One skb finished one stage. fields: device, skb
    STAGE_DONE = "stage_done"
    #: skb allocated at the physical driver. fields: device, skb
    SKB_ALLOC = "skb_alloc"
    #: skb delivered to a socket receive buffer. fields: socket, skb
    SOCKET_ENQUEUE = "socket_enqueue"
    #: skb dropped (queue overflow). fields: queue, skb
    DROP = "drop"
    #: PRISM-sync inline stage execution. fields: device, skb
    SYNC_INLINE = "sync_inline"
    #: A named span opens on a track. fields: track, name
    #: (spans nest per track; every SPAN_BEGIN is matched by a SPAN_END
    #: with the same name in LIFO order — see repro.obs).
    SPAN_BEGIN = "span_begin"
    #: A named span closes on a track. fields: track, name
    SPAN_END = "span_end"
    #: An skb leaves a queue it waited in. fields: queue, skb, since
    #: (since = sim-ns of the enqueue; emitted at dequeue time so the
    #: residency interval is complete when it fires).
    QUEUE_WAIT = "queue_wait"
    #: GRO coalesced an skb into a held super-skb. fields: device, skb
    GRO_MERGE = "gro_merge"


class Tracer:
    """A registry of tracepoints and their subscribers."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[Callable[..., None]]] = {}
        #: True iff *any* tracepoint has a subscriber.  Hot loops read
        #: this single attribute once per batch and skip their
        #: ``has_subscribers`` lookups when it is False; it is
        #: maintained by attach/detach only.
        self.active: bool = False

    def attach(self, point: str, callback: Callable[..., None]) -> Callable[..., None]:
        """Subscribe *callback* to *point*; returns it for later detach."""
        self._subscribers.setdefault(point, []).append(callback)
        self.active = True
        return callback

    def detach(self, point: str, callback: Callable[..., None]) -> bool:
        """Unsubscribe; returns False if it was not attached."""
        callbacks = self._subscribers.get(point)
        if not callbacks or callback not in callbacks:
            return False
        callbacks.remove(callback)
        if not callbacks:
            del self._subscribers[point]
        self.active = bool(self._subscribers)
        return True

    def emit(self, point: str, **fields: Any) -> None:
        """Fire *point*.  Near-free when nothing is attached."""
        callbacks = self._subscribers.get(point)
        if not callbacks:
            return
        for callback in list(callbacks):
            callback(**fields)

    def has_subscribers(self, point: str) -> bool:
        return bool(self._subscribers.get(point))

    def __repr__(self) -> str:
        points = {p: len(cbs) for p, cbs in self._subscribers.items()}
        return f"<Tracer {points}>"
