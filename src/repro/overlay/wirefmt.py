"""Cross-shard wire format for space-parallel simulation.

When the cluster executor partitions hosts across worker processes, a
packet leaving one host for another must cross a process boundary.
Shipping live :class:`~repro.packet.packet.Packet` objects would drag
the whole object graph (payload records, header caches, encap chains)
through pickle and — worse — make the bytes that cross the pipe depend
on simulator internals.  Instead, cross-shard traffic travels
flow-level: exactly the fields the destination cell needs to
*rematerialize* the packet locally (via its own cached header builders)
plus the fields the executor needs for deterministic routing and
conservation accounting.

Wire format v2 is *columnar*: a whole (shard, window) of departures is
one :class:`WireBatch` — nine parallel columns, one per field — and the
encoded frame carries each integer column as an ``array('q')`` and the
two enum-like fields (``cls``, ``kind``) as packed small-int code
bytes.  Encoding happens once per window instead of once per packet,
the executor sorts and routes on the columns without ever
rematerializing a :class:`WirePacket`, and the pipe pickles a handful
of flat buffers instead of thousands of tuples.  v1 per-packet frames
are rejected with a version error.

Determinism contract: the executor collects every shard's outbox for a
window, concatenates them, and sorts by the batch-level equivalent of
:func:`wire_sort_key` (:meth:`WireBatch.sort_wire`) before routing.
The key is a pure function of simulation-visible fields, so the
injection order at any destination is independent of how hosts were
partitioned into shards — the basis for "same digest at any shard
count".  The ``cls``/``kind`` code assignments below are chosen so
integer code order equals lexicographic string order, which keeps the
columnar sort byte-identical to the v1 object sort.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "WIRE_VERSION",
    "CLS_NAMES",
    "KIND_NAMES",
    "CLS_CODE",
    "KIND_CODE",
    "WirePacket",
    "WireBatch",
    "EMPTY_FRAME",
    "decode_batch",
    "wire_sort_key",
]

#: Bump when the frame layout changes; workers refuse mismatched frames.
#: v1 shipped one pickled tuple per packet; v2 ships one columnar batch
#: frame per (shard, window).
WIRE_VERSION = 2

#: Code tables for the two enum-like fields.  The orderings are chosen
#: so that *code order == string sort order* ("hi" < "lo",
#: "reply" < "req") — sorting on codes is then byte-identical to
#: sorting on the strings, which the digest contract depends on.
CLS_NAMES: Tuple[str, ...] = ("hi", "lo")
KIND_NAMES: Tuple[str, ...] = ("reply", "req")
CLS_CODE = {name: code for code, name in enumerate(CLS_NAMES)}
KIND_CODE = {name: code for code, name in enumerate(KIND_NAMES)}


@dataclass(frozen=True)
class WirePacket:
    """One flow-level packet crossing a shard boundary.

    ``arrival_ns`` is the virtual time the packet reaches the
    destination host's NIC (fabric serialization + propagation already
    applied by the sender-side fabric model); the conservative-lookahead
    invariant guarantees it is strictly after the barrier at which the
    record is exchanged.
    """

    src_host: int        #: index of the sending host
    dst_host: int        #: index of the receiving host
    cls: str             #: flow class: "hi" (latency) or "lo" (flood)
    kind: str            #: "req" (client -> server) or "reply"
    seq: int             #: per-(src,dst,cls) sequence number
    departure_ns: int    #: virtual time the packet left the source host
    arrival_ns: int      #: virtual time it reaches the destination NIC
    payload_len: int     #: application payload bytes
    sent_at: int         #: original send timestamp (latency accounting)

    def validate(self) -> None:
        if self.arrival_ns < self.departure_ns:
            raise ValueError(
                f"wire packet arrives at {self.arrival_ns} before it "
                f"departs at {self.departure_ns}")
        if self.src_host == self.dst_host:
            raise ValueError(
                f"host {self.src_host} packet routed to itself")


def wire_sort_key(wp: WirePacket) -> Tuple[int, int, int, str, str, int]:
    """Total order over cross-shard packets, partition-independent.

    Arrival time first (simulation causality), then stable flow
    identity fields to break ties deterministically.  ``seq`` last so
    same-flow packets stay in send order.
    """
    return (wp.arrival_ns, wp.src_host, wp.dst_host, wp.cls, wp.kind, wp.seq)


class WireBatch:
    """One window's cross-shard departures as nine parallel columns.

    ``cls`` and ``kind`` hold small-int codes (:data:`CLS_CODE` /
    :data:`KIND_CODE`); every other column holds plain ints.  All
    columns are ordinary lists so per-element access in the executor's
    hot loops stays unboxed-cheap; ``array('q')`` packing happens only
    at :meth:`encode` time, when the frame is about to cross a pipe.
    """

    __slots__ = ("src", "dst", "cls", "kind", "seq", "departure",
                 "arrival", "payload_len", "sent_at")

    def __init__(self) -> None:
        self.src: List[int] = []
        self.dst: List[int] = []
        self.cls: List[int] = []
        self.kind: List[int] = []
        self.seq: List[int] = []
        self.departure: List[int] = []
        self.arrival: List[int] = []
        self.payload_len: List[int] = []
        self.sent_at: List[int] = []

    # -- building -------------------------------------------------------
    def append(self, src: int, dst: int, cls_code: int, kind_code: int,
               seq: int, departure_ns: int, arrival_ns: int,
               payload_len: int, sent_at: int) -> None:
        """Append one packet given raw column values (egress hot path)."""
        self.src.append(src)
        self.dst.append(dst)
        self.cls.append(cls_code)
        self.kind.append(kind_code)
        self.seq.append(seq)
        self.departure.append(departure_ns)
        self.arrival.append(arrival_ns)
        self.payload_len.append(payload_len)
        self.sent_at.append(sent_at)

    def append_packet(self, wp: WirePacket) -> None:
        self.append(wp.src_host, wp.dst_host, CLS_CODE[wp.cls],
                    KIND_CODE[wp.kind], wp.seq, wp.departure_ns,
                    wp.arrival_ns, wp.payload_len, wp.sent_at)

    @classmethod
    def from_packets(cls, packets: Iterable[WirePacket]) -> "WireBatch":
        batch = cls()
        for wp in packets:
            batch.append_packet(wp)
        return batch

    def extend(self, other: "WireBatch") -> None:
        """Concatenate *other*'s columns onto this batch (C-speed)."""
        self.src.extend(other.src)
        self.dst.extend(other.dst)
        self.cls.extend(other.cls)
        self.kind.extend(other.kind)
        self.seq.extend(other.seq)
        self.departure.extend(other.departure)
        self.arrival.extend(other.arrival)
        self.payload_len.extend(other.payload_len)
        self.sent_at.extend(other.sent_at)

    def __len__(self) -> int:
        return len(self.src)

    # -- ordering -------------------------------------------------------
    def sort_wire(self) -> None:
        """Sort columns by the v1 :func:`wire_sort_key` order, stably.

        The row tuples sort on (arrival, src, dst, cls, kind, seq) and
        then on the pre-sort position — exactly a stable sort by the v1
        key, so batch ordering is byte-compatible with the object path.
        Code order equals string order for ``cls``/``kind`` by
        construction (:data:`CLS_NAMES` / :data:`KIND_NAMES`).
        """
        n = len(self.src)
        if n <= 1:
            return
        rows = sorted(zip(self.arrival, self.src, self.dst, self.cls,
                          self.kind, self.seq, range(n), self.departure,
                          self.payload_len, self.sent_at))
        (self.arrival, self.src, self.dst, self.cls, self.kind, self.seq,
         _order, self.departure, self.payload_len, self.sent_at) = (
            [list(col) for col in zip(*rows)])

    # -- selection ------------------------------------------------------
    def take(self, indices: Sequence[int]) -> "WireBatch":
        """A new batch holding the given rows, in the given order."""
        out = WireBatch()
        out.src = [self.src[i] for i in indices]
        out.dst = [self.dst[i] for i in indices]
        out.cls = [self.cls[i] for i in indices]
        out.kind = [self.kind[i] for i in indices]
        out.seq = [self.seq[i] for i in indices]
        out.departure = [self.departure[i] for i in indices]
        out.arrival = [self.arrival[i] for i in indices]
        out.payload_len = [self.payload_len[i] for i in indices]
        out.sent_at = [self.sent_at[i] for i in indices]
        return out

    # -- rematerialization (destination-cell ingress only) --------------
    def packet(self, i: int) -> WirePacket:
        return WirePacket(
            src_host=self.src[i], dst_host=self.dst[i],
            cls=CLS_NAMES[self.cls[i]], kind=KIND_NAMES[self.kind[i]],
            seq=self.seq[i], departure_ns=self.departure[i],
            arrival_ns=self.arrival[i], payload_len=self.payload_len[i],
            sent_at=self.sent_at[i])

    def packets(self) -> List[WirePacket]:
        return [self.packet(i) for i in range(len(self.src))]

    # -- framing --------------------------------------------------------
    def encode(self) -> tuple:
        """The v2 frame: version, length, code bytes, ``array('q')``
        integer columns.  Arrays pickle as flat buffers, so one frame
        crosses the worker pipe as a handful of compact byte blobs
        instead of one tuple per packet.
        """
        return (WIRE_VERSION, len(self.src),
                bytes(self.cls), bytes(self.kind),
                array("q", self.src), array("q", self.dst),
                array("q", self.seq), array("q", self.departure),
                array("q", self.arrival), array("q", self.payload_len),
                array("q", self.sent_at))

    @classmethod
    def decode(cls, frame: tuple) -> "WireBatch":
        """Inverse of :meth:`encode`; checks version and invariants."""
        if not isinstance(frame, tuple) or not frame \
                or frame[0] != WIRE_VERSION:
            version = frame[0] if isinstance(frame, tuple) and frame else None
            raise ValueError(
                f"bad wire frame version: {version!r} "
                f"(this executor speaks wire format v{WIRE_VERSION})")
        (_v, n, cls_codes, kind_codes, src, dst, seq, departure, arrival,
         payload_len, sent_at) = frame
        batch = cls()
        batch.src = list(src)
        batch.dst = list(dst)
        batch.cls = list(cls_codes)
        batch.kind = list(kind_codes)
        batch.seq = list(seq)
        batch.departure = list(departure)
        batch.arrival = list(arrival)
        batch.payload_len = list(payload_len)
        batch.sent_at = list(sent_at)
        if not (len(batch.src) == len(batch.dst) == len(batch.cls)
                == len(batch.kind) == len(batch.seq) == len(batch.departure)
                == len(batch.arrival) == len(batch.payload_len)
                == len(batch.sent_at) == n):
            raise ValueError(f"wire frame column lengths disagree (n={n})")
        for arrival_ns, departure_ns in zip(batch.arrival, batch.departure):
            if arrival_ns < departure_ns:
                raise ValueError(
                    f"wire packet arrives at {arrival_ns} before it "
                    f"departs at {departure_ns}")
        for src_host, dst_host in zip(batch.src, batch.dst):
            if src_host == dst_host:
                raise ValueError(
                    f"host {src_host} packet routed to itself")
        return batch


def decode_batch(frame: tuple) -> WireBatch:
    """Module-level alias for :meth:`WireBatch.decode`."""
    return WireBatch.decode(frame)


#: The (shared, immutable) frame of an empty window — the executor and
#: workers compare against / reuse it so empty windows skip encoding,
#: decoding, and sorting entirely.
EMPTY_FRAME = WireBatch().encode()
