"""Reference fabric transit: one global event heap over per-hop entries.

This is the discrete-event formulation that
:meth:`repro.fabric.network.FabricNetwork.transit_batch` must match
byte for byte.  It pops ``(t, departed, order, hop)`` entries from a
single heap, serves each hop FIFO on its (link, direction), pushes the
next hop, and counts packets per directed link as it goes; the ECMP
choice is hashed afresh for every packet.  It is deliberately the
simplest statement of the semantics, not a fast one.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.fabric.ecmp import ecmp_index
from repro.fabric.network import equal_cost_paths
from repro.fabric.spec import TopologySpec
from repro.overlay.wirefmt import CLS_NAMES, KIND_NAMES, WireBatch


class AlwaysHashFlowlets:
    """Flowlet ECMP that hashes every packet (no in-flowlet reuse)."""

    def __init__(self, gap_ns: int, salt: int) -> None:
        self.gap_ns = gap_ns
        self.salt = salt
        self._flows: Dict[Tuple, Tuple[int, int, int]] = {}
        self.rehashes = 0
        self.path_changes = 0

    def assign(self, flow: Tuple, now_ns: int, n_paths: int) -> int:
        state = self._flows.get(flow)
        generation = 0
        if state is not None:
            generation = state[1]
            if now_ns - state[0] > self.gap_ns:
                generation += 1
                self.rehashes += 1
        index = ecmp_index(self.salt, flow, generation, n_paths)
        if state is not None and generation != state[1] \
                and index != state[2]:
            self.path_changes += 1
        self._flows[flow] = (now_ns, generation, index)
        return index


class HeapFabric:
    """Event-heap transit with the same constructor, state and stats."""

    def __init__(self, spec: TopologySpec, *, seed: int = 0,
                 header_bytes: int = 0) -> None:
        self.spec = spec
        self.header_bytes = header_bytes
        salt = (spec.ecmp.hash_salt << 32) ^ (seed & 0xFFFF_FFFF)
        self.flowlets = AlwaysHashFlowlets(spec.ecmp.flowlet_gap_ns, salt)
        #: 2*link_index + direction -> busy-until ns.
        self._busy: Dict[int, int] = {}
        #: 2*link_index + direction -> packets served.
        self._link_packets: Dict[int, int] = {}
        self._flow_paths: Dict[Tuple[int, int, int, int],
                               Dict[int, int]] = {}
        self.transited = 0
        self._dir_names = [name for link in spec.links
                           for name in (f"{link.a}->{link.b}",
                                        f"{link.b}->{link.a}")]
        self._host_names = [host.name for host in spec.hosts]
        self.flows = None

    def transit_batch(self, batch: WireBatch) -> WireBatch:
        n = len(batch)
        if n == 0:
            return batch
        rows = sorted(zip(batch.departure, batch.arrival, batch.src,
                          batch.dst, batch.cls, batch.kind, batch.seq,
                          range(n), batch.payload_len, batch.sent_at))
        links = self.spec.links
        names = self._host_names
        path_by_order = []
        wire_len_by_order = []
        heap: List[Tuple[int, int, int, int]] = []
        for order, row in enumerate(rows):
            departure, _arr, src, dst, cls_code, kind_code = row[:6]
            paths = equal_cost_paths(self.spec, names[src], names[dst])
            flow = (src, dst, CLS_NAMES[cls_code], KIND_NAMES[kind_code])
            index = self.flowlets.assign(flow, departure, len(paths))
            uses = self._flow_paths.setdefault(
                (src, dst, cls_code, kind_code), {})
            uses[index] = uses.get(index, 0) + 1
            path_by_order.append(paths[index])
            wire_len_by_order.append(row[8] + self.header_bytes)
            if self.flows is not None:
                self.flows.on_transit(src, dst, cls_code, departure,
                                      wire_len_by_order[-1], paths[index])
            heapq.heappush(heap, (departure, departure, order, 0))

        completed: List[int] = []
        arrival_by_order = [0] * n
        while heap:
            t, departed, order, hop = heapq.heappop(heap)
            path = path_by_order[order]
            link_index, direction = path[hop]
            link = links[link_index]
            key = 2 * link_index + direction
            start = max(t, self._busy.get(key, 0))
            finish = start + int(wire_len_by_order[order]
                                 / link.bytes_per_ns)
            self._busy[key] = finish
            self._link_packets[key] = self._link_packets.get(key, 0) + 1
            t_next = finish + link.latency_ns
            if hop + 1 == len(path):
                arrival_by_order[order] = t_next
                completed.append(order)
            else:
                heapq.heappush(heap, (t_next, departed, order, hop + 1))
        self.transited += n

        out = WireBatch()
        out.src = [rows[o][2] for o in completed]
        out.dst = [rows[o][3] for o in completed]
        out.cls = [rows[o][4] for o in completed]
        out.kind = [rows[o][5] for o in completed]
        out.seq = [rows[o][6] for o in completed]
        out.departure = [rows[o][0] for o in completed]
        out.arrival = [arrival_by_order[o] for o in completed]
        out.payload_len = [rows[o][8] for o in completed]
        out.sent_at = [rows[o][9] for o in completed]
        out.sort_wire()
        return out

    def stats(self) -> Dict[str, object]:
        named = {f"{src}->{dst}:{CLS_NAMES[c]}:{KIND_NAMES[k]}": uses
                 for (src, dst, c, k), uses in self._flow_paths.items()}
        link_by_name: Dict[str, int] = {}
        for key, count in self._link_packets.items():
            name = self._dir_names[key]
            link_by_name[name] = link_by_name.get(name, 0) + count
        return {
            "packets": self.transited,
            "flows": len(named),
            "flows_multipath": sum(len(u) > 1 for u in named.values()),
            "paths_used_max": max(
                (len(uses) for uses in named.values()), default=0),
            "flowlet_rehashes": self.flowlets.rehashes,
            "flowlet_path_changes": self.flowlets.path_changes,
            "links_used": len(link_by_name),
            "link_packets_max": max(link_by_name.values(), default=0),
            "flow_paths": {flow: {str(i): count
                                  for i, count in sorted(uses.items())}
                           for flow, uses in sorted(named.items())},
        }
