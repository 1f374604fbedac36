"""The simulated multi-hop fabric: ECMP routing + store-and-forward.

:class:`FabricNetwork` turns a :class:`~repro.fabric.spec.TopologySpec`
into an executable network.  The sharded executor hands it each
barrier's globally sorted :class:`~repro.overlay.wirefmt.WireBatch` of
departed packets; the fabric assigns every packet a path (ECMP over the
flow key, flowlet-aware), replays the hop-by-hop store-and-forward
timing (per-(link, direction) FIFO serialization + per-hop propagation
latency, carried across barriers), and returns the batch with its true
``arrival_ns`` column rewritten.

Transit is the serial section of every barrier, so it runs as a
**per-link FIFO scan** instead of a discrete-event loop:

- *Hop plans.*  Each packet resolves once to a cached hop plan keyed
  by ``(src, dst, path index, wire_len)``: one flat tuple of the first
  link's queue, then per hop its serialization ns and the next link's
  queue.  Serialization is ``int(wire_len / bytes_per_ns)``, computed
  once per plan, never per hop.
- *The scan.*  Directed links (dense key ``2*link_index + direction``)
  are visited in :func:`link_rank` order.  Each link sorts its
  pending entries ``(t, order, plan, hop)``, serves them FIFO from its
  carried busy-until value, adds its propagation latency, and appends
  each packet's next-hop entry to the downstream link's queue.  A last
  hop emits the packet's arrival instead.

Why it is exact: only each link's service order matters, and that
order is the order of its entries.  A discrete-event loop over one
global heap of ``(t, departed, order)`` entries pops in globally
non-decreasing order, because every push (``finish + latency``) is
strictly later than the pop that made it; so each link serves its
entries in sorted order — precisely what the scan does.  ``departed``
is non-decreasing in ``order`` (rows are departure-sorted), so ``(t,
order)`` sorts the same way and ``order`` is unique, so no plan is
ever compared.  The heap's completion order is the last-hop service
key ``(t, order)``; the output wire sort breaks its ties on that key,
so the returned batch is byte-identical to the heap's.
``tests/test_fabric_transit_oracle.py`` keeps the heap loop as the
differential reference.

The scan needs every link's entries complete before the link is
served, i.e. a topological order of directed links under "a shortest
path crosses link A then link B".  Up/down fat-trees, meshes and the
two-host pair are acyclic; a spec whose shortest paths form a
directed-link cycle (a ring of four or more switches) is rejected with a
``ValueError`` when the :class:`FabricNetwork` is built, before any
worker starts.

Determinism: the input batch is the *globally sorted union* of all
shards' outboxes (executor contract), path enumeration orders neighbors
by name, the link rank is derived from spec order alone, and the ECMP
hash is process-stable — so arrivals, per-link counters, and flowlet
statistics are identical at any shard count and for in-process vs
subprocess workers.  The stats feed the cluster digest.

Lookahead safety: every path traverses links whose summed latency is at
least :func:`min_path_latency_ns`, so ``arrival >= departure +
min_path_latency_ns`` — using that minimum as the executor's window
width preserves the conservative-lookahead guarantee that no delivered
packet is ever in a cell's past.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from repro.fabric.ecmp import FlowletTable
from repro.fabric.spec import TopologySpec
from repro.overlay.wirefmt import CLS_NAMES, KIND_NAMES, WireBatch

__all__ = ["FabricNetwork", "equal_cost_paths", "link_rank",
           "min_path_latency_ns"]

#: A path as hop directives: (link index into spec.links, direction)
#: with direction 0 = a->b, 1 = b->a.
Hop = Tuple[int, int]
Path = Tuple[Hop, ...]


def _adjacency(spec: TopologySpec) -> Dict[str, List[Tuple[str, int, int]]]:
    """name -> sorted [(neighbor, link_index, direction)]."""
    adj: Dict[str, List[Tuple[str, int, int]]] = {}
    for index, link in enumerate(spec.links):
        adj.setdefault(link.a, []).append((link.b, index, 0))
        adj.setdefault(link.b, []).append((link.a, index, 1))
    for neighbors in adj.values():
        neighbors.sort()
    return adj


@functools.lru_cache(maxsize=None)
def equal_cost_paths(spec: TopologySpec, src: str, dst: str
                     ) -> Tuple[Path, ...]:
    """All minimum-hop paths src -> dst, deterministically ordered.

    BFS computes hop distances from *src*; every shortest path is then
    enumerated over the BFS DAG with an explicit DFS stack (neighbors
    name-sorted, pushed in reverse so pop order equals the recursive
    enumeration's), yielding the canonical path list ECMP indexes into.
    The iterative walk means oversubscribed/large topologies can never
    hit Python's recursion limit, however deep the fabric.
    """
    adj = _adjacency(spec)
    if src not in adj or dst not in adj:
        raise ValueError(f"no fabric connectivity for {src!r} -> {dst!r}")
    dist = {src: 0}
    frontier = [src]
    while frontier and dst not in dist:
        nxt: List[str] = []
        for node in frontier:
            for neighbor, _index, _direction in adj[node]:
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    nxt.append(neighbor)
        frontier = nxt
    if dst not in dist:
        raise ValueError(f"no path {src!r} -> {dst!r} in topology "
                         f"{spec.kind!r}")

    paths: List[Path] = []
    dist_dst = dist[dst]
    stack: List[Tuple[str, Path]] = [(src, ())]
    while stack:
        node, hops = stack.pop()
        if node == dst:
            paths.append(hops)
            continue
        next_dist = dist[node] + 1
        for neighbor, index, direction in reversed(adj[node]):
            if dist.get(neighbor) == next_dist and next_dist <= dist_dst:
                stack.append((neighbor, hops + ((index, direction),)))
    return tuple(paths)


@functools.lru_cache(maxsize=None)
def min_path_latency_ns(spec: TopologySpec) -> int:
    """The smallest propagation latency between any two hosts, taken
    over the minimum-hop (ECMP-eligible) paths the fabric actually
    routes on.

    This is the executor's conservative lookahead horizon: serialization
    only adds delay, so every cross-host arrival is at least this far
    past its departure.

    Computed with one BFS + shortest-path-DAG relaxation per source
    host — O(hosts x (V + E)) — instead of enumerating every equal-cost
    path for every pair (which is combinatorial on fat-trees).  The
    value is identical: a node's minimum latency over shortest-hop
    paths is the minimum over its BFS predecessors of theirs plus the
    connecting link, and every layer is final before the next relaxes.
    """
    adj = _adjacency(spec)
    links = spec.links
    best = None
    host_names = {h.name for h in spec.hosts}
    for i, a in enumerate(spec.hosts):
        targets = {b.name for b in spec.hosts[i + 1:]}
        if not targets:
            continue
        if a.name not in adj:
            b = spec.hosts[i + 1]
            raise ValueError(
                f"no fabric connectivity for {a.name!r} -> {b.name!r}")
        dist = {a.name: 0}
        min_lat = {a.name: 0}
        frontier = [a.name]
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                node_dist = dist[node]
                node_lat = min_lat[node]
                for neighbor, index, _direction in adj[node]:
                    seen = dist.get(neighbor)
                    if seen is None:
                        dist[neighbor] = node_dist + 1
                        min_lat[neighbor] = node_lat + links[index].latency_ns
                        nxt.append(neighbor)
                    elif seen == node_dist + 1:
                        candidate = node_lat + links[index].latency_ns
                        if candidate < min_lat[neighbor]:
                            min_lat[neighbor] = candidate
            frontier = nxt
        for name in targets:
            if name not in dist:
                raise ValueError(f"no path {a.name!r} -> {name!r} in "
                                 f"topology {spec.kind!r}")
            if best is None or min_lat[name] < best:
                best = min_lat[name]
    if best is None:
        raise ValueError("topology has no host-to-host path")
    return best


@functools.lru_cache(maxsize=None)
def link_rank(spec: TopologySpec) -> Tuple[int, ...]:
    """Directed-link keys (``2*link_index + direction``) of every link a
    host-to-host shortest path crosses, in a topological order of the
    relation "some shortest path crosses link A, then link B".

    This is the order :meth:`FabricNetwork.transit_batch` serves links
    in: every entry of a link comes from links ranked before it.  Built
    like :func:`min_path_latency_ns`, one BFS per source host —
    O(hosts x (V + E)): in the BFS DAG of source *s*, a link ``u->v``
    is followed by ``v->w`` exactly when ``v->w`` is a DAG edge and
    some destination host is DAG-reachable from ``w``.  Rather than
    listing the in x out pairs at each node, each (source, node) gets a
    junction vertex that its in-links feed and its out-links leave, so
    the graph stays linear in the DAG's size.  Kahn's algorithm over
    int vertices numbered in spec order makes the rank independent of
    string hashing.

    Raises ``ValueError`` naming the links of a cycle when the relation
    has one (e.g. a ring of four or more switches): the scan cannot
    serve such a fabric exactly.
    """
    adj = _adjacency(spec)
    host_names = {h.name for h in spec.hosts}
    n_keys = 2 * len(spec.links)
    succ: List[List[int]] = [[] for _ in range(n_keys)]
    crossed = [False] * n_keys
    for host in spec.hosts:
        src = host.name
        if src not in adj:
            continue
        dist = {src: 0}
        bfs = [src]
        for node in bfs:
            for neighbor, _index, _direction in adj[node]:
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    bfs.append(neighbor)
        # Nodes some other host is DAG-reachable from, deepest first.
        leads_to_host = set()
        for node in reversed(bfs):
            below = dist[node] + 1
            if (node != src and node in host_names) or any(
                    dist[neighbor] == below and neighbor in leads_to_host
                    for neighbor, _index, _direction in adj[node]):
                leads_to_host.add(node)
        junction: Dict[str, int] = {}
        for node in bfs:
            below = dist[node] + 1
            for neighbor, index, direction in adj[node]:
                if dist[neighbor] != below or neighbor not in leads_to_host:
                    continue
                key = 2 * index + direction
                crossed[key] = True
                if node in junction:
                    succ[junction[node]].append(key)
                vertex = junction.get(neighbor)
                if vertex is None:
                    vertex = junction[neighbor] = len(succ)
                    succ.append([])
                succ[key].append(vertex)
    indegree = [0] * len(succ)
    for targets in succ:
        for target in targets:
            indegree[target] += 1
    ready = [v for v in range(len(succ)) if not indegree[v]]
    for vertex in ready:
        for target in succ[vertex]:
            indegree[target] -= 1
            if not indegree[target]:
                ready.append(target)
    if len(ready) < len(succ):
        raise ValueError(
            f"topology {spec.kind!r}: shortest paths cross the directed "
            f"links {', '.join(_cycle_names(spec, succ, indegree))} in a "
            f"cycle, so fabric transit has no link order to serve them in")
    return tuple(v for v in ready if v < n_keys and crossed[v])


def _cycle_names(spec: TopologySpec, succ: List[List[int]],
                 indegree: List[int]) -> List[str]:
    """Names of the links on one cycle left over by Kahn's algorithm.

    Every vertex Kahn could not release still has an unreleased
    predecessor, so walking predecessors from one must revisit a vertex.
    """
    pred: Dict[int, int] = {}
    for vertex, targets in enumerate(succ):
        if indegree[vertex]:
            for target in targets:
                if indegree[target]:
                    pred.setdefault(target, vertex)
    walk = [min(pred)]
    while walk[-1] not in walk[:-1]:
        walk.append(pred[walk[-1]])
    cycle = walk[walk.index(walk[-1]):-1][::-1]
    links = spec.links
    n_keys = 2 * len(links)
    names = []
    for key in cycle:
        if key < n_keys:
            link = links[key // 2]
            a, b = (link.a, link.b) if key % 2 == 0 else (link.b, link.a)
            names.append(f"{a}->{b}")
    return names


class FabricNetwork:
    """Executable fabric state for one cluster run (one per executor)."""

    def __init__(self, spec: TopologySpec, *, seed: int = 0,
                 header_bytes: int = 0) -> None:
        self.spec = spec
        self.header_bytes = header_bytes
        salt = (spec.ecmp.hash_salt << 32) ^ (seed & 0xFFFF_FFFF)
        self.flowlets = FlowletTable(spec.ecmp.flowlet_gap_ns, salt)
        links = spec.links
        #: Directed-link keys in scan order; raises here, before any
        #: worker starts, when the spec has no such order.
        self._rank = link_rank(spec)
        #: dense (link, direction) key = 2*link_index + direction ->
        #: busy-until ns, carried across barriers so FIFO serialization
        #: spans window boundaries.
        self._busy = [0] * (2 * len(links))
        #: Same key -> this window's pending ``(t, order, plan, hop)``
        #: entries; emptied as each link is served.
        self._queues: List[list] = [[] for _ in range(2 * len(links))]
        #: Same key -> propagation latency ns.
        self._latency = [link.latency_ns for link in links
                         for _direction in (0, 1)]
        #: (src, dst, path index, wire_len) -> hop plan (see _plan).
        self._plans: Dict[Tuple[int, int, int, int], tuple] = {}
        #: (src, dst, cls_code, kind_code) -> (string flow key, its
        #: equal-cost paths, {path index -> packets}); the counts are
        #: stringified only in :meth:`stats`, never per packet.
        self._flow_paths: Dict[Tuple[int, int, int, int],
                               Tuple[tuple, Tuple[Path, ...],
                                     Dict[int, int]]] = {}
        self.transited = 0
        #: "a->b" / "b->a" per dense direction key (stats/debug only).
        self._dir_names = [name for link in links
                           for name in (f"{link.a}->{link.b}",
                                        f"{link.b}->{link.a}")]
        self._host_names = [host.name for host in spec.hosts]
        #: (src_host, dst_host) -> equal-cost path tuple, resolved
        #: lazily (one spec-level lru_cache hit per *pair*, never per
        #: packet).
        self._routes: Dict[Tuple[int, int], Tuple[Path, ...]] = {}
        #: Sampled flow-record tap (:class:`repro.flows.FabricFlowTap`)
        #: or None — the ``kernel.flows`` gating discipline.  Consulted
        #: in the path-assignment loop so records carry the actual
        #: ECMP/flowlet link labels; the fabric is executor-owned and
        #: walks the globally sorted union, so its samples are
        #: shard-count independent.
        self.flows = None

    # ------------------------------------------------------------------
    def _paths_for(self, src: int, dst: int) -> Tuple[Path, ...]:
        pair = (src, dst)
        paths = self._routes.get(pair)
        if paths is None:
            names = self._host_names
            paths = equal_cost_paths(self.spec, names[src], names[dst])
            self._routes[pair] = paths
        return paths

    def _new_flow(self, src: int, dst: int, cls_code: int,
                  kind_code: int) -> tuple:
        # The flowlet/ECMP hash must see the v1 string flow key — codes
        # would change the sha256 input and re-route flows.
        state = self._flow_paths[(src, dst, cls_code, kind_code)] = (
            (src, dst, CLS_NAMES[cls_code], KIND_NAMES[kind_code]),
            self._paths_for(src, dst), {})
        return state

    def _plan(self, src: int, dst: int, index: int, wire_len: int) -> tuple:
        """The hop plan of one (path, frame size): the first link's
        queue, then per hop its serialization ns and the next link's
        queue (None after the last hop)."""
        links = self.spec.links
        queues = self._queues
        plan: list = []
        for link_index, direction in self._paths_for(src, dst)[index]:
            queue = queues[2 * link_index + direction]
            plan += (queue, int(wire_len / links[link_index].bytes_per_ns))
        plan.append(None)
        plan = self._plans[(src, dst, index, wire_len)] = tuple(plan)
        return plan

    def transit_batch(self, batch: WireBatch) -> WireBatch:
        """Route one barrier's departures, columnar end to end.

        The returned batch carries true arrivals and is sorted in
        :meth:`~repro.overlay.wirefmt.WireBatch.sort_wire` order.  No
        :class:`WirePacket` is ever materialized.
        """
        n = len(batch)
        if n == 0:
            return batch
        # Flowlet/path assignment walks departures in global time order
        # so idle-gap detection is partition-independent.  The row
        # tuples sort on (departure, wire key, input index) — a stable
        # departure-major sort, matching the v1 object path.
        rows = sorted(zip(batch.departure, batch.arrival, batch.src,
                          batch.dst, batch.cls, batch.kind, batch.seq,
                          range(n), batch.payload_len, batch.sent_at))
        flow_paths = self._flow_paths
        assign = self.flowlets.assign
        header_bytes = self.header_bytes
        flows = self.flows
        plans = self._plans
        for order, row in enumerate(rows):
            departure = row[0]
            state = flow_paths.get(row[2:6])
            if state is None:
                state = self._new_flow(*row[2:6])
            flow, paths, uses = state
            index = assign(flow, departure, len(paths))
            uses[index] = uses.get(index, 0) + 1
            src, dst = flow[0], flow[1]
            wire_len = row[8] + header_bytes
            if flows is not None:
                flows.on_transit(src, dst, row[4], departure, wire_len,
                                 paths[index])
            plan = plans.get((src, dst, index, wire_len))
            if plan is None:
                plan = self._plan(src, dst, index, wire_len)
            plan[0].append((departure, order, plan, 1))

        # Serve every link FIFO in rank order; (t, order) is unique, so
        # sorting never compares plans.  A last hop emits the output
        # row, keyed for the wire sort with the heap's completion order
        # (t, order) as the tie-break — see the module docs.
        busy = self._busy
        queues = self._queues
        latency_by_key = self._latency
        done = []
        for key in self._rank:
            queue = queues[key]
            if not queue:
                continue
            queue.sort()
            finish = busy[key]
            latency = latency_by_key[key]
            for t, order, plan, hop in queue:
                if t > finish:
                    finish = t
                finish += plan[hop]
                next_queue = plan[hop + 1]
                if next_queue is None:
                    row = rows[order]
                    done.append((finish + latency, row[2], row[3], row[4],
                                 row[5], row[6], t, order, row[0], row[8],
                                 row[9]))
                else:
                    next_queue.append((finish + latency, order, plan,
                                       hop + 2))
            busy[key] = finish
            queue.clear()
        self.transited += n

        done.sort()
        out = WireBatch()
        (out.arrival, out.src, out.dst, out.cls, out.kind, out.seq, _t,
         _order, out.departure, out.payload_len, out.sent_at) = (
            [list(col) for col in zip(*done)])
        return out

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Digest-grade summary of what the fabric did (deterministic).

        Flow keys are stringified here — once per run, not per packet —
        and sorted as strings, so the output is byte-identical to the
        v1 per-packet f-string bookkeeping.
        """
        named = {f"{src}->{dst}:{cls}:{kind}": uses
                 for (src, dst, cls, kind), _paths, uses
                 in self._flow_paths.values()}
        multipath = {flow: uses for flow, uses in named.items()
                     if len(uses) > 1}
        # Every packet of a flow crossed each hop of its path once, so
        # per-path counts give per-link counts.  They fold onto
        # direction *names*, because v1 counted by name and parallel
        # links sharing endpoints must keep merging for the digest to
        # stay byte-identical.
        dir_names = self._dir_names
        link_by_name: Dict[str, int] = {}
        for _flow, paths, uses in self._flow_paths.values():
            for index, count in uses.items():
                for link_index, direction in paths[index]:
                    name = dir_names[2 * link_index + direction]
                    link_by_name[name] = link_by_name.get(name, 0) + count
        return {
            "packets": self.transited,
            "flows": len(named),
            "flows_multipath": len(multipath),
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

    @property
    def lookahead_ns(self) -> int:
        return min_path_latency_ns(self.spec)
