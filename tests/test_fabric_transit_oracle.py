"""Differential check: the per-link FIFO scan against the event heap.

:class:`~repro.fabric.network.FabricNetwork` serves links in
:func:`~repro.fabric.network.link_rank` order; ``tests/fabric_oracle.py``
replays the same windows through one global event heap with per-packet
ECMP hashing.  Over random multi-window traffic — coarse departure grids
so ties are common, zero-serialization frames so full wire-key ties
reach the completion-order tie-break, and slow links so FIFO backlog
crosses window boundaries — both must agree on every output column and
its order, ``stats()``, the carried busy-until state, and the sampled
flow records.
"""

import random

import pytest

from repro.fabric import FabricNetwork, Topology, equal_cost_paths
from repro.fabric.network import link_rank
from repro.fabric.spec import HostSpec, LinkSpec, SwitchSpec, TopologySpec
from repro.flows import FabricFlowTap, FlowCollector, FlowExportConfig
from repro.overlay.wirefmt import CLS_NAMES, KIND_NAMES, WireBatch, WirePacket
from repro.shard import ClusterConfig, run_cluster
from repro.shard.worker import PipeShardWorker
from repro.sim.units import MS
from tests.fabric_oracle import HeapFabric

SPECS = {
    "fat_tree4": Topology.fat_tree(4),
    "fat_tree4_hosts8": Topology.fat_tree(4, hosts=8),
    "mesh5": Topology.mesh(5),
    "fat_tree4_slow": Topology.fat_tree(4, bytes_per_ns=0.3),
    "fat_tree4_hosts8_slow": Topology.fat_tree(4, hosts=8, bytes_per_ns=0.3),
    "mesh5_slow": Topology.mesh(5, bytes_per_ns=0.3),
}

COLUMNS = ("src", "dst", "cls", "kind", "seq", "departure", "arrival",
           "payload_len", "sent_at")


def random_window(rng, spec, start, width, count):
    packets = []
    hosts = spec.host_count
    grid = rng.choice((1, 1_000, 7_919))
    for _ in range(count):
        src = rng.randrange(hosts)
        dst = rng.randrange(hosts - 1)
        dst += dst >= src
        departure = start + rng.randrange(0, width, grid)
        packets.append(WirePacket(
            src_host=src, dst_host=dst, cls=rng.choice(CLS_NAMES),
            kind=rng.choice(KIND_NAMES), seq=rng.randrange(4),
            departure_ns=departure,
            arrival_ns=departure + rng.randrange(3) * 1_000,
            payload_len=rng.choice((4, 8, 16, 64, 1_400)),
            sent_at=departure - rng.randrange(2) * 500))
    rng.shuffle(packets)
    return packets


def attach_tap(net):
    net.flows = FabricFlowTap(
        FlowCollector(FlowExportConfig(sample_rate=3),
                      scope="fabric", seed=5),
        host_names=[h.name for h in net.spec.hosts],
        dir_names=net._dir_names, cls_names=CLS_NAMES)


@pytest.mark.parametrize("tap", [False, True], ids=["untapped", "tapped"])
@pytest.mark.parametrize("header_bytes", [0, 50])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_scan_matches_event_heap(name, header_bytes, tap):
    spec = SPECS[name]
    rng = random.Random(f"{name}/{header_bytes}/{tap}")
    seed = rng.randrange(1_000)
    scan = FabricNetwork(spec, seed=seed, header_bytes=header_bytes)
    heap = HeapFabric(spec, seed=seed, header_bytes=header_bytes)
    if tap:
        attach_tap(scan)
        attach_tap(heap)
    width = scan.lookahead_ns
    for window in range(12):
        start = window * width
        if tap:
            scan.flows.collector.expire(start)
            heap.flows.collector.expire(start)
        count = rng.choice((0, 1, 5, 40, 150))
        packets = random_window(rng, spec, start, width, count)
        ours = scan.transit_batch(WireBatch.from_packets(packets))
        want = heap.transit_batch(WireBatch.from_packets(packets))
        for column in COLUMNS:
            assert getattr(ours, column) == getattr(want, column), \
                (window, column)
        assert scan._busy == [heap._busy.get(key, 0)
                              for key in range(len(scan._busy))], window
        assert scan.stats() == heap.stats(), window
    if tap:
        assert scan.flows.collector.finalize() \
            == heap.flows.collector.finalize()


def ring(switches):
    """One host per switch, switches in a ring: shortest paths chase
    each other round it, so no link order can serve them."""
    names = [f"s{i}" for i in range(switches)]
    return TopologySpec(
        kind="ring",
        hosts=tuple(HostSpec(i, f"h{i}", attach=name)
                    for i, name in enumerate(names)),
        switches=tuple(SwitchSpec(name) for name in names),
        links=tuple(LinkSpec(name, names[(i + 1) % switches])
                    for i, name in enumerate(names))
        + tuple(LinkSpec(f"h{i}", name) for i, name in enumerate(names)))


@pytest.mark.parametrize("spec", [
    Topology.fat_tree(4), Topology.fat_tree(6), Topology.fat_tree(4, hosts=8),
    Topology.mesh(5), Topology.two_host(), ring(3)],
    ids=["fat_tree4", "fat_tree6", "fat_tree4_hosts8", "mesh5", "two_host",
         "ring3"])
def test_rank_orders_every_routed_hop_pair(spec):
    rank = {key: position for position, key in enumerate(link_rank(spec))}
    crossed = set()
    for a in spec.hosts:
        for b in spec.hosts:
            if a is b:
                continue
            for path in equal_cost_paths(spec, a.name, b.name):
                keys = [2 * index + direction for index, direction in path]
                crossed.update(keys)
                assert all(rank[x] < rank[y] for x, y in zip(keys, keys[1:]))
    assert crossed == set(rank)


def test_link_cycle_is_rejected_before_any_worker_starts(monkeypatch):
    def start_worker(*args, **kwargs):
        raise AssertionError("a shard worker started")

    monkeypatch.setattr(PipeShardWorker, "__init__", start_worker)
    config = ClusterConfig(hosts=6, users=60, duration_ns=2 * MS,
                           warmup_ns=MS, topology=ring(6))
    with pytest.raises(ValueError, match="directed links") as exc:
        run_cluster(config, shards=2, processes=True)
    names = str(exc.value)
    clockwise = [f"s{i}->s{(i + 1) % 6}" for i in range(6)]
    counter = [f"s{(i + 1) % 6}->s{i}" for i in range(6)]
    assert all(n in names for n in clockwise) \
        or all(n in names for n in counter), names
