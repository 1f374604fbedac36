"""Fabric behavior: ECMP determinism, flowlets, cluster integration."""

import pytest

from repro.fabric import FabricNetwork, Topology, ecmp_index
from repro.fabric.ecmp import FlowletTable
from repro.overlay.wirefmt import WireBatch, WirePacket
from repro.shard.cluster import ClusterConfig, cluster_digest
from repro.shard.executor import run_cluster
from repro.shard.worker import partition_hosts
from repro.sim.units import MS

FAT8 = Topology.fat_tree(4, hosts=8)


def small_config(seed=0, **overrides) -> ClusterConfig:
    base = dict(hosts=8, users=600, duration_ns=4 * MS, warmup_ns=1 * MS,
                seed=seed, topology=FAT8)
    base.update(overrides)
    return ClusterConfig(**base)


def wp(seq, *, src=0, dst=7, departure_ns=0, cls="hi"):
    return WirePacket(src_host=src, dst_host=dst, cls=cls, kind="req",
                      seq=seq, departure_ns=departure_ns,
                      arrival_ns=departure_ns + 50_000, payload_len=64,
                      sent_at=departure_ns)


def transit(net, packets):
    """Route *packets* through the columnar fabric transit."""
    return net.transit_batch(WireBatch.from_packets(packets)).packets()


class TestEcmpHash:
    def test_deterministic_and_in_range(self):
        flow = (0, 7, "hi", "req")
        first = ecmp_index(7, flow, 0, 4)
        assert first == ecmp_index(7, flow, 0, 4)
        assert 0 <= first < 4
        assert ecmp_index(7, flow, 0, 1) == 0

    def test_salt_generation_and_flow_vary_the_index(self):
        flows = [(s, d, "hi", "req") for s in range(8) for d in range(8)]
        spread = {ecmp_index(0, f, 0, 4) for f in flows}
        assert spread == {0, 1, 2, 3}
        flow = flows[0]
        by_gen = {ecmp_index(0, flow, g, 64) for g in range(32)}
        assert len(by_gen) > 1
        by_salt = {ecmp_index(s, flow, 0, 64) for s in range(32)}
        assert len(by_salt) > 1


class TestFlowletTable:
    def test_within_gap_keeps_the_path(self):
        table = FlowletTable(gap_ns=100_000, salt=1)
        flow = (0, 7, "hi", "req")
        first = table.assign(flow, 0, 4)
        for t in range(10_000, 100_000, 10_000):
            assert table.assign(flow, t, 4) == first
        assert table.rehashes == 0

    def test_idle_gap_rehashes(self):
        table = FlowletTable(gap_ns=100_000, salt=1)
        flow = (0, 7, "hi", "req")
        seen = {table.assign(flow, 0, 8)}
        t = 0
        for _ in range(40):
            t += 200_000  # every send exceeds the idle gap
            seen.add(table.assign(flow, t, 8))
        assert table.rehashes == 40
        assert table.path_changes > 0
        assert len(seen) > 1


class TestFabricNetwork:
    def test_transit_is_deterministic(self):
        packets = [wp(i, departure_ns=i * 1_000) for i in range(50)]
        outs = []
        for _ in range(2):
            net = FabricNetwork(FAT8, seed=3)
            outs.append((transit(net, packets), net.stats()))
        assert outs[0] == outs[1]

    def test_arrivals_respect_the_lookahead(self):
        net = FabricNetwork(FAT8, seed=0)
        for out in transit(net, [wp(i, departure_ns=i * 500)
                                 for i in range(20)]):
            assert out.arrival_ns >= out.departure_ns + net.lookahead_ns

    def test_bursty_flow_spreads_over_paths(self):
        # One flow sending bursts separated by more than the flowlet
        # gap: ECMP alone would pin it to one path, flowlet switching
        # must spread it.
        net = FabricNetwork(FAT8, seed=1)
        packets = []
        t = 0
        for burst in range(12):
            for i in range(3):
                packets.append(wp(0, departure_ns=t + i * 1_000))
            t += 400_000  # idle gap >> flowlet_gap_ns (100 us)
        transit(net, packets)
        stats = net.stats()
        assert stats["flowlet_rehashes"] == 11
        (paths,) = stats["flow_paths"].values()
        assert len(paths) > 1
        assert stats["flowlet_path_changes"] > 0


class TestPartitioning:
    def test_legacy_split_is_unchanged(self):
        assert partition_hosts(16, 4) == [[0, 1, 2, 3], [4, 5, 6, 7],
                                          [8, 9, 10, 11], [12, 13, 14, 15]]
        assert partition_hosts(2, 8) == [[0], [1]]

    def test_rack_aligned_split(self):
        spec16 = Topology.fat_tree(4)
        # k=4 racks hold 2 hosts: every block boundary lands on an even
        # host id, and the union is every host exactly once.
        for shards in (2, 3, 4, 5, 8):
            blocks = partition_hosts(16, shards, topology=spec16)
            assert [h for b in blocks for h in b] == list(range(16))
            assert all(b for b in blocks)
            assert all(b[0] % 2 == 0 for b in blocks)


@pytest.mark.slow
class TestFabricCluster:
    def test_digest_deterministic_and_partition_independent(self):
        config = small_config(seed=3)
        runs = {
            "s1": run_cluster(config, shards=1),
            "s1-again": run_cluster(config, shards=1),
            "s3-inproc": run_cluster(config, shards=3, processes=False),
            "s2-subproc": run_cluster(config, shards=2, processes=True),
        }
        digests = {name: cluster_digest(r) for name, r in runs.items()}
        assert len(set(digests.values())) == 1, digests
        for result in runs.values():
            assert result.conservation["exact"]

    def test_seed_changes_the_digest(self):
        one = run_cluster(small_config(seed=0), shards=1)
        two = run_cluster(small_config(seed=1), shards=1)
        assert cluster_digest(one) != cluster_digest(two)

    def test_fabric_stats_show_ecmp_spread(self):
        result = run_cluster(small_config(), shards=1)
        stats = result.fabric
        assert stats["paths_used_max"] > 1
        assert stats["flows_multipath"] > 0
        assert stats["links_used"] == 48
        assert stats["packets"] == result.conservation["cross_routed"]

    def test_lookahead_is_min_path_latency(self):
        assert small_config().lookahead_ns == 50_000  # 2 hops same-ToR
        legacy = ClusterConfig(hosts=4, fabric_latency_ns=70_000)
        assert legacy.lookahead_ns == 70_000

    def test_topology_in_digest_payload_and_round_trip(self):
        config = small_config()
        assert "topology" in config.to_dict()
        assert ClusterConfig.from_dict(config.to_dict()) == config
        legacy = ClusterConfig(hosts=4)
        assert "topology" not in legacy.to_dict()
        assert ClusterConfig.from_dict(legacy.to_dict()) == legacy

    def test_host_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="describes 8 hosts"):
            ClusterConfig(hosts=4, topology=FAT8)

    def test_two_host_spec_rejected(self):
        with pytest.raises(ValueError, match="Scenario.on"):
            ClusterConfig(hosts=2, topology=Topology.two_host())
