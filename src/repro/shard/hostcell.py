"""One cluster host as a self-contained simulation cell.

Every host in a :class:`~repro.shard.cluster.ClusterConfig` runs in its
own :class:`~repro.sim.engine.Simulator` — *always*, even when several
hosts share a shard worker or the whole cluster runs in one process.
Partitioning therefore never changes what any cell computes; it only
changes which OS process hosts it.  That is the entire basis for
"same digest at any shard count".

A cell contains:

- a full server :class:`~repro.bench.testbed.Testbed` (the kernel under
  test) with a cross-traffic server container answering a high-priority
  and a low-priority UDP port;
- aggregated closed-loop client populations
  (:class:`~repro.apps.aggregate.AggregatedClientPopulation`) for every
  (dst host, class) flow originating here;
- pseudo remote containers + reply taps that *rematerialize* incoming
  cross-host requests as overlay packets and capture the server's
  replies back into the outbox.

Cross-host packets leave as rows of a columnar
:class:`~repro.overlay.wirefmt.WireBatch` with sender-side fabric
serialization (per-destination FIFO, computed locally —
partition-independent) plus the fabric propagation latency, which the
executor uses as its conservative lookahead horizon.  Ingress is
columnar too: routed rows are scheduled straight from the batch
columns, so no :class:`~repro.overlay.wirefmt.WirePacket` object exists
anywhere on the steady-state cross-host path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.apps.aggregate import AggregatedClientPopulation
from repro.apps.remote import RemoteRequestSender
from repro.apps.sockperf import PingRecord, SockperfUdpFlood, SockperfUdpServer
from repro.bench.testbed import build_testbed
from repro.faults import FaultInjector
from repro.flows import FlowCollector, KernelFlowTap
from repro.metrics.recorder import CpuUtilizationSampler, LatencyRecorder
from repro.overlay.wirefmt import CLS_CODE, CLS_NAMES, KIND_CODE, WireBatch
from repro.shard.cluster import CROSS_HEADER_BYTES, ClusterConfig
from repro.sim.rng import SeededRng

__all__ = ["HostCell", "CROSS_SERVER_IP", "HI_PORT", "LO_PORT"]

CROSS_SERVER_IP = "10.0.0.20"
HI_PORT = 13333        #: high-priority cross-traffic service port
LO_PORT = 13444        #: low-priority cross-traffic service port
BG_PORT = 13555        #: local one-way background flood sink
#: Reply taps: request src ports encode (class, origin host) so the
#: coarse client can route each server reply back to the right flow.
HI_SRC_BASE = 31000
LO_SRC_BASE = 32000


def _src_port(cls: str, src_host: int) -> int:
    return (HI_SRC_BASE if cls == "hi" else LO_SRC_BASE) + src_host


class HostCell:
    """One simulated host: server under test + originating populations."""

    def __init__(self, cluster: ClusterConfig, host_id: int) -> None:
        if not (0 <= host_id < cluster.hosts):
            raise ValueError(f"host_id {host_id} outside cluster "
                             f"of {cluster.hosts}")
        self.cluster = cluster
        self.host_id = host_id
        host_seed = SeededRng(cluster.seed).fork(f"host:{host_id}").seed
        self.testbed = build_testbed(seed=host_seed, mode=cluster.mode)
        self.sim = self.testbed.sim
        self.injector: Optional[FaultInjector] = None
        if cluster.faults is not None:
            self.injector = FaultInjector(cluster.faults,
                                          self.testbed).install()
        #: Multi-hop fabric mode: the executor's FabricNetwork models
        #: every hop (including this host's uplink), so the sender-side
        #: coarse serialization below is skipped and arrivals are
        #: rewritten in transit.
        self._fabric_mode = cluster.topology is not None
        self._lookahead_ns = cluster.lookahead_ns

        # --- server side: the kernel under test -----------------------
        # Container placement comes from the topology spec when one is
        # given (first container = hi service, second = lo service);
        # the legacy coarse fabric keeps the single "srv" container so
        # pre-spec clusters build (and digest) byte-identically.
        placement_spec = (cluster.topology.hosts[host_id].containers
                          if self._fabric_mode else ())
        if placement_spec:
            hi_ct = self.testbed.add_server_container(
                placement_spec[0].name, placement_spec[0].ip)
            self._hi_ip = placement_spec[0].ip
            if len(placement_spec) > 1:
                lo_ct = self.testbed.add_server_container(
                    placement_spec[1].name, placement_spec[1].ip)
                self._lo_ip = placement_spec[1].ip
            else:
                lo_ct, self._lo_ip = hi_ct, self._hi_ip
            for extra in placement_spec[2:]:
                self.testbed.add_server_container(extra.name, extra.ip)
        else:
            hi_ct = lo_ct = self.testbed.add_server_container(
                "srv", CROSS_SERVER_IP)
            self._hi_ip = self._lo_ip = CROSS_SERVER_IP
        self.hi_server = SockperfUdpServer(hi_ct, HI_PORT, reply=True)
        self.lo_server = SockperfUdpServer(lo_ct, LO_PORT, reply=True)
        self.testbed.mark_high_priority(self._hi_ip, HI_PORT)
        self.bg_server = None
        self.bg_flood = None
        if cluster.local_bg_pps > 0:
            self.bg_server = SockperfUdpServer(lo_ct, BG_PORT,
                                               reply=False)
            bg_src = self.testbed.add_client_container("bg-src", "10.0.0.100")
            self.bg_flood = SockperfUdpFlood(
                self.sim, self.testbed.client, self.testbed.overlay, bg_src,
                self._lo_ip, BG_PORT, rate_pps=cluster.local_bg_pps)

        # --- cross-traffic plumbing -----------------------------------
        self.outbox: WireBatch = WireBatch()
        self._fabric_busy: Dict[int, int] = {}
        #: Rematerialization senders for incoming requests, one per
        #: (origin host, class): a pseudo remote container per flow so
        #: server replies carry a routable source address.
        self._cross_senders: Dict[Tuple[int, str], RemoteRequestSender] = {}
        client = self.testbed.client
        for src in range(cluster.hosts):
            if src == host_id:
                continue
            for cls, octet in (("hi", 1), ("lo", 2)):
                pseudo = self.testbed.add_client_container(
                    f"xc-{cls}-{src}", f"10.1.{src}.{octet}")
                self._cross_senders[(src, cls)] = RemoteRequestSender(
                    client, self.testbed.overlay, pseudo,
                    self._hi_ip if cls == "hi" else self._lo_ip)
                client.on_port(
                    _src_port(cls, src),
                    lambda inner, src=src, cls=cls:
                        self._on_cross_reply(src, cls, inner))

        # --- originating populations ----------------------------------
        self.recorder = LatencyRecorder(f"fg:{host_id}",
                                        warmup_until_ns=cluster.warmup_ns)
        self.populations: Dict[Tuple[int, str], AggregatedClientPopulation] = {}
        placement = cluster.flow_users()
        for dst in range(cluster.hosts):
            if dst == host_id:
                continue
            for cls in ("hi", "lo"):
                users = placement[(host_id, dst, cls)]
                if users == 0:
                    continue
                plen = (cluster.payload_len if cls == "hi"
                        else cluster.lo_payload_len)
                self.populations[(dst, cls)] = AggregatedClientPopulation(
                    self.sim,
                    lambda seq, now, dst=dst, cls=cls, plen=plen:
                        self._fabric_send(dst, cls, "req", seq, now, plen),
                    users=users, think_ns=cluster.think_ns,
                    timeout_ns=cluster.timeout_ns,
                    rng=self.testbed.rng.fork(f"pop:{dst}:{cls}"),
                    label=f"{host_id}->{dst}:{cls}",
                    recorder=self.recorder if cls == "hi" else None)

        # --- cross-boundary accounting (exact) ------------------------
        self.n_outbox = 0      #: packets appended to the outbox, ever
        self.n_delivered = 0   #: packets handed to deliver_rows()
        self.n_injected = 0    #: delivered packets whose arrival fired

        packet_core = self.testbed.server.kernel.cpu(0)
        self.sampler = CpuUtilizationSampler(packet_core,
                                             lambda: self.sim.now)
        self._marked = False

        # --- sampled flow export (optional, digest-neutral) -----------
        # One collector per cell; cells are one-simulator-per-host, so
        # collector state never depends on shard placement.  The kernel
        # tap adds socket/NIC/drop sites; _fabric_send/_inject_row fold
        # host-level egress/ingress (with reply RTT) directly.
        if self._fabric_mode:
            self._host_labels = [h.name for h in cluster.topology.hosts]
        else:
            self._host_labels = [f"h{i}" for i in range(cluster.hosts)]
        self.flows: Optional[FlowCollector] = None
        if cluster.flow_export is not None:
            self.flows = FlowCollector(cluster.flow_export,
                                       scope=self._host_labels[host_id],
                                       seed=cluster.seed)
            self.testbed.server.kernel.flows = KernelFlowTap(
                self.flows, self.sim)

    # ------------------------------------------------------------------
    # Fabric egress (sender-side, partition-independent)
    # ------------------------------------------------------------------
    def _fabric_send(self, dst: int, cls: str, kind: str, seq: int,
                     sent_at: int, payload_len: int) -> None:
        now = self.sim.now
        flows = self.flows
        if flows is not None:
            site = "egress:" + kind
            if flows.sampler.take(site):
                flows.fold(now, site, self._host_labels[self.host_id],
                           self._host_labels[dst], 0,
                           HI_PORT if cls == "hi" else LO_PORT, 17, cls,
                           payload_len + CROSS_HEADER_BYTES)
        if self._fabric_mode:
            # Multi-hop fabric: serialization and queueing happen hop by
            # hop in the executor's FabricNetwork, which rewrites the
            # placeholder arrival.  The placeholder is the lookahead
            # lower bound, so even an (unexpected) untransited delivery
            # could never violate causality.
            self.outbox.append(self.host_id, dst, CLS_CODE[cls],
                               KIND_CODE[kind], seq, now,
                               now + self._lookahead_ns,
                               payload_len, sent_at)
            self.n_outbox += 1
            return
        wire_len = payload_len + CROSS_HEADER_BYTES
        start = max(now, self._fabric_busy.get(dst, 0))
        finish = start + int(wire_len / self.cluster.fabric_bytes_per_ns)
        self._fabric_busy[dst] = finish
        self.outbox.append(self.host_id, dst, CLS_CODE[cls],
                           KIND_CODE[kind], seq, now,
                           finish + self.cluster.fabric_latency_ns,
                           payload_len, sent_at)
        self.n_outbox += 1

    def _on_cross_reply(self, src: int, cls: str, inner) -> None:
        """The server answered a rematerialized request: ship it home."""
        record = inner.payload
        if not isinstance(record, PingRecord):
            return
        self._fabric_send(src, cls, "reply", record.seq, record.sent_at,
                          inner.payload_len)

    # ------------------------------------------------------------------
    # Fabric ingress (executor barrier)
    # ------------------------------------------------------------------
    def deliver_rows(self, batch: WireBatch, rows: List[int]) -> None:
        """Accept routed cross-host rows of *batch* (called at a barrier).

        Every arrival must be strictly in this cell's future — the
        conservative-lookahead guarantee.  A violation here means the
        executor's window exceeded the fabric latency.  Delivery is
        columnar: each row schedules its injection straight from the
        batch columns, with no per-packet object built.
        """
        now = self.sim.now
        schedule_at = self.sim.schedule_at
        inject = self._inject_row
        arrival = batch.arrival
        src = batch.src
        cls = batch.cls
        kind = batch.kind
        seq = batch.seq
        payload_len = batch.payload_len
        sent_at = batch.sent_at
        for i in rows:
            t = arrival[i]
            if t <= now:
                raise RuntimeError(
                    f"lookahead violation at host {self.host_id}: packet "
                    f"arriving t={t} delivered at t={now}")
            schedule_at(t, inject, src[i], cls[i], kind[i], seq[i],
                        payload_len[i], sent_at[i])
        self.n_delivered += len(rows)

    def _inject_row(self, src: int, cls_code: int, kind_code: int,
                    seq: int, payload_len: int, sent_at: int) -> None:
        self.n_injected += 1
        cls = CLS_NAMES[cls_code]
        flows = self.flows
        if flows is not None:
            # Ingress sample; replies fold end-to-end RTT (now - the
            # original request's sent_at).
            site = "ingress:req" if kind_code == 1 else "ingress:reply"
            if flows.sampler.take(site):
                now = self.sim.now
                flows.fold(now, site, self._host_labels[src],
                           self._host_labels[self.host_id], 0,
                           HI_PORT if cls_code == 0 else LO_PORT, 17, cls,
                           payload_len + CROSS_HEADER_BYTES,
                           latency_ns=(now - sent_at
                                       if kind_code != 1 else None))
        if kind_code == 1:  # KIND_NAMES[1] == "req"
            sender = self._cross_senders[(src, cls)]
            sender.send_udp(
                src_port=_src_port(cls, src),
                dst_port=HI_PORT if cls_code == 0 else LO_PORT,
                payload=PingRecord(seq=seq, sent_at=sent_at),
                payload_len=payload_len, created_at=self.sim.now)
        else:
            population = self.populations.get((src, cls))
            if population is None:
                raise RuntimeError(
                    f"host {self.host_id}: reply for unknown flow "
                    f"->{src}:{cls}")
            population.on_reply(seq)

    def drain_outbox(self) -> WireBatch:
        out, self.outbox = self.outbox, WireBatch()
        return out

    # ------------------------------------------------------------------
    # Advancing and finalizing
    # ------------------------------------------------------------------
    def run_to(self, horizon: int) -> int:
        """Advance to *horizon*, marking warmup exactly when crossed."""
        sim = self.sim
        processed = 0
        warmup = self.cluster.warmup_ns
        if not self._marked and horizon >= warmup:
            processed += sim.run_window(warmup)
            self.sampler.mark()
            self._marked = True
        processed += sim.run_window(horizon)
        if self.flows is not None:
            # Barrier-aligned expiry: the horizon sequence is a pure
            # function of the config, so expiry points (and therefore
            # the exported record set) are shard-count independent.
            self.flows.expire(horizon)
        return processed

    def finalize(self) -> Dict[str, object]:
        """Collect this host's measurements as a plain, picklable dict."""
        pending = self.n_delivered - self.n_injected
        if pending < 0:
            raise RuntimeError(
                f"host {self.host_id}: injected {self.n_injected} > "
                f"delivered {self.n_delivered}")
        ledgers = []
        for (dst, cls) in sorted(self.populations):
            ledger = self.populations[(dst, cls)].ledger
            ledger.check()
            ledgers.append(ledger.to_dict())
        out: Dict[str, object] = {
            "host": self.host_id,
            "fg_samples_ns": list(self.recorder.samples_ns),
            "fg_latency": self.recorder.summary(),
            "ledgers": ledgers,
            "server": {
                "hi_received": self.hi_server.received.count,
                "lo_received": self.lo_server.received.count,
                "bg_received": (self.bg_server.received.count
                                if self.bg_server else 0),
            },
            "drops": dict(self.testbed.server.kernel.drops),
            "cpu_utilization": self.sampler.utilization(),
            "softirq_fraction": self.sampler.softirq_fraction(),
            "cross": {
                "outbox": self.n_outbox,
                "delivered": self.n_delivered,
                "injected": self.n_injected,
                "pending": pending,
                "unrouted": len(self.outbox),
            },
        }
        if self.injector is not None:
            out["fault_summary"] = self.injector.summary()
            out["conservation"] = self.injector.conservation_report()
        if self.flows is not None:
            # Popped back out by the executor's merge before the host
            # dicts enter the cluster digest.
            out["flows"] = self.flows.finalize()
        return out
