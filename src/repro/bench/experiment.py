"""Microbenchmark experiment runner (paper Figs. 3, 8, 9, 10, 11).

One :class:`ExperimentConfig` describes a complete scenario: network type
(overlay/host), stack mode, foreground flow (ping-pong latency or flood
throughput), optional low-priority background flood, durations, and
knobs.  :func:`run_experiment` builds the testbed, runs it, and returns
an :class:`ExperimentResult` with latency summaries, delivered rates, CPU
utilization of the packet-processing core, and drop counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Union

from repro.apps.sockperf import (
    SockperfUdpClient,
    SockperfUdpFlood,
    SockperfUdpServer,
)
from repro.bench.cell import ExperimentCell
from repro.bench.testbed import Testbed, build_testbed
from repro.fabric.spec import Topology, TopologySpec
from repro.faults import FaultInjector, FaultPlan, merge_recovery
from repro.flows.config import FlowExportConfig
from repro.kernel.config import KernelConfig
from repro.kernel.costs import CostModel
from repro.kernel.cpu import Work
from repro.metrics.recorder import (
    CpuUtilizationSampler,
    LatencyRecorder,
    ThroughputMeter,
)
from repro.metrics.stats import LatencySummary, summarize_ns
from repro.obs import (
    DEFAULT_GAUGE_INTERVAL_NS,
    KernelObserver,
    StageBreakdown,
    write_chrome_trace,
)
from repro.obs.recorder import FlightRecorder
from repro.prism.mode import StackMode
from repro.sim.units import MS, SEC
from repro.telemetry import (
    DEFAULT_SAMPLE_INTERVAL_NS,
    KernelTelemetry,
    SimProfiler,
)
from repro.telemetry.openmetrics import write_openmetrics
from repro.trace.tracer import Tracer

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "TraceOptions",
    "TracedExperiment",
    "TelemetryOptions",
    "InstrumentedExperiment",
    "run_experiment",
    "run_traced_experiment",
    "run_instrumented_experiment",
]

FG_PORT = 11111
BG_PORT = 12222

#: Bump when the to_dict()/from_dict() wire format changes.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One microbenchmark scenario (the frozen, hashable form).

    .. note::
       Prefer building configs through :class:`repro.scenario.Scenario`
       — this dataclass is kept as the thin frozen view the runner,
       cache, and serialization layers operate on.  Its field set is
       part of the disk-cache key (:func:`repro.bench.runner.config_key`
       hashes it), so fields must not be renamed or reordered casually;
       Scenario produces byte-identical instances.
    """

    mode: StackMode = StackMode.VANILLA
    #: "overlay" (3-stage container pipeline) or "host" (single stage).
    network: str = "overlay"
    #: Foreground flow: "pingpong" measures latency; "flood" measures
    #: delivered throughput.
    fg_kind: str = "pingpong"
    fg_rate_pps: float = 1_000.0
    fg_payload_len: int = 16
    #: Mark the foreground flow high-priority in the PRISM database.
    fg_high_priority: bool = True
    #: Background low-priority UDP flood (0 disables it).
    bg_rate_pps: float = 0.0
    bg_payload_len: int = 32
    #: Background burstiness (packets sent back-to-back per burst);
    #: sockperf's throughput mode blasts from a tight loop, so bursts
    #: exceed one NAPI batch — which is what triggers the interleaving
    #: pathology of Fig. 6a.  See SockperfUdpFlood.
    bg_burst: int = 96
    #: Measurement window and warm-up.
    duration_ns: int = 300 * MS
    warmup_ns: int = 60 * MS
    seed: int = 1
    costs: Optional[CostModel] = None
    kernel_config: Optional[KernelConfig] = None
    #: Optional fault-injection plan (loss, bursts, flaps + loss
    #: recovery).  ``None`` — the canonical, loss-free configuration —
    #: is *omitted* from the serialized form so that every pre-existing
    #: config hashes and round-trips byte-identically.
    faults: Optional[FaultPlan] = None
    #: Optional explicit :class:`~repro.fabric.spec.TopologySpec`.
    #: ``None`` means "the canonical two-host topology implied by
    #: ``network``" — the pre-spec behavior — and is omitted from the
    #: wire format so legacy cache keys stay byte-identical.  A set
    #: spec must describe a two-host pair (multi-host fabrics run
    #: through :func:`repro.shard.run_cluster`); its link parameters
    #: feed the cost model's wire fields when ``costs`` is unset.
    topology: Optional[TopologySpec] = None
    #: Optional sampled flow-record export
    #: (:class:`repro.flows.FlowExportConfig`).  ``None`` — the
    #: canonical configuration — keeps every flow hook a single
    #: attribute check and is omitted from the wire format, so all
    #: pre-flow cache keys and digests stay byte-identical.
    flow_export: Optional[FlowExportConfig] = None

    #: Fields the serialization layers drop when ``None`` (see
    #: :func:`repro.bench.runner._jsonable` and :meth:`to_dict`).
    _JSON_OMIT_WHEN_NONE: ClassVar[Tuple[str, ...]] = (
        "faults", "topology", "flow_export")

    def label(self) -> str:
        busy = f"+bg{self.bg_rate_pps / 1000:.0f}k" if self.bg_rate_pps else ""
        return f"{self.network}/{self.mode}{busy}"

    def topology_spec(self) -> TopologySpec:
        """The :class:`TopologySpec` this experiment runs on.

        Explicit when :attr:`topology` is set; otherwise the canonical
        two-host spec implied by ``network`` and the cost model's wire
        parameters — making the spec the single source of truth even
        for configs built through the legacy string adapter.
        """
        if self.topology is not None:
            return self.topology
        costs = self.costs or CostModel()
        return Topology.two_host(
            self.network, latency_ns=costs.wire_latency_ns,
            bytes_per_ns=costs.wire_bytes_per_ns)

    # ------------------------------------------------------------------
    # Versioned serialization (the disk cache's wire format)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict that :meth:`from_dict` round-trips exactly."""
        out: Dict[str, Any] = {"version": SCHEMA_VERSION}
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if value is None and f.name in self._JSON_OMIT_WHEN_NONE:
                continue
            if isinstance(value, StackMode):
                value = str(value)
            elif isinstance(value, (CostModel, KernelConfig)):
                value = _frozen_to_dict(value)
            elif isinstance(value, (FaultPlan, TopologySpec,
                                    FlowExportConfig)):
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        version = data.get("version", SCHEMA_VERSION)
        if version > SCHEMA_VERSION:
            raise ValueError(f"config schema v{version} is newer than "
                             f"this code (v{SCHEMA_VERSION})")
        kwargs = {k: v for k, v in data.items() if k != "version"}
        kwargs["mode"] = StackMode.parse(kwargs["mode"])
        if kwargs.get("costs") is not None:
            kwargs["costs"] = _frozen_from_dict(CostModel, kwargs["costs"])
        if kwargs.get("kernel_config") is not None:
            kwargs["kernel_config"] = _frozen_from_dict(
                KernelConfig, kwargs["kernel_config"])
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultPlan.from_dict(kwargs["faults"])
        if kwargs.get("topology") is not None:
            kwargs["topology"] = TopologySpec.from_dict(kwargs["topology"])
        if kwargs.get("flow_export") is not None:
            kwargs["flow_export"] = FlowExportConfig.from_dict(
                kwargs["flow_export"])
        return cls(**kwargs)


#: Knob fields added after schema v1 shipped.  They are omitted from the
#: serialized dict while at their default value so that configs which
#: never touch them keep their historical byte-exact serialization (the
#: disk cache keys on it); ``_frozen_from_dict`` tolerates the absence
#: via the dataclass defaults.
_OMIT_WHEN_DEFAULT = frozenset({
    "bypass_stage_overhead_ns",
    "bypass_stage_cost_scale",
    "irq_mod_epoch_ns",
    "irq_mod_min_ns",
    "irq_mod_max_ns",
    "irq_mod_up_pps",
    "irq_mod_down_pps",
    "irq_moderation",
})


def _frozen_to_dict(value: Union[CostModel, KernelConfig]) -> Dict[str, Any]:
    """Serialize a frozen knob dataclass field-by-field."""
    out: Dict[str, Any] = {}
    for f in dataclass_fields(value):
        v = getattr(value, f.name)
        if f.name in _OMIT_WHEN_DEFAULT and v == f.default:
            continue
        if isinstance(v, StackMode):
            v = str(v)
        elif isinstance(v, tuple):
            v = [list(x) if isinstance(x, tuple) else x for x in v]
        out[f.name] = v
    return out


def _frozen_from_dict(cls: type, data: Dict[str, Any]) -> Any:
    kwargs = dict(data)
    if "initial_mode" in kwargs:
        kwargs["initial_mode"] = StackMode.parse(kwargs["initial_mode"])
    if "cstate_levels" in kwargs:
        kwargs["cstate_levels"] = tuple(
            tuple(level) for level in kwargs["cstate_levels"])
    return cls(**kwargs)


@dataclass
class ExperimentResult:
    """Measurements from one experiment run."""

    config: ExperimentConfig
    fg_latency: Optional[LatencySummary]
    fg_samples_ns: List[int]
    fg_sent: int
    fg_replies: int
    fg_delivered_pps: float
    bg_delivered_pps: float
    cpu_utilization: float
    softirq_fraction: float
    drops: Dict[str, int] = field(default_factory=dict)
    #: Fig. 4-style per-stage decomposition (dict form of
    #: :class:`repro.obs.StageBreakdown`); populated by traced runs only.
    stage_breakdown: Optional[Dict[str, Any]] = None
    #: Versioned metrics snapshot (:meth:`MetricsRegistry.snapshot`);
    #: populated by instrumented runs only.
    telemetry: Optional[Dict[str, Any]] = None
    #: What the injector did (:meth:`FaultInjector.summary`); fault runs
    #: only — ``None`` stays absent from the wire format so loss-free
    #: results digest byte-identically to pre-fault-layer code.
    fault_summary: Optional[Dict[str, Any]] = None
    #: Packet-conservation report (:meth:`PacketLedger.report`):
    #: ``injected == delivered + dropped(by site) + in-flight`` with the
    #: residual and per-site breakdowns; fault runs only.
    conservation: Optional[Dict[str, Any]] = None
    #: Merged loss-recovery totals (retries/timeouts/give-ups) plus the
    #: per-client stats; fault runs only.
    recovery: Optional[Dict[str, Any]] = None
    #: Sampled flow-record export block (``schema``/``sample_rate``/
    #: ``records``/counters); flow-export runs only — ``None`` stays
    #: absent from the wire format like the fault fields.
    flows: Optional[Dict[str, Any]] = None

    _JSON_OMIT_WHEN_NONE: ClassVar[Tuple[str, ...]] = (
        "fault_summary", "conservation", "recovery", "flows")

    def __str__(self) -> str:
        latency = str(self.fg_latency) if self.fg_latency else "no samples"
        return (f"[{self.config.label()}] fg: {latency} | "
                f"fg={self.fg_delivered_pps / 1000:.0f}kpps "
                f"bg={self.bg_delivered_pps / 1000:.0f}kpps "
                f"cpu={self.cpu_utilization * 100:.0f}%")

    # ------------------------------------------------------------------
    # Versioned serialization (the disk cache's wire format)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict that :meth:`from_dict` round-trips exactly.

        Replaces the ad-hoc pickle serialization the disk cache used:
        the format is versioned, inspectable, and stable across Python
        versions (floats survive via JSON's repr round-trip).
        """
        latency = None
        if self.fg_latency is not None:
            latency = {f.name: getattr(self.fg_latency, f.name)
                       for f in dataclass_fields(self.fg_latency)}
        out = {
            "version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "fg_latency": latency,
            "fg_samples_ns": list(self.fg_samples_ns),
            "fg_sent": self.fg_sent,
            "fg_replies": self.fg_replies,
            "fg_delivered_pps": self.fg_delivered_pps,
            "bg_delivered_pps": self.bg_delivered_pps,
            "cpu_utilization": self.cpu_utilization,
            "softirq_fraction": self.softirq_fraction,
            "drops": dict(self.drops),
            "stage_breakdown": self.stage_breakdown,
            "telemetry": self.telemetry,
        }
        for name in self._JSON_OMIT_WHEN_NONE:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        version = data.get("version", SCHEMA_VERSION)
        if version > SCHEMA_VERSION:
            raise ValueError(f"result schema v{version} is newer than "
                             f"this code (v{SCHEMA_VERSION})")
        latency = data["fg_latency"]
        return cls(
            config=ExperimentConfig.from_dict(data["config"]),
            fg_latency=LatencySummary(**latency) if latency else None,
            fg_samples_ns=list(data["fg_samples_ns"]),
            fg_sent=data["fg_sent"],
            fg_replies=data["fg_replies"],
            fg_delivered_pps=data["fg_delivered_pps"],
            bg_delivered_pps=data["bg_delivered_pps"],
            cpu_utilization=data["cpu_utilization"],
            softirq_fraction=data["softirq_fraction"],
            drops=dict(data["drops"]),
            stage_breakdown=data.get("stage_breakdown"),
            telemetry=data.get("telemetry"),
            fault_summary=data.get("fault_summary"),
            conservation=data.get("conservation"),
            recovery=data.get("recovery"),
            flows=data.get("flows"),
        )


def _host_network_setup(testbed: Testbed, config: ExperimentConfig,
                        recorder: LatencyRecorder):
    """Foreground/background served by host (root-namespace) sockets."""
    from repro.apps.remote import RemoteRequestSender  # local, avoids cycle
    from repro.apps.sockperf import PingRecord
    from repro.fastpath.headercache import CachedUdpBuilder
    import itertools

    sim = testbed.sim
    server = testbed.server
    fg_socket = server.udp_socket(FG_PORT, core_id=1)
    fg_meter = ThroughputMeter("fg", warmup_until_ns=config.warmup_ns)

    def fg_server():
        pool = server.kernel.skb_pool
        while True:
            skb = yield from fg_socket.recv()
            fg_meter.record(sim.now, skb.wire_len)
            packet = skb.packet
            pool.recycle(skb)
            yield Work(600)
            if config.fg_kind != "pingpong" or packet.ip is None:
                continue
            yield from server.egress.udp_send(
                src_mac=server.mac, dst_mac=testbed.client.mac,
                src_ip=server.ip, dst_ip=packet.ip.src,
                src_port=FG_PORT, dst_port=packet.l4.src_port,
                payload=packet.payload, payload_len=packet.payload_len)

    server.spawn(fg_server(), core_id=1, name="fg-host-server")

    seq = itertools.count(1)

    builder = CachedUdpBuilder()

    def client_sender():
        interval = SEC / config.fg_rate_pps
        next_send = float(sim.now)
        while True:
            record = PingRecord(seq=next(seq), sent_at=sim.now)
            packet = builder.build(
                src_mac=testbed.client.mac, dst_mac=server.mac,
                src_ip=testbed.client.ip, dst_ip=server.ip,
                src_port=30001, dst_port=FG_PORT,
                payload=record, payload_len=config.fg_payload_len,
                created_at=sim.now)
            testbed.client.transmit(packet)
            counters["fg_sent"] += 1
            next_send += interval
            yield max(0, int(next_send) - sim.now)

    counters = {"fg_sent": 0, "fg_replies": 0}

    def on_reply(inner):
        record = inner.payload
        if isinstance(record, PingRecord):
            counters["fg_replies"] += 1
            recorder.record((sim.now - record.sent_at) // 2, at_ns=sim.now)

    testbed.client.on_port(30001, on_reply)
    sim.process(client_sender(), name="fg-host-client")

    bg_meter = ThroughputMeter("bg", warmup_until_ns=config.warmup_ns)
    if config.bg_rate_pps > 0:
        bg_socket = server.udp_socket(BG_PORT, core_id=2)

        def bg_server():
            pool = server.kernel.skb_pool
            while True:
                skb = yield from bg_socket.recv()
                bg_meter.record(sim.now, skb.wire_len)
                pool.recycle(skb)
                yield Work(400)

        server.spawn(bg_server(), core_id=2, name="bg-host-server")

        def bg_sender():
            interval = SEC / config.bg_rate_pps
            next_burst = float(sim.now)
            while True:
                for _ in range(config.bg_burst):
                    packet = builder.build(
                        src_mac=testbed.client.mac, dst_mac=server.mac,
                        src_ip=testbed.client.ip, dst_ip=server.ip,
                        src_port=30002, dst_port=BG_PORT,
                        payload=None, payload_len=config.bg_payload_len,
                        created_at=sim.now)
                    testbed.client.transmit(packet)
                next_burst += interval * config.bg_burst
                yield max(0, int(next_burst) - sim.now)

        sim.process(bg_sender(), name="bg-host-client")

    if config.fg_high_priority:
        testbed.mark_high_priority(str(server.ip), FG_PORT)
    return fg_meter, bg_meter, counters


def _overlay_setup(testbed: Testbed, config: ExperimentConfig,
                   recorder: LatencyRecorder):
    """Foreground/background between containers over the VXLAN overlay."""
    sim = testbed.sim
    fg_server_cont = testbed.add_server_container("fg-server", "10.0.0.10")
    fg_client_cont = testbed.add_client_container("fg-client", "10.0.0.100")

    reply = config.fg_kind == "pingpong"
    fg_server = SockperfUdpServer(fg_server_cont, FG_PORT, core_id=1,
                                  reply=reply)
    fg_server.received.warmup_until_ns = config.warmup_ns

    counters = {"fg_sent": 0, "fg_replies": 0}
    if reply:
        retry = retry_rng = None
        if config.faults is not None:
            # Loss recovery rides with the fault plan: every injected
            # loss is retried rather than silently thinning the sample
            # stream.  The retry jitter draws from its own labeled fork
            # so it cannot perturb workload randomness.
            retry = config.faults.retry
            retry_rng = testbed.rng.fork("retry:sockperf")
        fg_client = SockperfUdpClient(
            sim, testbed.client, testbed.overlay, fg_client_cont,
            "10.0.0.10", FG_PORT, rate_pps=config.fg_rate_pps,
            payload_len=config.fg_payload_len, src_port=30001,
            recorder=recorder, warmup_until_ns=config.warmup_ns,
            retry=retry, retry_rng=retry_rng)
    else:
        fg_client = SockperfUdpFlood(
            sim, testbed.client, testbed.overlay, fg_client_cont,
            "10.0.0.10", FG_PORT, rate_pps=config.fg_rate_pps,
            payload_len=config.fg_payload_len, src_port=30001)

    bg_meter = ThroughputMeter("bg", warmup_until_ns=config.warmup_ns)
    if config.bg_rate_pps > 0:
        bg_server_cont = testbed.add_server_container("bg-server", "10.0.0.11")
        bg_client_cont = testbed.add_client_container("bg-client", "10.0.0.101")
        bg_server = SockperfUdpServer(bg_server_cont, BG_PORT, core_id=2,
                                      reply=False, app_work_ns=400)
        bg_server.received.warmup_until_ns = config.warmup_ns
        SockperfUdpFlood(
            sim, testbed.client, testbed.overlay, bg_client_cont,
            "10.0.0.11", BG_PORT, rate_pps=config.bg_rate_pps,
            payload_len=config.bg_payload_len, src_port=30002,
            burst=config.bg_burst)
        bg_meter = bg_server.received

    if config.fg_high_priority:
        testbed.mark_high_priority("10.0.0.10", FG_PORT)
    return fg_server.received, bg_meter, counters, fg_client


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build the scenario, simulate it, and collect the measurements.

    Keep this a plain single-argument function: the parallel runner maps
    it directly over a process pool (``pool.map(run_experiment, ...)``).
    """
    return _run_experiment(config)


def _run_experiment(config: ExperimentConfig, *,
                    tracer: Optional[Tracer] = None,
                    attach: Optional[Callable[[Testbed], None]] = None
                    ) -> ExperimentResult:
    """:func:`run_experiment` plus observability hooks.

    *tracer* (when given) becomes the server kernel's tracer; *attach*
    runs after the testbed is built and before the simulation starts —
    the traced runner uses it to hang a :class:`KernelObserver` on.

    Build/advance/finalize live on :class:`~repro.bench.cell.ExperimentCell`
    so the sharded executor can drive the same cell in lookahead windows;
    one straight run to the end is the degenerate single-window case.
    """
    cell = ExperimentCell(config, tracer=tracer, attach=attach)
    cell.run_to(cell.end_ns)
    return cell.finalize()


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceOptions:
    """Knobs for a traced experiment run."""

    #: Flight-recorder ring capacity (events).
    capacity: int = 200_000
    #: Bound on per-packet milestone records kept for the breakdown.
    max_packets: int = 100_000
    #: Queue-depth / softirq-residency sampling period (0 disables gauges).
    gauge_interval_ns: int = DEFAULT_GAUGE_INTERVAL_NS


@dataclass
class TracedExperiment:
    """A result plus the recording that explains it."""

    result: ExperimentResult
    recorder: FlightRecorder
    breakdown: StageBreakdown
    observer: KernelObserver

    def write_chrome(self, path: Union[str, Path]) -> Path:
        """Export the recording as Perfetto-loadable Chrome trace JSON."""
        config = self.result.config
        return write_chrome_trace(
            path, self.recorder,
            meta={"scenario": config.label(), "seed": config.seed,
                  "duration_ns": config.duration_ns})


def run_traced_experiment(config: ExperimentConfig,
                          options: Optional[TraceOptions] = None
                          ) -> TracedExperiment:
    """Run one experiment with the observability layer attached.

    The observer subscribes before the simulation starts, so the kernel's
    gated emit sites light up; the measurements themselves are unchanged
    (tracing only reads state — the determinism tests pin that a traced
    run produces a bit-identical :class:`ExperimentResult`).
    """
    options = options or TraceOptions()
    tracer = Tracer()
    holder: Dict[str, KernelObserver] = {}

    def attach(testbed: Testbed) -> None:
        observer = KernelObserver(testbed.server.kernel,
                                  capacity=options.capacity,
                                  max_packets=options.max_packets)
        observer.watch_host(testbed.server)
        if options.gauge_interval_ns > 0:
            observer.start_gauges(options.gauge_interval_ns)
        holder["observer"] = observer

    result = _run_experiment(config, tracer=tracer, attach=attach)
    observer = holder["observer"]
    observer.detach()
    breakdown = StageBreakdown.from_packets(observer.packets.values())
    result.stage_breakdown = breakdown.to_dict()
    return TracedExperiment(result=result, recorder=observer.recorder,
                            breakdown=breakdown, observer=observer)


# ----------------------------------------------------------------------
# Instrumented (metered / profiled) runs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TelemetryOptions:
    """Knobs for an instrumented experiment run."""

    #: Also attach the simulated-time sampling profiler (subscribes to
    #: the span tracepoints, so the poll loops emit per-skb spans —
    #: measurements are pinned identical either way).
    profile: bool = True
    #: Simulated-time period between profiler stack samples
    #: (0 keeps exact edge attribution but takes no periodic samples).
    sample_interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS
    #: Retained-sample bound (see :class:`SimProfiler`).
    max_samples: int = 1_000_000


@dataclass
class InstrumentedExperiment:
    """A result plus the telemetry that explains it."""

    result: ExperimentResult
    telemetry: KernelTelemetry
    profiler: Optional[SimProfiler]

    @property
    def registry(self):
        return self.telemetry.registry

    def write_openmetrics(self, path: Union[str, Path]) -> Path:
        """Export the registry as OpenMetrics text exposition."""
        return write_openmetrics(path, self.telemetry.collect())

    def write_metrics_json(self, path: Union[str, Path]) -> Path:
        """Export the versioned JSON metrics snapshot."""
        import json
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w") as fh:
            json.dump(self.telemetry.snapshot(), fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        return out

    def write_folded(self, path: Union[str, Path]) -> Path:
        """Export collapsed stacks (flamegraph.pl folded format)."""
        if self.profiler is None:
            raise RuntimeError("run was not profiled "
                               "(TelemetryOptions.profile=False)")
        return self.profiler.write_folded(path)

    def write_speedscope(self, path: Union[str, Path]) -> Path:
        """Export a self-contained speedscope JSON profile."""
        if self.profiler is None:
            raise RuntimeError("run was not profiled "
                               "(TelemetryOptions.profile=False)")
        return self.profiler.write_speedscope(
            path, name=self.result.config.label())


def run_instrumented_experiment(config: ExperimentConfig,
                                options: Optional[TelemetryOptions] = None
                                ) -> InstrumentedExperiment:
    """Run one experiment with the telemetry layer attached.

    A :class:`~repro.telemetry.KernelTelemetry` hub hangs on the server
    kernel before the simulation starts (the gated ``on_*`` sites light
    up), watching the host receive path and the overlay data plane; with
    ``options.profile`` a :class:`SimProfiler` additionally subscribes to
    the span tracepoints.  Neither touches the simulator's event
    schedule, so the returned :class:`ExperimentResult` measurements are
    bit-identical to an unmetered run (the neutrality tests pin this) —
    the result additionally carries the registry snapshot in
    :attr:`ExperimentResult.telemetry`.
    """
    options = options or TelemetryOptions()
    holder: Dict[str, Any] = {}

    def attach(testbed: Testbed) -> None:
        telemetry = KernelTelemetry(testbed.server.kernel).attach()
        telemetry.watch_host(testbed.server)
        telemetry.watch_overlay(testbed.server_overlay)
        holder["telemetry"] = telemetry
        if options.profile:
            profiler = SimProfiler(
                testbed.server.kernel,
                sample_interval_ns=options.sample_interval_ns,
                max_samples=options.max_samples)
            profiler.start()
            holder["profiler"] = profiler

    result = _run_experiment(config, attach=attach)
    telemetry: KernelTelemetry = holder["telemetry"]
    profiler: Optional[SimProfiler] = holder.get("profiler")
    if profiler is not None:
        profiler.finalize()
    telemetry.detach()
    result.telemetry = telemetry.snapshot()
    return InstrumentedExperiment(result=result, telemetry=telemetry,
                                  profiler=profiler)
