"""Layer-attributed tracing from outside the program.

:func:`install` replaces public entry points of each simulator layer
(named by its ``repro`` package) with timing wrappers, and puts the
originals back on exit.  Nothing in ``src/`` changes.

- A plain call is one span.
- A generator function (``NicNapi.poll``, ``NapiStruct.poll``,
  ``process_inline``, ``net_rx_action_*``, the app processes) is timed
  per *resume*: each ``send``/``throw`` into the generator is a span, and
  creating the generator is not.  The wrapper yields exactly what the
  inner generator yields, so the simulated schedule is unchanged.
- Self time is a span's duration minus the wrapped spans nested in it.

Spans are aggregated in memory per wrapped function (calls, total,
self) rather than kept one by one: a full pass has millions.  Forked
shard workers inherit the wrappers, start with empty tallies and write
theirs to the trace directory when their main loop ends.

A *plant* adds a fixed busy-wait to every call of one wrapped function,
inside its span; the sensitivity self-test uses it to show that the
benchmark charges added time to the right layer and workload.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["TARGETS", "LAYERS", "SpanRecorder", "install", "layer_metrics",
           "PER_LAYER_METRICS"]

_clock = time.perf_counter_ns

# Hooks that turn a wrapped call into counts.  ``pre(args)`` runs before
# the span opens; ``post(counts, args, result, token)`` after it closes.


def _count_result(name: str):
    def post(counts, args, result, token):
        counts[name] = counts.get(name, 0) + (result or 0)
    return post


def _pool_reuses(args):
    pool = args[0]
    return int(pool.enabled and len(pool) > 0)


def _frame_bytes(counts, args, frame, token):
    size = 0
    for part in frame[2:]:
        size += len(part) * getattr(part, "itemsize", 1)
    counts["frame_bytes"] = counts.get("frame_bytes", 0) + size


def _batch_len(args):
    return len(args[1])


def _count_token(name: str):
    def post(counts, args, result, token):
        counts[name] = counts.get(name, 0) + token
    return post


#: (layer, "module:Qualified.name", pre, post).  The layer is the repro
#: package the function lives in, except that stages and taps are charged
#: to the package whose work they do (``protocol_rcv`` is imported into
#: netdev modules but is the stack's).
TARGETS: List[Tuple[str, str, Optional[Callable], Optional[Callable]]] = [
    ("sim", "repro.bench.cell:ExperimentCell.run_to", None,
     _count_result("events")),
    ("sim", "repro.shard.hostcell:HostCell.run_to", None,
     _count_result("events")),
    ("bench", "repro.bench.cell:ExperimentCell.__init__", None, None),
    ("bench", "repro.bench.cell:ExperimentCell.finalize", None, None),
    ("netdev", "repro.netdev.nic:NicNapi.poll", None,
     _count_result("nic_pkts")),
    ("netdev", "repro.netdev.nic:PhysicalNic.receive", None, None),
    ("netdev", "repro.netdev.nic:NicStage.process", None, None),
    ("netdev", "repro.netdev.vxlan:BridgeStage.process", None, None),
    ("netdev", "repro.netdev.vxlan:VxlanDevice.gro_cells_receive", None,
     None),
    ("netdev", "repro.netdev.veth:ProtocolStage.process", None, None),
    ("netdev", "repro.netdev.bridge:Bridge.forward", None, None),
    ("kernel", "repro.kernel.core:net_rx_action_vanilla", None, None),
    ("kernel", "repro.kernel.core:net_rx_action_prism", None, None),
    ("kernel", "repro.kernel.softnet:NapiStruct.poll", None, None),
    ("kernel", "repro.kernel.softnet:NapiStruct.process_inline", None, None),
    ("kernel", "repro.kernel.softnet:NapiStruct.enqueue", None, None),
    # The per-core scheduler that resumes softirq handlers and threads;
    # without it its work would land in the sim layer's residual.
    ("kernel", "repro.kernel.cpu:CpuCore._dispatch_loop", None, None),
    ("kernel", "repro.kernel.cpu:CpuCore.hardirq", None, None),
    ("kernel", "repro.kernel.cpu:CpuCore.raise_softirq", None, None),
    ("prism", "repro.prism.classifier:PriorityClassifier.classify", None,
     None),
    ("prism", "repro.prism.priority_db:PriorityDatabase.classify_packet",
     None, None),
    ("prism", "repro.netdev.vxlan:transition_to_napi", None, None),
    ("fastpath", "repro.fastpath.pool:SkbPool.alloc", _pool_reuses,
     _count_token("skb_reused")),
    ("fastpath", "repro.fastpath.pool:SkbPool.recycle", None, None),
    ("fastpath", "repro.fastpath.headercache:CachedUdpBuilder.build", None,
     None),
    ("stack", "repro.stack.sockets:UdpSocket.deliver", None, None),
    ("stack", "repro.stack.sockets:UdpSocket.recv", None, None),
    ("stack", "repro.netdev.nic:protocol_rcv", None, None),
    ("stack", "repro.netdev.veth:protocol_rcv", None, None),
    ("stack", "repro.stack.egress:EgressPath.udp_send", None, None),
    ("overlay", "repro.overlay.network:Wire.transmit", None, None),
    ("overlay", "repro.overlay.network:RemoteHost.transmit", None, None),
    ("overlay", "repro.overlay.network:RemoteHost.receive", None, None),
    ("overlay", "repro.overlay.container:Container.send_udp", None, None),
    ("apps", "repro.apps.sockperf:SockperfUdpServer._run", None, None),
    ("apps", "repro.apps.sockperf:SockperfUdpClient._run", None, None),
    ("apps", "repro.apps.sockperf:SockperfUdpClient._on_reply", None, None),
    ("apps", "repro.apps.sockperf:SockperfUdpFlood._run", None, None),
    ("apps", "repro.apps.remote:RemoteRequestSender.send_udp", None, None),
    ("apps", "repro.apps.aggregate:AggregatedClientPopulation._ramp_up",
     None, None),
    ("apps", "repro.apps.aggregate:AggregatedClientPopulation._send_one",
     None, None),
    ("apps", "repro.apps.aggregate:AggregatedClientPopulation.on_reply",
     None, None),
    ("apps", "repro.apps.aggregate:AggregatedClientPopulation._reap", None,
     None),
    ("faults", "repro.faults.injector:FaultInjector.drop_at_queue", None,
     None),
    ("faults", "repro.faults.injector:FaultInjector.skb_alloc_fails", None,
     None),
    ("faults", "repro.faults.injector:FaultInjector.irq_lost", None, None),
    ("faults", "repro.faults.injector:FaultInjector._wire_hook", None, None),
    ("faults", "repro.faults.conservation:PacketLedger.inject", None, None),
    ("faults", "repro.faults.conservation:PacketLedger.deliver", None, None),
    ("faults", "repro.faults.conservation:PacketLedger.drop", None, None),
    ("faults", "repro.faults.conservation:PacketLedger.enter", None, None),
    ("faults", "repro.faults.conservation:PacketLedger.leave", None, None),
    ("flows", "repro.flows.collector:KernelFlowTap.on_deliver", None, None),
    ("flows", "repro.flows.collector:KernelFlowTap.on_nic_rx", None, None),
    ("flows", "repro.flows.collector:KernelFlowTap.on_drop", None, None),
    ("flows", "repro.flows.collector:FlowCollector.fold", None, None),
    ("flows", "repro.flows.collector:FlowCollector.expire", None, None),
    ("flows", "repro.flows.collector:FlowCollector.finalize", None, None),
    ("flows", "repro.flows.collector:FabricFlowTap.on_transit", None, None),
    ("telemetry", "repro.telemetry.kernel:KernelTelemetry.on_softirq", None,
     None),
    ("telemetry", "repro.telemetry.kernel:KernelTelemetry.on_poll", None,
     None),
    ("telemetry", "repro.telemetry.kernel:KernelTelemetry.on_gro_merge",
     None, None),
    ("telemetry", "repro.telemetry.kernel:KernelTelemetry.on_socket_deliver",
     None, None),
    ("telemetry", "repro.telemetry.kernel:KernelTelemetry.snapshot", None,
     None),
    # The profiler rides on tracepoints: emit is its dispatch cost.
    ("telemetry", "repro.trace.tracer:Tracer.emit", None, None),
    ("telemetry", "repro.telemetry.profiler:SimProfiler._on_begin", None,
     None),
    ("telemetry", "repro.telemetry.profiler:SimProfiler._on_end", None, None),
    ("telemetry", "repro.telemetry.profiler:SimProfiler._sample", None, None),
    ("wirefmt", "repro.overlay.wirefmt:WireBatch.encode", None, _frame_bytes),
    ("wirefmt", "repro.overlay.wirefmt:WireBatch.decode", None, None),
    ("wirefmt", "repro.overlay.wirefmt:WireBatch.append", None, None),
    ("wirefmt", "repro.overlay.wirefmt:WireBatch.extend", None, None),
    ("wirefmt", "repro.overlay.wirefmt:WireBatch.take", None, None),
    ("fabric", "repro.fabric.network:FabricNetwork.transit_batch",
     _batch_len, _count_token("fabric_pkts")),
    ("shard", "repro.shard.executor:run_cluster", None, None),
    ("shard", "repro.shard.worker:PipeShardWorker.__init__", None, None),
    ("shard", "repro.shard.worker:PipeShardWorker.post_step", None, None),
    ("shard", "repro.shard.worker:PipeShardWorker.wait_step", None, None),
    ("shard", "repro.shard.worker:PipeShardWorker.finalize", None, None),
    ("shard", "repro.shard.worker:PipeShardWorker.close", None, None),
    ("shard", "repro.shard.worker:ShardWorker.post_step", None, None),
    ("shard", "repro.shard.hostcell:HostCell.deliver_rows", None, None),
    ("shard", "repro.shard.hostcell:HostCell.drain_outbox", None, None),
]

LAYERS = ("sim", "netdev", "kernel", "prism", "fastpath", "stack", "overlay",
          "apps", "faults", "flows", "telemetry", "wirefmt", "fabric",
          "shard", "bench")

#: The forked shard worker's main loop: wrapped (not timed) so each
#: worker starts with empty tallies and writes them out when it ends.
_WORKER_MAIN = "repro.shard.worker:_pipe_worker_main"


class SpanRecorder:
    """In-memory span tallies of one process.

    ``stats[key] = [calls, total_ns, self_ns]``; ``stack`` holds the
    nested-span time of each open span, ``stack[0]`` the time covered by
    top-level spans.
    """

    def __init__(self, trace_dir: Optional[Path] = None) -> None:
        self.trace_dir = trace_dir
        self.stats: Dict[str, List[int]] = {}
        self.counts: Dict[str, int] = {}
        self.stack: List[int] = [0]

    def reset(self) -> None:
        """Empty every tally in place (wrappers hold references)."""
        for stat in self.stats.values():
            stat[0] = stat[1] = stat[2] = 0
        self.counts.clear()
        self.stack[:] = [0]

    def snapshot(self, wall_ns: int) -> Dict[str, Any]:
        return {"pid": os.getpid(), "wall_ns": wall_ns,
                "covered_ns": self.stack[0],
                "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
                "counts": dict(self.counts)}


def _resolve(spec: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw value) for ``module:Qual.name``."""
    module_name, qual = spec.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        if attr not in owner.__dict__:
            raise AttributeError(f"{spec}: not defined on {owner.__name__} "
                                 f"itself (inherited or renamed)")
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _spin(delay_ns: int) -> None:
    end = _clock() + delay_ns
    while _clock() < end:
        pass


def _call_wrapper(fn, rec: Optional[SpanRecorder], key: str, pre, post,
                  plant_ns: int):
    if rec is None:  # plant only
        @functools.wraps(fn)
        def planted(*args, **kwargs):
            _spin(plant_ns)
            return fn(*args, **kwargs)
        return planted

    stat = rec.stats.setdefault(key, [0, 0, 0])
    stack = rec.stack
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = pre(args) if pre is not None else None
        stack.append(0)
        t0 = _clock()
        try:
            if plant_ns:
                _spin(plant_ns)
            result = fn(*args, **kwargs)
        finally:
            dur = _clock() - t0
            nested = stack.pop()
            stat[0] += 1
            stat[1] += dur
            stat[2] += dur - nested
            stack[-1] += dur
        if post is not None:
            post(counts, args, result, token)
        return result

    return wrapper


def _gen_wrapper(fn, rec: SpanRecorder, key: str, post):
    stat = rec.stats.setdefault(key, [0, 0, 0])
    stack = rec.stack
    counts = rec.counts

    def resumes(gen, args):
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            stack.append(0)
            t0 = _clock()
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    thrown, error = error, None
                    out = gen.throw(thrown)
            except StopIteration as stop:
                _close_span(t0)
                if post is not None:
                    post(counts, args, stop.value, None)
                return stop.value
            except BaseException:
                _close_span(t0)
                raise
            _close_span(t0)
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # re-thrown into the inner gen
                error = exc
                value = None

    def _close_span(t0: int) -> None:
        dur = _clock() - t0
        nested = stack.pop()
        stat[1] += dur
        stat[2] += dur - nested
        stack[-1] += dur

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stat[0] += 1
        inner = fn(*args, **kwargs)
        outer = resumes(inner, args)
        # Processes and threads take their default name from the
        # generator; keep the inner one's.
        outer.__name__ = inner.__name__
        outer.__qualname__ = inner.__qualname__
        return outer

    return wrapper


def _worker_main_wrapper(fn, rec: SpanRecorder):
    @functools.wraps(fn)
    def main(*args, **kwargs):
        rec.reset()
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            snap = rec.snapshot(_clock() - t0)
            if rec.trace_dir is not None:
                path = rec.trace_dir / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps(snap))
    return main


@contextlib.contextmanager
def install(rec: Optional[SpanRecorder] = None,
            plants: Optional[Dict[str, int]] = None) -> Iterator[None]:
    """Wrap every target (or, with *rec* None, only the planted ones).

    *plants* maps a target spec to a per-call busy-wait in nanoseconds.
    """
    plants = dict(plants or {})
    unknown = set(plants) - {spec for _, spec, _, _ in TARGETS}
    if unknown:
        raise KeyError(f"plant targets are not wrapped targets: {unknown}")
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for layer, spec, pre, post in TARGETS:
            plant_ns = plants.get(spec, 0)
            if rec is None and not plant_ns:
                continue
            owner, attr, raw = _resolve(spec)
            kind = type(raw)
            fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
            key = f"{layer}|{spec}"
            if inspect.isgeneratorfunction(fn):
                if plant_ns:
                    raise ValueError(f"cannot plant into generator {spec}")
                wrapped = _gen_wrapper(fn, rec, key, post)
            else:
                wrapped = _call_wrapper(fn, rec, key, pre, post, plant_ns)
            if kind in (classmethod, staticmethod):
                wrapped = kind(wrapped)
            restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        if rec is not None:
            owner, attr, raw = _resolve(_WORKER_MAIN)
            restore.append((owner, attr, raw))
            setattr(owner, attr, _worker_main_wrapper(raw, rec))
        yield
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: name -> (unit, better).  Every traced run reports all of them.
PER_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "trace.overhead_x": ("x", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "sim.self_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.host_ns_per_event": ("ns", "lower"),
    "netdev.self_s": ("s", "lower"),
    "netdev.polls": ("count", "lower"),
    "netdev.pkts_per_poll": ("pkt/poll", "higher"),
    "kernel.self_s": ("s", "lower"),
    "kernel.softirq_runs": ("count", "lower"),
    "prism.self_s": ("s", "lower"),
    "prism.classify_calls": ("count", "lower"),
    "fastpath.self_s": ("s", "lower"),
    "fastpath.skb_allocs": ("count", "lower"),
    "fastpath.skb_reuse_ratio": ("ratio", "higher"),
    "stack.self_s": ("s", "lower"),
    "stack.socket_deliveries": ("count", "lower"),
    "overlay.self_s": ("s", "lower"),
    "apps.self_s": ("s", "lower"),
    "apps.retries": ("count", "lower"),
    "apps.timeouts": ("count", "lower"),
    "faults.self_s": ("s", "lower"),
    "faults.drops": ("count", "lower"),
    "flows.self_s": ("s", "lower"),
    "flows.sampled": ("count", "lower"),
    "flows.records": ("count", "lower"),
    "telemetry.self_s": ("s", "lower"),
    "telemetry.profiler_samples": ("count", "lower"),
    "wirefmt.self_s": ("s", "lower"),
    "wirefmt.encode_s": ("s", "lower"),
    "wirefmt.decode_s": ("s", "lower"),
    "wirefmt.frame_bytes": ("B", "lower"),
    "fabric.transit_s": ("s", "lower"),
    "fabric.packets": ("count", "lower"),
    "fabric.flowlet_rehashes": ("count", "lower"),
    "shard.self_s": ("s", "lower"),
    "shard.worker_busy_s": ("s", "lower"),
    "shard.barrier_wait_s": ("s", "lower"),
    "shard.idle_frac": ("ratio", "lower"),
    "shard.windows": ("count", "lower"),
    "shard.useful_window_ratio": ("ratio", "higher"),
    "shard.cross_pkts": ("count", "lower"),
    "bench.build_s": ("s", "lower"),
    "bench.finalize_s": ("s", "lower"),
    "other.self_s": ("s", "lower"),
}


def _merge(snaps: List[Dict[str, Any]]) -> Tuple[Dict[str, List[int]],
                                                 Dict[str, int]]:
    stats: Dict[str, List[int]] = {}
    counts: Dict[str, int] = {}
    for snap in snaps:
        for key, (calls, total, self_ns) in snap["stats"].items():
            acc = stats.setdefault(key, [0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_ns
        for key, n in snap["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return stats, counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(main: Dict[str, Any], workers: List[Dict[str, Any]],
                  facts: Dict[str, Any], *, traced_wall_s: float,
                  untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric from the main process's and workers' snapshots.

    Coverage and ``other.self_s`` are the main process's: the share of its
    traced wall time inside a wrapped span, and the rest.  Worker spans
    add to their layers' self time; a worker's time outside any span is
    its barrier idle (``shard.idle_frac``).
    """
    stats, counts = _merge([main] + workers)

    def calls(spec: str, layer: str) -> int:
        return stats.get(f"{layer}|{spec}", [0, 0, 0])[0]

    def total_s(spec: str, layer: str) -> float:
        return stats.get(f"{layer}|{spec}", [0, 0, 0])[1] / 1e9

    def self_s(spec: str, layer: str) -> float:
        return stats.get(f"{layer}|{spec}", [0, 0, 0])[2] / 1e9

    layer_self = {layer: 0.0 for layer in LAYERS}
    for key, (_n, _total, self_ns) in stats.items():
        layer_self[key.split("|", 1)[0]] += self_ns / 1e9

    wall_ns = main["wall_ns"]
    events = counts.get("events", 0)
    polls = calls("repro.netdev.nic:NicNapi.poll", "netdev")
    allocs = calls("repro.fastpath.pool:SkbPool.alloc", "fastpath")
    windows = facts.get("windows", 0)
    worker_wall = sum(w["wall_ns"] for w in workers) / 1e9
    busy = total_s("repro.shard.worker:ShardWorker.post_step", "shard")
    out = {
        "trace.overhead_x": _ratio(traced_wall_s, untraced_wall_s),
        "trace.coverage": _ratio(main["covered_ns"], wall_ns),
        "sim.self_s": layer_self["sim"],
        "sim.events": events,
        "sim.host_ns_per_event": _ratio(layer_self["sim"] * 1e9, events),
        "netdev.self_s": layer_self["netdev"],
        "netdev.polls": polls,
        "netdev.pkts_per_poll": _ratio(counts.get("nic_pkts", 0), polls),
        "kernel.self_s": layer_self["kernel"],
        "kernel.softirq_runs": (
            calls("repro.kernel.core:net_rx_action_vanilla", "kernel")
            + calls("repro.kernel.core:net_rx_action_prism", "kernel")),
        "prism.self_s": layer_self["prism"],
        "prism.classify_calls": calls(
            "repro.prism.classifier:PriorityClassifier.classify", "prism"),
        "fastpath.self_s": layer_self["fastpath"],
        "fastpath.skb_allocs": allocs,
        "fastpath.skb_reuse_ratio": _ratio(counts.get("skb_reused", 0),
                                           allocs),
        "stack.self_s": layer_self["stack"],
        "stack.socket_deliveries": calls(
            "repro.stack.sockets:UdpSocket.deliver", "stack"),
        "overlay.self_s": layer_self["overlay"],
        "apps.self_s": layer_self["apps"],
        "apps.retries": facts.get("retries", 0),
        "apps.timeouts": facts.get("timeouts", facts.get("timed_out", 0)),
        "faults.self_s": layer_self["faults"],
        "faults.drops": facts.get("fault_drops", 0),
        "flows.self_s": layer_self["flows"],
        "flows.sampled": calls("repro.flows.collector:FlowCollector.fold",
                               "flows"),
        "flows.records": facts.get("flow_records", 0),
        "telemetry.self_s": layer_self["telemetry"],
        "telemetry.profiler_samples": facts.get("profiler_samples", 0),
        "wirefmt.self_s": layer_self["wirefmt"],
        "wirefmt.encode_s": self_s("repro.overlay.wirefmt:WireBatch.encode",
                                   "wirefmt"),
        "wirefmt.decode_s": self_s("repro.overlay.wirefmt:WireBatch.decode",
                                   "wirefmt"),
        "wirefmt.frame_bytes": counts.get("frame_bytes", 0),
        "fabric.transit_s": layer_self["fabric"],
        "fabric.packets": counts.get("fabric_pkts", 0),
        "fabric.flowlet_rehashes": facts.get("flowlet_rehashes", 0),
        "shard.self_s": layer_self["shard"],
        "shard.worker_busy_s": busy,
        "shard.barrier_wait_s": self_s(
            "repro.shard.worker:PipeShardWorker.wait_step", "shard"),
        "shard.idle_frac": (1.0 - busy / worker_wall) if worker_wall else 0.0,
        "shard.windows": windows,
        "shard.useful_window_ratio": _ratio(calls(
            "repro.fabric.network:FabricNetwork.transit_batch", "fabric"),
            windows),
        "shard.cross_pkts": facts.get("cross_routed", 0),
        "bench.build_s": facts["build_s"],
        "bench.finalize_s": facts["finalize_s"],
        "other.self_s": (wall_ns - main["covered_ns"]) / 1e9,
    }
    missing = set(PER_LAYER_METRICS) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return out
