"""The benchmark's two workloads: configs, one timed pass, output checks.

Every config is written out here field by field, so editing the perf
harness (``repro.perf``) or a library default cannot move a workload.
The seed given on the command line goes into every config and fault
plan seed.

A *pass* is one whole simulation through the public entry points:

- ``overlay-observed``: ``run_instrumented_experiment`` with the
  simulated-time profiler on (the ``python -m repro --metrics`` path),
  a ``FaultPlan`` and sampled flow export;
- ``fattree-2shard``: ``run_cluster(shards=2)`` with subprocess workers.

Simulated statistics are never metrics; they are output checks every
pass must pass (see :func:`check_pass`), and context lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.bench import cell as cell_mod
from repro.bench import experiment as experiment_mod
from repro.bench.runner import result_digest
from repro.fabric.spec import Topology
from repro.faults import FaultPlan
from repro.flows.config import FlowExportConfig
from repro.prism.mode import StackMode
from repro.shard import executor as executor_mod
from repro.shard import worker as worker_mod
from repro.shard.cluster import ClusterConfig, cluster_digest
from repro.sim.units import MS

__all__ = ["WORKLOADS", "SIZES", "PassResult", "make_config",
           "config_digest", "run_pass", "check_pass", "first_event_hook",
           "REFERENCE_DIGESTS"]

#: Pass sizes.  "full" is what the benchmark times; "smoke" is what its
#: self-tests run.  Single-host entries are (duration, warmup); the
#: fat-tree entry is (users, duration) with warmup = duration / 4.
SIZES = ("full", "smoke")
_OVERLAY_WINDOW = {"full": (75 * MS, 15 * MS), "smoke": (20 * MS, 5 * MS)}
#: 8 ms measured + 2 ms warmup over a 50 us lookahead = 200 barrier
#: windows per full pass; the smoke pass keeps 40.
_FATTREE_SIZE = {"full": (20_000, 8 * MS), "smoke": (4_000, 1_600_000)}

#: The fault plan of ``overlay-observed`` in the ``--faults`` grammar.
OBSERVED_FAULTS = "loss:eth:0.05; retries=5; timeout=2ms"
OBSERVED_FLOW_SAMPLE = 64
SHARDS = 2


#: Workload name -> how a pass runs it: the instrumented single-host
#: entry point or the cluster executor.  Why each was chosen is in
#: BENCHMARK.json and README.md.
WORKLOADS: Dict[str, str] = {
    "overlay-observed": "instrumented",
    "fattree-2shard": "cluster",
}


def _observed_config(seed: int, size: str) -> experiment_mod.ExperimentConfig:
    duration, warmup = _OVERLAY_WINDOW[size]
    return experiment_mod.ExperimentConfig(
        mode=StackMode.VANILLA, network="overlay",
        fg_kind="pingpong", fg_rate_pps=1_000.0, fg_payload_len=16,
        fg_high_priority=True,
        bg_rate_pps=300_000.0, bg_payload_len=32, bg_burst=96,
        duration_ns=duration, warmup_ns=warmup, seed=seed,
        costs=None, kernel_config=None,
        faults=FaultPlan.parse(f"{OBSERVED_FAULTS}; seed={seed}"),
        topology=None,
        flow_export=FlowExportConfig(sample_rate=OBSERVED_FLOW_SAMPLE))


def _fattree_config(seed: int, size: str) -> ClusterConfig:
    users, duration = _FATTREE_SIZE[size]
    return ClusterConfig(
        hosts=16, users=users, hi_fraction=0.25,
        think_ns=2 * MS, timeout_ns=20 * MS,
        payload_len=16, lo_payload_len=32,
        duration_ns=duration, warmup_ns=duration // 4, seed=seed,
        mode=StackMode.PRISM_SYNC, local_bg_pps=0.0,
        fabric_latency_ns=50_000, fabric_bytes_per_ns=12.5, faults=None,
        topology=Topology.fat_tree(4, hosts=16, flowlet_gap_ns=100_000),
        flow_export=None)


def make_config(workload: str, seed: int, size: str = "full"):
    if workload == "overlay-observed":
        return _observed_config(seed, size)
    if workload == "fattree-2shard":
        return _fattree_config(seed, size)
    raise KeyError(f"unknown workload {workload!r}; "
                   f"choose from {', '.join(WORKLOADS)}")


def config_digest(config) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: Result digests recorded from this code for the seeds the self-tests
#: use, with ``PYTHONHASHSEED=0`` as every benchmark run has it (see
#: ``run.HASH_SEED``).  A pass of one of these (workload, size, seed)
#: triples must reproduce its digest exactly.  ``fattree-2shard``
#: reproduces under any hash seed; ``overlay-observed`` does not, because
#: its flow records carry the VXLAN outer UDP source port, which
#: ``repro.packet.packet`` derives from the built-in ``hash()`` of the
#: inner flow key.
REFERENCE_DIGESTS: Dict[str, Dict[str, Dict[int, str]]] = {
    "overlay-observed": {
        "full": {
            1: "1a5c9f113de282dceac812e1741c143f"
               "208c32c15cc9f27a1e5c4db8ef8d4b02",
        },
        "smoke": {
            1: "dedaa5a38434e55e3991f0e32fadb1ca"
               "1dc4513659db98e6a085922e12bd9f91",
            2: "7cda413fb5b452f4ed7206ecce7a7b14"
               "6ffea4b2336cc4b56c2bd2c0c88ffe1a",
        },
    },
    "fattree-2shard": {
        "full": {
            1: "4a7e88a789c79c870e1d0f7d1a2e106a"
               "e760fc827fa0f11c1e3b342c039b91af",
        },
        "smoke": {
            1: "e1d8831c1d998c170a5ac37811007431"
               "bdafa206b139fa47468e489a5cb0211c",
            2: "3f2633400a9a65760362e88aa7e00fcb"
               "b8560afcdcdedb275beccf82c1c55119",
        },
    },
}


@dataclass
class PassResult:
    """One pass: host-side cost plus what the simulation computed."""

    workload: str
    size: str
    seed: int
    wall_s: float
    cpu_s: float            #: user+sys of this process and reaped workers
    pkts: int               #: simulated packets into host receive paths
    digest: str
    build_s: float
    finalize_s: float
    worker_peak_kb: int = 0  #: sum of shard workers' peak RSS
    #: Output facts the checks read (simulated, never metrics).
    facts: Dict[str, Any] = field(default_factory=dict)


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_kb(pid: int) -> int:
    """VmHWM (peak resident set) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@contextlib.contextmanager
def _patched(owner, attr: str, make: Callable[[Callable], Callable]):
    """Replace ``owner.attr`` by ``make(original)`` for the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _reading_peaks(into: Dict[int, int]):
    """``PipeShardWorker.finalize`` that then reads each worker's peak RSS.

    ``RUSAGE_CHILDREN`` reports the largest reaped child, not the sum, so
    each worker is read from ``/proc`` after its final step, before it
    exits.
    """
    def make(original):
        def finalize(self):
            out = original(self)
            for child in multiprocessing.active_children():
                if child.name.startswith("shard-") and child.pid:
                    into[child.pid] = max(into.get(child.pid, 0),
                                          _peak_kb(child.pid))
            return out
        return finalize
    return make


def _timer(into: Dict[str, float], key: str):
    def make(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                into[key] = into.get(key, 0.0) + time.perf_counter() - t0
        return timed
    return make


def _run_instrumented(config) -> Dict[str, Any]:
    # Build and finalize times come from the cell the entry point creates.
    times: Dict[str, float] = {}
    cell = cell_mod.ExperimentCell
    with _patched(cell, "__init__", _timer(times, "build_s")), \
            _patched(cell, "finalize", _timer(times, "finalize_s")):
        inst = experiment_mod.run_instrumented_experiment(
            config, experiment_mod.TelemetryOptions(profile=True))
    result = inst.result
    return {"result": result, "build_s": times["build_s"],
            "finalize_s": times["finalize_s"],
            "pkts": result.conservation["injected"],
            "profiler_samples": inst.profiler.samples_taken}


def _run_cluster(config, peaks: Dict[int, int]) -> Dict[str, Any]:
    t0 = time.perf_counter()
    with _patched(worker_mod.PipeShardWorker, "finalize",
                  _reading_peaks(peaks)):
        result = executor_mod.run_cluster(config, shards=SHARDS)
    total = time.perf_counter() - t0
    timing = result.timing
    return {"result": result, "build_s": timing["build_s"],
            "finalize_s": total - timing["build_s"] - timing["run_s"],
            "pkts": result.conservation["cross_injected"]}


def run_pass(workload: str, seed: int, size: str = "full") -> PassResult:
    """Run one whole pass and measure its wall, CPU and packet count."""
    kind = WORKLOADS[workload]
    config = make_config(workload, seed, size)
    peaks: Dict[int, int] = {}
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if kind == "instrumented":
        out = _run_instrumented(config)
    else:
        out = _run_cluster(config, peaks)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    result = out["result"]
    digest = (cluster_digest(result) if kind == "cluster"
              else result_digest(result))
    return PassResult(
        workload=workload, size=size, seed=seed, wall_s=wall, cpu_s=cpu,
        pkts=int(out["pkts"]), digest=digest,
        build_s=out["build_s"], finalize_s=out["finalize_s"],
        worker_peak_kb=sum(peaks.values()),
        facts=_facts(kind, result, out))


def _facts(kind: str, result, out: Dict[str, Any]) -> Dict[str, Any]:
    """The simulated outputs the checks and context lines read."""
    if kind == "cluster":
        lat = result.fg_latency
        return {
            "conservation_exact": bool(result.conservation["exact"]),
            "hi_replies": result.totals["hi"]["replies"],
            "lo_replies": result.totals["lo"]["replies"],
            "timed_out": (result.totals["hi"]["timed_out"]
                          + result.totals["lo"]["timed_out"]),
            "hi_p50_us": lat.p50_us if lat else None,
            "hi_p99_us": lat.p99_us if lat else None,
            "windows": result.conservation["windows"],
            "cross_routed": result.conservation["cross_routed"],
            "flowlet_rehashes": (result.fabric or {}).get(
                "flowlet_rehashes", 0),
        }
    lat = result.fg_latency
    facts = {
        "fg_samples": len(result.fg_samples_ns),
        "fg_p50_us": lat.p50_us if lat else None,
        "fg_p99_us": lat.p99_us if lat else None,
        "bg_kpps": result.bg_delivered_pps / 1e3,
    }
    if kind == "instrumented":
        cons = result.conservation
        facts.update({
            "ledger_balanced": bool(cons["balanced"]),
            "ledger_residual": cons["residual"],
            "fault_drops": sum(n for site, n in
                               cons["dropped_by_site"].items()
                               if site.startswith("fault:")),
            "retries": result.recovery["retries_total"],
            "timeouts": result.recovery["timeouts_total"],
            "flow_records": result.flows["record_count"],
            "flow_record_digest": result.flows["record_digest"],
            "flows_sampled": result.flows["sampler"]["sampled"],
            "profiler_samples": out["profiler_samples"],
        })
    return facts


def check_pass(p: PassResult, first: Optional[PassResult] = None
               ) -> List[str]:
    """Failed output checks of one pass (empty list: the pass is correct).

    *first* is the run's reference pass: the digest, the packet count and
    the flow record digest must be identical to it, pass after pass and
    process after process.
    """
    failed: List[str] = []
    facts = p.facts
    if p.pkts <= 0:
        failed.append("no packets simulated")
    if first is not None:
        if p.digest != first.digest:
            failed.append(f"digest {p.digest[:12]} != {first.digest[:12]}")
        if p.pkts != first.pkts:
            failed.append(f"packets {p.pkts} != {first.pkts}")
    reference = REFERENCE_DIGESTS[p.workload][p.size].get(p.seed)
    if reference is not None and p.digest != reference:
        failed.append(f"digest {p.digest[:12]} != recorded reference "
                      f"{reference[:12]} for seed {p.seed}")
    kind = WORKLOADS[p.workload]
    if kind == "cluster":
        if not facts["conservation_exact"]:
            failed.append("cluster conservation not exact")
        if facts["hi_replies"] <= 0:
            failed.append("no hi-class replies")
    else:
        if facts["fg_samples"] <= 0:
            failed.append("no foreground latency samples")
    if kind == "instrumented":
        if not facts["ledger_balanced"] or facts["ledger_residual"] != 0:
            failed.append(f"packet ledger residual "
                          f"{facts['ledger_residual']}")
        if facts["flow_records"] <= 0:
            failed.append("no flow records exported")
        if first is not None and \
                facts["flow_record_digest"] != first.facts[
                    "flow_record_digest"]:
            failed.append("flow record digest changed between passes")
    return failed


@contextlib.contextmanager
def first_event_hook(workload: str, callback: Callable[[], None]):
    """Call *callback* once, just before the first simulated event.

    Single-host passes start simulating in ``ExperimentCell.run_to``;
    a cluster starts when the executor posts the first window to its
    (already forked and built) workers.
    """
    if WORKLOADS[workload] == "cluster":
        owner, attr = worker_mod.PipeShardWorker, "post_step"
    else:
        owner, attr = cell_mod.ExperimentCell, "run_to"
    fired = []

    def make(original):
        def hooked(*args, **kwargs):
            if not fired:
                fired.append(True)
                callback()
            return original(*args, **kwargs)
        return hooked

    with _patched(owner, attr, make):
        yield
