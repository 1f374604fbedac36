"""Self-tests of the benchmark at smoke size.

Run from the repository root (they are not part of the tier-1 suite),
with the hash seed every benchmark run uses::

    PYTHONHASHSEED=0 python3 -m pytest -q simbench/test_simbench.py

They show the benchmark measures what it claims: every workload passes
its output checks, the wrappers leave results byte-identical, the traced
run accounts for the main process's time, and a delay planted in one layer's
function is charged to that layer and slows only the workloads that run
it.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
    pytest.exit(f"run the self-tests with PYTHONHASHSEED={run.HASH_SEED}, "
                f"the hash seed of every benchmark run", returncode=4)

SEED = 1
#: Smallest share of the main process's traced wall time that wrapped spans
#: must cover.
COVERAGE_MIN = 0.95
#: A planted workload must run below this share of its unplanted rate;
#: a workload that never calls the planted function must stay above it.
RATE_SPLIT = 0.8

FOLD = "repro.flows.collector:FlowCollector.fold"
TRANSIT = "repro.fabric.network:FabricNetwork.transit_batch"


def _traced(workload, plants=None):
    trace_dir = Path(tempfile.mkdtemp(prefix="simbench-test-"))
    try:
        rec = tracing.SpanRecorder(trace_dir)
        with tracing.install(rec, plants):
            t0 = time.perf_counter_ns()
            p = workloads.run_pass(workload, SEED, "smoke")
            wall_ns = time.perf_counter_ns() - t0
        snaps = [json.loads(f.read_text())
                 for f in sorted(trace_dir.glob("worker-*.json"))]
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    facts = dict(p.facts, build_s=p.build_s, finalize_s=p.finalize_s)
    metrics = tracing.layer_metrics(rec.snapshot(wall_ns), snaps, facts,
                                    traced_wall_s=p.wall_s,
                                    untraced_wall_s=p.wall_s)
    return p, metrics


def _rate_ratio(workload, plants, pairs=5):
    """Median planted / unplanted packets-per-second ratio.

    Planted and unplanted passes alternate (ABBA order), so both sample
    the same stretches of a noisy machine.
    """
    def rate(planted):
        with tracing.install(None, plants if planted else None):
            p = workloads.run_pass(workload, SEED, "smoke")
        return p.pkts / p.wall_s

    ratios = []
    for i in range(pairs):
        if i % 2:
            planted = rate(True)
            ratios.append(planted / rate(False))
        else:
            base = rate(False)
            ratios.append(rate(True) / base)
    return statistics.median(ratios)


@pytest.fixture(scope="module")
def untraced():
    return {w: workloads.run_pass(w, SEED, "smoke")
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_checks(workload, untraced):
    first = untraced[workload]
    again = workloads.run_pass(workload, SEED, "smoke")
    assert workloads.check_pass(first) == []
    assert workloads.check_pass(again, first) == []
    assert first.digest == workloads.REFERENCE_DIGESTS[workload]["smoke"][
        SEED]


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name_ok = re.compile(r"[A-Za-z0-9_.-]+")
    unit_ok = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            assert name_ok.fullmatch(metric["name"]), metric
            assert unit_ok.fullmatch(metric["unit"]), metric
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.PER_LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_is_neutral_and_covered(workload, untraced):
    p, metrics = _traced(workload)
    # Generator and call wrappers leave the simulation byte-identical.
    assert p.digest == untraced[workload].digest
    assert p.pkts == untraced[workload].pkts
    assert COVERAGE_MIN <= metrics["trace.coverage"] <= 1.0
    assert set(metrics) == set(tracing.PER_LAYER_METRICS)
    assert metrics["sim.events"] > 0 and metrics["netdev.polls"] > 0


def test_fold_delay_is_charged_to_flows_on_observed_only():
    delay_ns = 4_000_000
    base_p, base = _traced("overlay-observed")
    planted_p, planted = _traced("overlay-observed", {FOLD: delay_ns})
    assert planted_p.digest == base_p.digest
    added_s = planted["flows.sampled"] * delay_ns / 1e9
    assert added_s > 0.5
    assert planted["flows.self_s"] - base["flows.self_s"] >= 0.95 * added_s
    others = [k for k in tracing.PER_LAYER_METRICS
              if k.endswith(".self_s") and k != "flows.self_s"]
    grew = sum(planted[k] - base[k] for k in others)
    assert grew < 0.5 * added_s

    plants = {FOLD: delay_ns}
    assert _rate_ratio("overlay-observed", plants) < RATE_SPLIT
    assert _rate_ratio("fattree-2shard", plants) > RATE_SPLIT


def test_transit_delay_moves_fattree_only():
    delay_ns = 20_000_000
    base_p, base = _traced("fattree-2shard")
    planted_p, planted = _traced("fattree-2shard", {TRANSIT: delay_ns})
    assert planted_p.digest == base_p.digest
    calls = planted["shard.useful_window_ratio"] * planted["shard.windows"]
    added_s = calls * delay_ns / 1e9
    assert planted["fabric.transit_s"] - base["fabric.transit_s"] >= \
        0.95 * added_s

    plants = {TRANSIT: delay_ns}
    assert _rate_ratio("fattree-2shard", plants) < RATE_SPLIT
    assert _rate_ratio("overlay-observed", plants) > RATE_SPLIT


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def _probe_pass(workload, hash_seed=run.HASH_SEED):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), "--workload",
         workload, "--seed", str(SEED), "--size", "smoke", "--full"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_probe_matches_in_process_pass(workload, untraced):
    report = _probe_pass(workload)
    assert report["first_event_ns"] > 0
    assert report["pass"]["failed"] == []
    assert report["pass"]["digest"] == untraced[workload].digest


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_result_does_not_depend_on_hash_seed(workload):
    # Fails on overlay-observed until repro.packet.packet derives the
    # VXLAN source port from a process-stable hash instead of hash().
    digests = {_probe_pass(workload, h)["pass"]["digest"]
               for h in (run.HASH_SEED, "1")}
    assert len(digests) == 1


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
         "overlay-observed", "--seed", "1", "--seconds", "1", "--trace",
         "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
