"""Host-time benchmark of the PRISM simulator.

Run from the repository root::

    python3 simbench/run.py --workload overlay-observed --seed 1 --seconds 55 --trace 0
    python3 simbench/run.py --workload fattree-2shard --seed 1 --seconds 55 --trace 1

``--trace 0`` times whole passes untraced and prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and prints
the per-layer metrics.  Every pass must pass the output checks in
``workloads.check_pass``.  Context lines start with ``#``; the last line
of standard output is the JSON result.  Each run is appended to
``simbench/out/ledger.jsonl`` with the code and config digests behind it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Fresh interpreters launched per untraced run for ``setup_s``.
SETUP_LAUNCHES = 9
#: Timed passes are repeated until ``--seconds`` have passed, and at least
#: this many run.
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
#: ``PYTHONHASHSEED`` of every interpreter in a run.  The hash seed is an
#: input of the program (string hashing orders sets and dicts, and
#: ``repro.packet.packet`` hashes the inner flow key into the VXLAN
#: source port), so it is fixed like every other input.  The reference
#: digests in ``workloads`` were recorded with it.
HASH_SEED = "0"

END_TO_END = {
    "sim_pkts_per_s": "1/s",
    "cpu_us_per_pkt": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _context(line: str) -> None:
    print(f"# {line}", flush=True)


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        v = values[0]
        return {"q1": v, "median": v, "q3": v, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3,
            "n": len(values)}


def _probe(workload: str, seed: int, size: str = "full", *,
           full: bool = False) -> Dict[str, Any]:
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"),
           "--workload", workload, "--seed", str(seed), "--size", size]
    if full:
        cmd.append("--full")
    launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-400:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = (out["first_event_ns"] - launched) / 1e9
    return out


def _describe(p) -> str:
    facts = p.facts
    keys = [k for k in ("fg_p50_us", "fg_p99_us", "bg_kpps", "hi_p50_us",
                        "hi_p99_us", "hi_replies", "lo_replies",
                        "retries", "flow_records", "ledger_residual",
                        "windows", "cross_routed") if k in facts]
    shown = " ".join(
        f"{k}={facts[k]:.4g}" if isinstance(facts[k], float)
        else f"{k}={facts[k]}" for k in keys)
    return f"sim context (checked, not metrics): {shown}"


def _smoke_pair(workloads, workload: str, seed: int) -> List[str]:
    """Failed checks of one smoke pass in a fresh process and one here.

    Both must pass their checks and agree on digest, packet count and
    flow record digest.  The in-process pass also warms the code paths.
    """
    other = _probe(workload, seed, "smoke", full=True)["pass"]
    here = workloads.run_pass(workload, seed, "smoke")
    bad = list(other["failed"]) + workloads.check_pass(here)
    if other["digest"] != here.digest:
        bad.append(f"digest {other['digest'][:12]} in a separate "
                   f"process != {here.digest[:12]} in this one")
    if other["pkts"] != here.pkts:
        bad.append("packet count differs between processes")
    if other["flow_record_digest"] != here.facts.get("flow_record_digest"):
        bad.append("flow record digest differs between processes")
    return [f"smoke passes: {b}" for b in bad]


def run_untraced(workloads, workload: str, seed: int, seconds: float
                 ) -> Dict[str, Any]:
    failures = _smoke_pair(workloads, workload, seed)
    attempted = 2
    failed = 2 if failures else 0

    # Timed passes until the next one would end past the deadline.  The
    # set-up launches are spread over the same window, between passes,
    # so they sample the machine at the same times the passes do.
    passes = []
    setup: List[float] = []
    timed = 0
    started = time.perf_counter()
    longest = 0.0
    while timed < MIN_PASSES or \
            time.perf_counter() - started + longest <= seconds:
        elapsed = time.perf_counter() - started
        if len(setup) < min(SETUP_LAUNCHES,
                            1 + SETUP_LAUNCHES * elapsed / seconds):
            setup.append(_probe(workload, seed)["setup_s"])
        timed += 1
        try:
            p = workloads.run_pass(workload, seed)
        except Exception as exc:  # a crashing pass is a failed operation
            failed += 1
            failures.append(f"pass {timed}: {type(exc).__name__}: {exc}")
            continue
        bad = workloads.check_pass(p, passes[0] if passes else None)
        if bad:
            failed += 1
            failures.extend(f"pass {timed}: {b}" for b in bad)
        passes.append(p)
        longest = max(longest, p.wall_s)
    while len(setup) < SETUP_LAUNCHES:
        setup.append(_probe(workload, seed)["setup_s"])

    out = {"attempted": attempted + timed, "failed": failed,
           "failures": failures, "metrics": {}, "units": END_TO_END,
           "passes": passes, "stats": {}}
    if not passes:
        return out
    stats = out["stats"] = {
        "sim_pkts_per_s": _quartiles([p.pkts / p.wall_s for p in passes]),
        "cpu_us_per_pkt": _quartiles([p.cpu_s * 1e6 / p.pkts
                                      for p in passes]),
        "setup_s": _quartiles(setup)}
    for name, q in stats.items():
        _context(f"{name}: median={q['median']:.6g} q1={q['q1']:.6g} "
                 f"q3={q['q3']:.6g} n={q['n']}")
    _context(f"packets/pass={passes[0].pkts} "
             f"wall/pass={statistics.median(p.wall_s for p in passes):.3f}s")
    _context(_describe(passes[0]))
    main_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_kb = max(p.worker_peak_kb for p in passes)
    out["metrics"] = {name: q["median"] for name, q in stats.items()}
    out["metrics"]["peak_rss_mb"] = (main_kb + workers_kb) / 1024.0
    return out


def run_traced(workloads, tracing, workload: str, seed: int
               ) -> Dict[str, Any]:
    smoke_bad = _smoke_pair(workloads, workload, seed)
    base = workloads.run_pass(workload, seed)
    base_bad = workloads.check_pass(base)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=OUT_DIR))
    try:
        rec = tracing.SpanRecorder(trace_dir)
        with tracing.install(rec):
            t0 = time.perf_counter_ns()
            traced = workloads.run_pass(workload, seed)
            wall_ns = time.perf_counter_ns() - t0
        main = rec.snapshot(wall_ns)
        worker_snaps = [json.loads(path.read_text())
                        for path in sorted(trace_dir.glob("worker-*.json"))]
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    traced_bad = workloads.check_pass(traced, base)
    facts = dict(traced.facts, build_s=traced.build_s,
                 finalize_s=traced.finalize_s)
    metrics = tracing.layer_metrics(main, worker_snaps, facts,
                                    traced_wall_s=traced.wall_s,
                                    untraced_wall_s=base.wall_s)
    _context(f"traced wall={traced.wall_s:.3f}s untraced wall="
             f"{base.wall_s:.3f}s workers={len(worker_snaps)}")
    _context(_describe(base))
    failures = (smoke_bad + [f"untraced pass: {b}" for b in base_bad]
                + [f"traced pass: {b}" for b in traced_bad])
    failed = 2 * bool(smoke_bad) + bool(base_bad) + bool(traced_bad)
    return {"attempted": 4, "failed": failed, "failures": failures,
            "metrics": metrics,
            "units": {k: u for k, (u, _) in
                      tracing.PER_LAYER_METRICS.items()},
            "passes": [base, traced], "stats": {}}


def _file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _append_ledger(entry: Dict[str, Any]) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with (OUT_DIR / "ledger.jsonl").open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the PRISM simulator")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Start again in an interpreter with the fixed hash seed; the
        # set-up probes inherit it.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(BENCH_DIR / "run.py")]
                 + (sys.argv[1:] if argv is None else list(argv)))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simbench: simulator source {SRC / 'repro'} not found; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    from repro.bench.runner import code_version

    if args.workload not in workloads.WORKLOADS:
        print(f"simbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        out = run_traced(workloads, tracing, args.workload, args.seed)
    else:
        out = run_untraced(workloads, args.workload, args.seed, args.seconds)
    for failure in out["failures"]:
        _context(f"CHECK FAILED {failure}")

    config = workloads.make_config(args.workload, args.seed)
    _append_ledger({
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "code_digest": code_version(),
        "bench_digest": _file_digest(BENCH_DIR.glob("*.py")),
        "config_digest": workloads.config_digest(config),
        "result_digests": sorted({p.digest for p in out["passes"]}),
        "attempted": out["attempted"], "failed": out["failed"],
        "metrics": out["metrics"], "stats": out["stats"],
    })

    result = {
        "correct": out["failed"] == 0 and bool(out["metrics"]),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": out["units"][name]}
                    for name, value in out["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if out["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
