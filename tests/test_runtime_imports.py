"""The simulator runtime loads neither numpy nor sqlite3.

Every process, and every forked shard worker, pays for what the
runtime imports.  A fresh interpreter imports ``repro``, runs a tiny
single-host experiment and a tiny in-process sharded cluster (latency
summaries included), and must finish with neither module loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import repro
from repro.bench.experiment import ExperimentConfig, run_experiment
from repro.shard import ClusterConfig, run_cluster
from repro.sim.units import MS

single = run_experiment(ExperimentConfig(fg_rate_pps=2_000,
                                         bg_rate_pps=20_000,
                                         duration_ns=4 * MS,
                                         warmup_ns=1 * MS))
cluster = run_cluster(ClusterConfig(hosts=2, users=50, duration_ns=2 * MS,
                                    warmup_ns=1 * MS),
                      shards=2, processes=False)
print(json.dumps({
    "fg_p99": single.fg_latency.p99_ns,
    "cluster_p99": cluster.fg_latency.p99_ns,
    "loaded": sorted(m for m in ("numpy", "sqlite3") if m in sys.modules),
}))
"""


def test_runtime_imports_neither_numpy_nor_sqlite3():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["fg_p99"] > 0 and out["cluster_p99"] > 0
    assert out["loaded"] == []
