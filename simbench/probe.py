"""Set-up probe: one fresh interpreter, timed up to its first simulated event.

Run by ``run.py`` as a subprocess::

    python3 simbench/probe.py --workload overlay-observed --seed 1 [--full]

It imports the simulator, builds the workload (testbed, or fabric plus
forked shard workers) and prints, as one JSON line, the
``CLOCK_MONOTONIC`` reading at the first simulated event; the parent
subtracts its own reading taken just before the launch.  Without
``--full`` it stops there; with it, the pass runs to the end and the line
also carries the pass's digest and checks, so ``run.py`` can compare it
with the same pass made in its own process.
"""

import time  # noqa: I001  (first, so imports below count as set-up)
import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


class _Started(Exception):
    """Raised at the first event when the pass need not run on."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--full", action="store_true",
                        help="run the pass to the end and report it")
    args = parser.parse_args(argv)

    stamp = {}

    def started() -> None:
        stamp["ns"] = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        if not args.full:
            raise _Started

    out = {}
    try:
        with workloads.first_event_hook(args.workload, started):
            p = workloads.run_pass(args.workload, args.seed, args.size)
        out["pass"] = {"digest": p.digest, "pkts": p.pkts,
                       "flow_record_digest":
                           p.facts.get("flow_record_digest"),
                       "failed": workloads.check_pass(p)}
    except _Started:
        pass
    out["first_event_ns"] = stamp["ns"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
