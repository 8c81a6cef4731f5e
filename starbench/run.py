"""Benchmark entry point: one workload, one seed, one result line.

    python3 starbench/run.py --workload relations|sequences|census --seed N --seconds S --trace 0|1

With `--trace 0` it starts SETUPS fresh worker processes one after another;
all but the last only set up (import starshift and warm up) and report the
time, and the last one also runs the timed passes.  `setup_s` is the median
of the set-up times; the other end-to-end metrics come from the last worker.
With `--trace 1` a single worker runs the same passes under the tracer and
reports the per-module metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUPS = 3
DEADLINE_S = 170.0


def _worker(args, extra, deadline):
    """Run one worker to completion and return its last output line as JSON."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
        *extra,
    ]
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        sys.exit("starbench: worker passed the %.0f s deadline" % DEADLINE_S)
    if proc.returncode != 0:
        sys.exit("starbench: worker exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("starbench: worker printed no result")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (HERE.parent / "src" / "starshift" / "cli.py").is_file():
        sys.exit("starbench: no starshift sources under %s" % (HERE.parent / "src"))

    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        result = _worker(args, [], deadline)
    else:
        setups = [_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUPS - 1)]
        result = _worker(args, [], deadline)
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
