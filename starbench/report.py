"""Print every metric of every workload by name and unit, with the checks' verdict.

    python3 starbench/report.py [--seed 1] [--seconds 20] [--workloads relations,sequences,census]

For each workload it makes one untraced run (the end-to-end metrics) and one
traced run with the same seed (the per-module metrics), then prints the
self time per pass split by module and the tracing overhead: the traced
mean operation time, taken as the summed module self times per pass over
the operations per pass, against the untraced one.  It exits 1 if any run
reports a wrong answer or a failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from steady import run_once
from tracing import MODULES
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _print_metrics(result: dict) -> None:
    print("    correct %s, attempted %d, failed %d" % (result["correct"], result["attempted"], result["failed"]))
    for name, m in result["metrics"].items():
        value = "%d" % m["value"] if isinstance(m["value"], int) else "%.6g" % m["value"]
        print("    %-42s %14s %s" % (name, value, m["unit"]))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        plain = run_once(workload, args.seed, args.seconds, trace=0)
        traced = run_once(workload, args.seed, args.seconds, trace=1)
        print("%s (seed %d, %d s)" % (workload, args.seed, args.seconds))
        print("  end to end, untraced:")
        _print_metrics(plain)
        print("  per module, traced (per pass):")
        _print_metrics(traced)
        per_pass = {m: traced["metrics"]["%s.self_s" % m]["value"] for m in MODULES}
        total = sum(per_pass.values())
        split = ", ".join("%s %.0f%%" % (m, 100 * v / total) for m, v in sorted(per_pass.items(), key=lambda kv: -kv[1]) if v)
        print("  self time per pass %.3f s: %s" % (total, split))
        ops_per_pass = len(workloads.build(workload, args.seed))
        untraced_op = 1 / plain["metrics"]["ops_per_s"]["value"]
        print("  tracing overhead: %+.1f%% on the mean operation time" % (100 * (total / ops_per_pass / untraced_op - 1)))
        for result in (plain, traced):
            ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
