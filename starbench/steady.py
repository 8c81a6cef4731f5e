"""Steadiness check: repeat each workload and compare its spread with the bounds.

    python3 starbench/steady.py [--runs 10] [--workloads relations,sequences,census] [--first-seed 1]

Runs `run.py` once per seed, one run at a time, on the same code.  For each
end-to-end metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the quartile
distance as a share of the median, beside the metric's bound from
BENCHMARK.json.  A spread under a third of the bound is marked `steady`.
`setup_s` has no spread requirement, only its median is bounded.  The raw
results are written to starbench/results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit("run.py failed on %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> tuple:
    """(median, first quartile, third quartile, spread as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    record = {"seconds": args.seconds, "results": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, args.seconds))
            print("  %s seed %d: %s" % (workload, seed, json.dumps(results[-1]["metrics"])), flush=True)
        record["results"][workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print("%s: %d runs, correct %s, failed share %s" % (
            workload, len(results), all(r["correct"] for r in results), sorted(shares)))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in results])
            if name == "setup_s":
                verdict = "median only"
            else:
                worst = max(worst, spread / bound)
                verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "OUT OF BOUND"
            print("  %-12s median %12.4f %-4s  q1 %12.4f  q3 %12.4f  spread %.4f  bound %.2f  %s" % (
                name, med, metric["unit"], q1, q3, spread, bound, verdict))
    out = HERE / "results" / ("steady-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print("largest spread / bound: %.3f; raw results in %s" % (worst, out.relative_to(ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
