"""One workload run in one single-threaded process: set up, time, check.

    python3 starbench/worker.py --workload W --seed N --seconds S --trace 0|1 --t0 T [--setup-only]

`--t0` is the launcher's `time.monotonic()` just before it started this
process, so the set-up time counts interpreter start, the starshift import
and the untimed warm-up.  The last line of standard output is one JSON
object.  Exit code 3 means starshift could not be imported from the
checkout's `src` directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _call(main, argv):
    """Run one CLI call with stdout captured; returns (exit code or None, output, error)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), buf.getvalue(), "SystemExit"
    except Exception as exc:  # an operation that raises is counted as failed
        return None, buf.getvalue(), "%s: %s" % (type(exc).__name__, exc)
    return rc, buf.getvalue(), None


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from starshift import cli
    except ImportError as exc:
        print("starbench: cannot import starshift from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        sys.exit(3)
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print("starbench: starshift was imported from outside this checkout", file=sys.stderr)
        sys.exit(3)
    return cli


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    cli = _import_cli()
    for argv in workloads.WARMUPS[args.workload]:
        rc, _out, err = _call(cli.main, argv)
        if rc != 0:
            print("starbench: warm-up %s failed: rc=%r %s" % (argv[0], rc, err), file=sys.stderr)
            return 4
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks

    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    latencies = []
    failed = 0
    wrong = 0
    clock = time.perf_counter
    began = clock()
    while True:
        if tracer is not None:
            tracer.begin_pass()
        for op in ops:
            t = clock()
            rc, out, err = _call(cli.main, op.argv)
            latencies.append(clock() - t)
            if tracer is not None:
                tracer.output_bytes += len(out.encode())
            problems = [err] if err else checks.judge(op, rc, out)
            if problems:
                failed += 1
                wrong += rc in (0, 1)
                print("starbench: %s failed: %s" % (" ".join(op.argv)[:80], "; ".join(problems)), file=sys.stderr)
        if clock() - began >= args.seconds:
            break

    attempted = len(latencies)
    if tracer is not None:
        metrics = tracer.metrics()
        tracer.write(HERE / "results" / ("trace-%s-seed%d.json.gz" % (args.workload, args.seed)))
    else:
        metrics = {
            "ops_per_s": {"value": (attempted - failed) / sum(latencies), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
