"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --work DIR
                             [--trace 0|1] [--size full|toy] [--inject-failure]

Prints one JSON object on its last line.  A fresh process pays what a CLI
user pays on every run, so:

* setup_s is interpreter start-up to inputs: importing numpy, scipy and
  sedlab plus generating the inputs from the seed;
* wall_s runs from the first library or CLI call to checked outputs, and so
  includes first-call costs such as the first basis diagonalization;
* peak_rss_mb is this process's high-water resident memory after wall_s.

The slow-path spot check runs after the timed region and is not timed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sedlab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--inject-failure", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the inputs: one more setup_s sample")
    args = parser.parse_args()

    p = workloads.make_inputs(args.workload, args.seed, args.size, Path(args.work))
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "sedlab_file": os.path.abspath(sedlab.__file__)}))
        return

    restore = workloads.capture_reports(p) if args.workload == "stationary-harmonic" else None
    tracer = tracing.Tracer().install() if args.trace else None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    outcome = workloads.run(args.workload, p, args.inject_failure)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    if restore is not None:
        restore()

    workloads.spot_check(args.workload, p, outcome.checks)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "members": outcome.members,
        "members_failed": outcome.members_failed,
        "checks": len(outcome.checks.results),
        "failed_checks": outcome.checks.failed,
        "drive_bytes_per_chunk": workloads.drive_bytes_per_chunk(args.workload, p),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "sedlab": sedlab.__version__},
        "sedlab_file": os.path.abspath(sedlab.__file__),
        "sizes": {k: v for k, v in p.items()
                  if isinstance(v, (int, float))},
    }
    if tracer is not None:
        summary = tracing.summarize(tracer.spans)
        result["layers"] = tracing.layer_metrics(summary, tracer.missing)
        result["missing_hooks"] = tracer.missing
        result["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
