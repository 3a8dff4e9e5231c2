"""sedlab's benchmark: one workload, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh interpreter (perfbench/rep.py) importing sedlab
from ./src, so every repetition pays what a CLI user pays.  Repetitions run
one after another while the next one is expected to end within S seconds
(at least two).  With
--trace 0 the last line of standard output is the end-to-end result
(medians over the repetitions):

    wall_s       first library/CLI call to checked outputs
    setup_s      interpreter start to generated inputs (import included)
    peak_rss_mb  high-water resident memory of one repetition's process
    ok_share     operations that succeeded / operations attempted, where an
                 operation is one integrated member or one output check

With --trace 1 the repetitions alternate between untraced and traced, and
the last line holds the per-layer metrics of the traced ones (see
perfbench/tracing.py) plus the tracing overhead.  Provenance and per-run
detail go to .perfbench/results/ and to the lines printed before the result.
Without ./src/sedlab the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1  # seed 2203 is held out: use it only to confirm a claimed gain
MIN_REPS = 2
MIN_SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


class Runner:
    """Starts repetitions as child processes, one at a time."""

    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.root = root
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env.pop("SEDLAB_WORKERS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def rep(self, trace: int, setup_only: bool = False) -> dict:
        self.count += 1
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--work", str(self.work / f"rep{self.count}"),
               "--trace", str(trace), "--size", self.args.size]
        if setup_only:
            cmd.append("--setup-only")
        if self.args.inject_failure:
            cmd.append("--inject-failure")
        timeout = max(5.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"repetition exceeded {timeout:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(
                f"repetition exited with status {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(lines[-1])
        expected = (self.root / "src" / "sedlab").resolve()
        if Path(result["sedlab_file"]).resolve().parent != expected:
            raise BenchmarkError(f"imported sedlab from {result['sedlab_file']}, not {expected}")
        for name in result.get("failed_checks", []):
            print(f"FAILED CHECK [{self.args.workload}]: {name}", file=sys.stderr)
        return result

    def reps(self, plan) -> list[dict]:
        """Run repetitions from `plan` while the next one still fits in the
        measuring time; at least MIN_REPS, and never past RUN_LIMIT_S."""
        done: list[dict] = []
        durations: list[float] = []
        for trace in plan:
            if durations:
                finish = self.elapsed() + statistics.median(durations)
                if finish > RUN_LIMIT_S or (len(done) >= MIN_REPS and finish > self.args.seconds):
                    break
            t0 = time.perf_counter()
            done.append(self.rep(trace) | {"traced": trace})
            durations.append(time.perf_counter() - t0)
        return done


def _median(values) -> float:
    return float(statistics.median(values))


def measure(args, root: Path, work: Path) -> tuple[dict, dict]:
    runner = Runner(args, root, work)
    reps = runner.reps(itertools.cycle([0, 1] if args.trace else [0]))
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if args.trace and not traced:
        raise BenchmarkError("no room for a traced repetition")
    setup = [r["setup_s"] for r in reps]
    if not args.trace:
        while len(setup) < MIN_SETUP_SAMPLES and runner.elapsed() < RUN_LIMIT_S - 10:
            setup.append(runner.rep(0, setup_only=True)["setup_s"])

    attempted = sum(r["members"] + r["checks"] for r in reps)
    failed = sum(r["members_failed"] + len(r["failed_checks"]) for r in reps)
    wall = _median([r["wall_s"] for r in plain])
    if args.trace:
        layer_names = traced[0]["layers"]
        metrics = {name: _median([r["layers"][name] for r in traced]) for name in layer_names}
        traced_wall = _median([r["wall_s"] for r in traced])
        cpu = _median([r["cpu_s"] for r in traced])
        metrics["proc.cpu_s"] = cpu
        metrics["proc.cpu_per_wall"] = cpu / traced_wall
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": _median(setup),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "ok_share": (attempted - failed) / attempted,
        }
    first = reps[0]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src" / "sedlab"),
        "versions": first["versions"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "sizes": first["sizes"],
        "drive_bytes_per_chunk": first["drive_bytes_per_chunk"],
        "samples": {"wall_s": [r["wall_s"] for r in plain],
                    "cpu_s": [r["cpu_s"] for r in plain], "setup_s": setup,
                    "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
                    "traced_wall_s": [r["wall_s"] for r in traced]},
        "attempted": attempted,
        "failed": failed,
        "failed_checks": sorted({n for r in reps for n in r["failed_checks"]}),
        "missing_hooks": traced[-1]["missing_hooks"] if traced else [],
        "spans": traced[-1]["spans"] if traced else [],
    }
    return metrics, detail


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sedlab benchmark (one workload)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: every code path at a fraction of the size (smoke test)")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add one failing check to every repetition (smoke test)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running repetition is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd().resolve()
    if not (root / "src" / "sedlab" / "__init__.py").is_file():
        print("no sedlab sources under ./src: run from the root of a sedlab checkout",
              file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    try:
        metrics, detail = measure(args, root, work)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = tracing.UNITS if args.trace else UNITS
    detail["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print("provenance " + json.dumps({k: detail[k] for k in (
        "git_commit", "source_sha256", "versions", "nproc", "cpus_allowed", "blas_env",
        "seed", "sizes", "drive_bytes_per_chunk")}))
    print(f"samples {json.dumps(detail['samples'])}")
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
