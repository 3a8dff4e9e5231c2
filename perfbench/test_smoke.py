"""Smoke test of the benchmark itself, at toy size (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Run from the root of the repository.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--seed", "1", "--seconds", "1",
           "--size", "toy", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(bench("--workload", workload, "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = result_of(bench("--workload", workload, "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == units("per_layer")
    assert metrics["trace.hooks_missing"]["value"] == 0
    assert metrics["trace.nesting_violations"]["value"] == 0
    if workload != "field-correlation":
        run_s = metrics["ensemble.run_s"]["value"]
        assert 0 < metrics["zpf.synth_s"]["value"] + metrics["dynamics.rk4_s"]["value"] <= run_s


def test_injected_failure_is_counted():
    result = result_of(bench("--workload", "field-correlation", "--trace", "0",
                             "--inject-failure"))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_hook_is_reported_not_fatal():
    hooks = [("sedlab.dynamics", "no_such_function", "dynamics.rk4", None),
             ("no_such_module", "f", "zpf.synth", None)]
    tracer = tracing.Tracer().install(hooks)
    tracer.uninstall()
    assert tracer.missing == ["sedlab.dynamics.no_such_function", "no_such_module.f"]
    metrics = tracing.layer_metrics(tracing.summarize(tracer.spans), tracer.missing)
    assert metrics["trace.hooks_missing"] == 2
    assert metrics["dynamics.rk4_s"] == 0


def test_self_time_and_nesting():
    outer = tracing.Span("ensemble.run", -1)
    outer.start, outer.end = 0, 10_000
    inner = tracing.Span("dynamics.rk4", 0)
    inner.start, inner.end = 1_000, 7_000
    inner.items = 5
    summary = tracing.summarize([outer, inner])
    assert summary["nesting_violations"] == 0
    assert summary["groups"]["ensemble.run"]["self_s"] == pytest.approx(4e-6)
    inner.end = 20_000  # a child longer than its parent
    assert tracing.summarize([outer, inner])["nesting_violations"] == 1
