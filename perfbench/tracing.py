"""Spans around calls into sedlab's layers, recorded from outside the package.

Each hook replaces one module (or class) attribute with a wrapper that
records a span: name, start, end and the span that was open when it began.
A hook is installed on the name the caller looks the function up by (for
example `sedlab.cli.run_ensemble`, not `sedlab.ensemble.run_ensemble`, for
the CLI commands), so the span covers exactly the calls that caller makes.
A hooked name that no longer exists is reported as missing; it never stops
the run.  Spans stay in memory until the repetition ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from pathlib import Path


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs) -> dict:
    return _signature(fn).bind(*args, **kwargs).arguments


def _drive_samples(fn, args, kwargs, result):
    return 2 * int(_bound(fn, args, kwargs)["n_steps"]) + 1


def _grid_samples(fn, args, kwargs, result):
    return len(_bound(fn, args, kwargs)["t_grid"])


def _member_steps(fn, args, kwargs, result):
    arg = _bound(fn, args, kwargs)
    return len(arg["x0"]) * int(arg["n_steps"])


def _hierarchy_steps(fn, args, kwargs, result):
    arg = _bound(fn, args, kwargs)
    return int(round(arg["t_span"] / arg["dt"]))


def _members(fn, args, kwargs, result):
    return {"members": result.n_members, "diverged": len(result.diverged)}


def _bytes_of_path_arg(fn, args, kwargs, result):
    return Path(_bound(fn, args, kwargs)["path"]).stat().st_size


def _bytes_of_result(fn, args, kwargs, result):
    return Path(result).stat().st_size


# (module, attribute, span name, counter).  The attribute may name a class
# method as "Class.method".  A counter turns one call into a number of work
# items, or a dict of them, stored on the span.
HOOKS = [
    ("sedlab.ensemble", "build_mode_set", "zpf.mode_set", None),
    ("sedlab.cli", "build_mode_set", "zpf.mode_set", None),
    ("sedlab.ensemble", "sample_realization", "zpf.realization", None),
    ("sedlab.cli", "sample_realization", "zpf.realization", None),
    ("sedlab.ensemble", "synthesize_drive", "zpf.synth", _drive_samples),
    ("sedlab.zpf", "eval_field_grid", "zpf.synth", _grid_samples),
    ("sedlab.cli", "empirical_correlation", "zpf.correlation", None),
    ("sedlab.ensemble", "rk4_core", "dynamics.rk4", _member_steps),
    ("sedlab.dynamics", "hierarchy_terms", "dynamics.hierarchy", _hierarchy_steps),
    ("sedlab.cli", "run_ensemble", "ensemble.run", _members),
    ("sedlab.ensemble", "run_ensemble", "ensemble.run", _members),
    ("sedlab.cli", "stationary_moments", "ensemble.stats", None),
    ("sedlab.cli", "power_spectrum", "ensemble.stats", None),
    ("sedlab.cli", "estimate_diffusion", "ensemble.stats", None),
    ("sedlab.ensemble", "estimate_diffusion", "ensemble.stats", None),
    ("sedlab.ensemble", "memory_loss", "ensemble.stats", None),
    ("sedlab.cli", "diagonalize_potential", "matrices.diagonalize", None),
    ("sedlab.cli", "oscillator_matrices", "matrices.diagonalize", None),
    ("sedlab.cli", "commutator_matrix", "matrices.checks", None),
    ("sedlab.cli", "trk_sum", "matrices.checks", None),
    ("sedlab.cli", "heisenberg_product", "matrices.checks", None),
    ("sedlab.cli", "measure_balance", "balance.measure", None),
    ("sedlab.cli", "trace_dpx", "balance.trace", None),
    ("sedlab.cli", "trace_dpp", "balance.trace", None),
    ("sedlab.cli", "predict_decay", "balance.trace", None),
    ("sedlab.cli", "load_config", "cli.config", None),
    ("sedlab.cli", "write_csv", "cli.write", _bytes_of_path_arg),
    ("sedlab.cli", "write_json", "cli.write", _bytes_of_path_arg),
    ("sedlab.manifest", "RunManifestWriter.write", "cli.write", _bytes_of_result),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "items")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0
        self.items = None


class Tracer:
    """Installs the hooks, records spans, and restores every hooked name."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self, hooks=HOOKS) -> "Tracer":
        for module_name, attr, name, counter in hooks:
            label = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(label)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(label)
                continue
            setattr(owner, leaf, self._wrap(fn, name, counter, label))
            self._undo.append((owner, leaf, fn))
        return self

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._undo):
            setattr(owner, leaf, fn)
        self._undo.clear()

    def _wrap(self, fn, name, counter, label):
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else -1)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                try:
                    span.items = counter(fn, args, kwargs, result)
                except (KeyError, TypeError, AttributeError, OSError):
                    # the signature changed: time the call, drop its count
                    if f"count:{label}" not in self.missing:
                        self.missing.append(f"count:{label}")
            return result

        return traced


UNITS = {
    "zpf.synth_s": "s",
    "zpf.synth_calls": "count",
    "zpf.synth_ms_per_call": "ms",
    "zpf.samples_per_s": "1/s",
    "zpf.correlation_self_s": "s",
    "zpf.mode_set_s": "s",
    "dynamics.rk4_s": "s",
    "dynamics.rk4_calls": "count",
    "dynamics.member_steps": "count",
    "dynamics.rk4_ns_per_member_step": "ns",
    "dynamics.hierarchy_s": "s",
    "dynamics.hierarchy_us_per_step": "us",
    "ensemble.run_s": "s",
    "ensemble.run_self_s": "s",
    "ensemble.members": "count",
    "ensemble.members_diverged": "count",
    "ensemble.stats_s": "s",
    "matrices.diagonalize_s": "s",
    "matrices.checks_s": "s",
    "balance.measure_s": "s",
    "balance.trace_s": "s",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "trace.hooks_missing": "count",
    "trace.nesting_violations": "count",
    # filled in from the process, not from spans
    "proc.cpu_s": "s",
    "proc.cpu_per_wall": "ratio",
    "trace.overhead_frac": "ratio",
}


def _group(name: str) -> str:
    """Metric group of a span; realizations are drawn as part of synthesis."""
    return "zpf.synth" if name == "zpf.realization" else name


def summarize(spans: list[Span]) -> dict:
    """Per-group totals, self times, call counts and work items.

    A span nested inside another span of its own group is not added again,
    so a group's total is the time covered by that group.  Self time is a
    span's duration minus the durations of its direct children.  A span
    whose children last longer than it does is a nesting violation.
    """
    child_sum = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_sum[span.parent] += span.end - span.start
    groups: dict[str, dict] = {}
    violations = 0
    for i, span in enumerate(spans):
        dur = span.end - span.start
        if child_sum[i] > dur:
            violations += 1
        group = _group(span.name)
        g = groups.setdefault(group, {"s": 0.0, "self_s": 0.0, "calls": 0, "items": {}})
        g["self_s"] += (dur - child_sum[i]) * 1e-9
        if span.name != "zpf.realization":
            g["calls"] += 1
        items = span.items
        if isinstance(items, int):
            items = {"items": items}
        for key, value in (items or {}).items():
            g["items"][key] = g["items"].get(key, 0) + value
        ancestor = span.parent
        while ancestor >= 0 and _group(spans[ancestor].name) != group:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            g["s"] += dur * 1e-9
    return {"groups": groups, "nesting_violations": violations}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(summary: dict, missing: list[str]) -> dict:
    """The per-layer metrics of one traced repetition (idle layers read 0)."""
    groups = summary["groups"]

    def g(name: str) -> dict:
        return groups.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "items": {}})

    synth, rk4, hier, run = g("zpf.synth"), g("dynamics.rk4"), g("dynamics.hierarchy"), g("ensemble.run")
    member_steps = rk4["items"].get("items", 0)
    hier_steps = hier["items"].get("items", 0)
    return {
        "zpf.synth_s": synth["s"],
        "zpf.synth_calls": synth["calls"],
        "zpf.synth_ms_per_call": _ratio(synth["s"], synth["calls"], 1e3),
        "zpf.samples_per_s": _ratio(synth["items"].get("items", 0), synth["s"]),
        "zpf.correlation_self_s": g("zpf.correlation")["self_s"],
        "zpf.mode_set_s": g("zpf.mode_set")["s"],
        "dynamics.rk4_s": rk4["s"],
        "dynamics.rk4_calls": rk4["calls"],
        "dynamics.member_steps": member_steps,
        "dynamics.rk4_ns_per_member_step": _ratio(rk4["s"], member_steps, 1e9),
        "dynamics.hierarchy_s": hier["s"],
        "dynamics.hierarchy_us_per_step": _ratio(hier["s"], hier_steps, 1e6),
        "ensemble.run_s": run["s"],
        "ensemble.run_self_s": run["self_s"],
        "ensemble.members": run["items"].get("members", 0),
        "ensemble.members_diverged": run["items"].get("diverged", 0),
        "ensemble.stats_s": g("ensemble.stats")["s"],
        "matrices.diagonalize_s": g("matrices.diagonalize")["s"],
        "matrices.checks_s": g("matrices.checks")["s"],
        "balance.measure_s": g("balance.measure")["s"],
        "balance.trace_s": g("balance.trace")["s"],
        "cli.config_s": g("cli.config")["s"],
        "cli.write_s": g("cli.write")["s"],
        "cli.bytes_written": g("cli.write")["items"].get("items", 0),
        "trace.hooks_missing": len(missing),
        "trace.nesting_violations": summary["nesting_violations"],
    }
