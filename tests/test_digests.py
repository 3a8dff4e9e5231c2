"""The digest corpus: small configs run through the command line, with every
output pinned.

Each `tests/digests/<command>-<name>.json` is a config for `sedlab <command>`.
`tests/digests/expected.json` holds, for each config, the exit code and
either the stderr of a refused run or, for a run that succeeds, the sha256
of every output but `manifest.json` (which carries timestamps) and the
output's key numbers.  Key numbers are each JSON number, each numeric
list's root mean square and each CSV column's root mean square.  They are
asserted to 1e-12 relative to the largest key number of the same output
on any platform; the digests are asserted where the platform recorded
beside them matches, since BLAS and FFT kernels may round differently
elsewhere.  The corpus runs at the default CPU count and on one CPU.

A change that moves an output on purpose rewrites the file with

    PYTHONPATH=src python tests/test_digests.py

and names each changed output, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from sedlab import cli
from sedlab.manifest import sha256_of

CORPUS = Path(__file__).with_name("digests")
EXPECTED = CORPUS / "expected.json"
RTOL = 1e-12


def _platform() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def _rms(values: list) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


def _numbers(obj) -> list | None:
    """The numbers of a (nested) list of numbers, or None for any other list."""
    out = []
    for v in obj:
        if isinstance(v, list):
            inner = _numbers(v)
            if inner is None:
                return None
            out += inner
        elif type(v) in (int, float):
            out.append(float(v))
        else:
            return None
    return out


def _flatten(obj, name: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{name}.{key}" if name else key, out)
    elif isinstance(obj, list):
        values = _numbers(obj)
        if values is None:
            for i, val in enumerate(obj):
                _flatten(val, f"{name}.{i}", out)
        elif values:
            out[name] = _rms(values)
    elif type(obj) in (int, float):
        out[name] = float(obj)


def key_numbers(path: Path) -> dict:
    out: dict = {}
    if path.suffix == ".json":
        _flatten(json.loads(path.read_text()), "", out)
        return out
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    for j, name in enumerate(header):
        try:
            out[name] = _rms([float(row[j]) for row in rows])
        except ValueError:  # a column of labels
            pass
    return out


def run_corpus(out_root: Path) -> dict:
    """Run every config of the corpus; config name -> its record."""
    records = {}
    for config in sorted(CORPUS.glob("*-*.json")):
        name = config.stem
        out = out_root / name
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([name.partition("-")[0], str(config), "--out", str(out)])
        if code:
            records[name] = {"exit": code, "stderr": stderr.getvalue()}
            continue
        files = sorted(p for p in out.iterdir() if p.name != "manifest.json")
        records[name] = {
            "exit": code,
            "sha256": {p.name: sha256_of(p) for p in files},
            "key_numbers": {p.name: key_numbers(p) for p in files},
        }
    return records


def _assert_close(got: dict, want: dict, where: str) -> None:
    assert got.keys() == want.keys(), where
    scale = max((abs(v) for v in want.values() if math.isfinite(v)), default=0.0)
    for key, val in want.items():
        assert np.isclose(got[key], val, rtol=RTOL, atol=RTOL * scale,
                          equal_nan=True), (where, key, got[key], val)


@pytest.mark.parametrize("cpus", [None, 1], ids=["default-cpus", "one-cpu"])
def test_corpus_reproduces_the_committed_outputs(tmp_path, pin_cpus, cpus):
    if cpus is not None:
        pin_cpus(cpus)
    expected = json.loads(EXPECTED.read_text())
    got = run_corpus(tmp_path)
    assert got.keys() == expected["runs"].keys()
    same_platform = expected["platform"] == _platform()
    for name, want in expected["runs"].items():
        run = got[name]
        assert run["exit"] == want["exit"], (name, run)
        if want["exit"]:
            assert run["stderr"] == want["stderr"], name
            continue
        assert run["sha256"].keys() == want["sha256"].keys(), name
        for output, numbers in want["key_numbers"].items():
            _assert_close(run["key_numbers"][output], numbers, f"{name}/{output}")
        if same_platform:
            assert run["sha256"] == want["sha256"], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = run_corpus(Path(tmp))
    EXPECTED.write_text(json.dumps({"platform": _platform(), "runs": runs},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED} ({len(runs)} configs)", file=sys.stderr)
