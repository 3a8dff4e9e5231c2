"""The benchmark's tracing (perfbench/tracing.py) still finds what it hooks.

The tracer records a hooked name that no longer exists as missing, and a
counter whose parameter is gone as a missing count, without failing the
run; these checks catch such a rename here instead.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the parameters each counter binds by name
COUNTED = {
    "_drive_samples": {"n_steps"},
    "_member_steps": {"x0", "n_steps"},
    "_hierarchy_steps": {"t_span", "dt"},
    "_grid_samples": {"t_grid"},
    "_bytes_of_path_arg": {"path"},
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_hook_is_installed_and_restored(tracing):
    before = [_hooked(module, attr) for module, attr, _, _ in tracing.HOOKS]
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    assert tracer.missing == []
    after = [_hooked(module, attr) for module, attr, _, _ in tracing.HOOKS]
    assert all(a is b for a, b in zip(before, after))


def test_every_counted_parameter_is_in_the_signature(tracing):
    seen = set()
    for module, attr, _, counter in tracing.HOOKS:
        if counter is None or counter.__name__ not in COUNTED:
            continue
        seen.add(counter.__name__)
        params = inspect.signature(_hooked(module, attr)).parameters
        missing = COUNTED[counter.__name__] - set(params)
        assert not missing, f"{module}.{attr} lacks {sorted(missing)}"
    assert seen == set(COUNTED)
