import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sedlab.config import COMMAND_SECTIONS, load_config
from sedlab.errors import ConfigurationError

README = Path(__file__).resolve().parent.parent / "README.md"

# valid in every section; the force and initial conditions take the kinds
# with the most keys
FULL = {
    "schema_version": 1,
    "scales": {"hbar": 1.0, "m": 1.0, "omega0": 1.0, "tau": 0.01},
    "force": {"kind": "polynomial", "coeffs": [0.0, -1.0, 0.0, -0.1], "escape_bound": 50.0},
    "field": {"omega_cut": 20.0, "oversample": 1.0},
    "simulate": {"x0": 0.0, "p0": 0.0, "t_span": 10.0, "dt": 0.016, "seed": 5,
                 "with_field": True, "store_stride": 2},
    "ensemble": {"n_traj": 4, "master_seed": 9, "t_span": 1600.0, "dt": 0.016,
                 "burn_in": 500.0,
                 "initial_conditions": {"kind": "gaussian", "x0_mean": 0.0, "x0_sd": 1.0,
                                        "p0_mean": 0.0, "p0_sd": 1.0}},
    "matrix": {"potential": "force", "n_states": 8, "basis_size": 120},
    "balance": {"window": [500.0, 1600.0], "state": 0, "basis_size": 120},
    "spectrum": {"window": [500.0, 1600.0]},
    "correlate": {"n_realizations": 4, "lags": [0.0, 0.5], "seed": 3,
                  "total_time": 50.0, "sample_dt": 0.05},
}


def _paths(node, path=()):
    """Every node below the root, as a path of keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6)
    | st.integers() | st.integers(-10**400, 10**400)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
def _edits(value, key):
    """FULL with value in place of one node, or added under a new key to
    one object, for every node and object; yields (path, config)."""
    paths = list(_paths(FULL))
    for path in paths:
        doc = json.loads(json.dumps(FULL))
        _node(doc, path[:-1])[path[-1]] = value
        yield path, doc
    for at in [()] + [p for p in paths if isinstance(_node(FULL, p), dict)]:
        doc = json.loads(json.dumps(FULL))
        if key not in _node(doc, at):
            _node(doc, at)[key] = value
            yield at + (key,), doc


@given(command=st.sampled_from(sorted(COMMAND_SECTIONS)), value=JSON_VALUES,
       key=st.text(max_size=8))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_malformed_value_is_refused_naming_its_key(tmp_path, command, value, key):
    cfg = tmp_path / "c.json"
    for path, doc in _edits(value, key):
        cfg.write_text(json.dumps(doc))
        try:
            load_config(cfg, command)
        except ConfigurationError as exc:
            # a list element is named by its list; a changed kind changes
            # the keys its section takes, so the section is named
            names = [k for k in path if isinstance(k, str)]
            name = names[-2] if names[-1] == "kind" and len(names) > 1 else names[-1]
            assert name in str(exc), path


def test_readme_example_config_loads_for_every_command(tmp_path):
    text = README.read_text()
    block = re.search(r"Example config covering all sections:\s*```json\n(.*?)```",
                      text, re.S)
    cfg = tmp_path / "readme.json"
    cfg.write_text(block.group(1))
    for command in COMMAND_SECTIONS:
        assert load_config(cfg, command)["schema_version"] == 1


@pytest.mark.parametrize("text", ['{"schema_version": 1, "x": 1' + "0" * 5000 + "}",
                                  "[" * 100_000 + "]" * 100_000],
                         ids=["5001-digit-int", "deep-nesting"])
def test_json_the_parser_refuses_is_a_configuration_error(tmp_path, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_config(cfg, "simulate")


def test_a_config_that_is_not_text_is_a_configuration_error(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigurationError):
        load_config(cfg, "simulate")
