"""Strict JSON configuration for the batch commands.

One schema is shared by all subcommands; each command states which sections
it requires.  A section built by one constructor takes its keys, required
keys and defaults from that constructor's signature; only the sections read
by the command line alone list their keys here.  Every value is a finite
number unless its key's name is in `_RULES`.  Unknown keys are errors, not
warnings: silently ignored keys would break reproducibility from manifests.
Error messages name the offending field and, where possible, the line in
the config file.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

from .ensemble import EnsembleConfig, FixedIC, GaussianIC, PairedIC
from .errors import ConfigurationError
from .forces import ForceModel, harmonic, polynomial, quartic
from .zpf import PhysicalScales, build_mode_set

SCHEMA_VERSION = 1

_FLOAT_MAX = sys.float_info.max


def _is_number(val) -> bool:
    """A finite number: no bool, NaN or infinity, and no int beyond float
    range (compared exactly, without the OverflowError of a float cast)."""
    return type(val) in (int, float) and -_FLOAT_MAX <= val <= _FLOAT_MAX


def _is_numbers(val) -> bool:
    return type(val) is list and all(map(_is_number, val))


# key name -> (rule, what the rule asks for); every other key holds a finite
# number, and a key in _KINDS holds a section of its own
_NUMBER = (_is_number, "a finite number")
_RULES = {
    **dict.fromkeys(("kind", "potential"), (lambda v: type(v) is str, "a string")),
    "with_field": (lambda v: type(v) is bool, "a boolean"),
    **dict.fromkeys(
        ("n_traj", "master_seed", "seed", "store_stride", "n_states",
         "basis_size", "state", "n_realizations"),
        (lambda v: type(v) is int and _is_number(v), "an integer"),
    ),
    "coeffs": (_is_numbers, "a list of finite numbers"),
    "lags": (lambda v: _is_numbers(v) and len(v) > 0, "a non-empty list of finite numbers"),
    "window": (lambda v: _is_numbers(v) and len(v) == 2, "[t_lo, t_hi] of two finite numbers"),
}

# sections whose 'kind' names the constructor that consumes them
_KINDS = {
    "force": {"harmonic": harmonic, "quartic": quartic, "polynomial": polynomial},
    "initial_conditions": {"fixed": FixedIC, "paired": PairedIC, "gaussian": GaussianIC},
}


def _params(ctor) -> dict[str, bool]:
    """key -> required, from the signature of the constructor."""
    return {k: p.default is p.empty for k, p in inspect.signature(ctor).parameters.items()}


def _keys(required: str, optional: str = "") -> dict[str, bool]:
    return {**dict.fromkeys(required.split(), True), **dict.fromkeys(optional.split(), False)}


_ENSEMBLE = _params(EnsembleConfig)
del _ENSEMBLE["scales"], _ENSEMBLE["force"]  # built from their own sections
# 'field' holds what EnsembleConfig passes on to build_mode_set
_FIELD = {k: _ENSEMBLE.pop(k) for k in inspect.signature(build_mode_set).parameters
          if k in _ENSEMBLE}

# section -> key -> required; None takes the keys from the section's kind
_SECTIONS = {
    "scales": dict.fromkeys(_params(PhysicalScales), True),  # no unit is implied
    "force": None,
    "field": _FIELD,
    "ensemble": _ENSEMBLE,
    # read by the command line alone
    "simulate": _keys("x0 p0 t_span dt", "seed with_field store_stride"),
    "matrix": _keys("potential", "n_states basis_size"),
    "balance": _keys("", "window state basis_size"),
    "spectrum": _keys("", "window"),
    "correlate": _keys("n_realizations lags seed total_time", "sample_dt"),
}

COMMAND_SECTIONS = {
    "simulate": ("scales", "force", "simulate"),
    "ensemble": ("scales", "force", "field", "ensemble"),
    "matrix": ("scales", "matrix"),
    "balance": ("scales", "force", "field", "ensemble"),
    "spectrum": ("scales", "force", "field", "ensemble"),
    "correlate": ("scales", "field", "correlate"),
}


def _line_of(raw: str, key: str) -> str:
    needle = f'"{key}"'
    for i, line in enumerate(raw.splitlines(), start=1):
        if needle in line:
            return f" (line {i})"
    return ""


def _check(name: str, body, keys: dict[str, bool] | None, fail) -> None:
    """Check section `name` against keys (key -> required); None takes the
    keys from the signature of the constructor its 'kind' names."""
    leaf = name.rpartition(".")[2]
    if type(body) is not dict:
        fail(f"section '{name}' must be an object", leaf)
    if keys is None:
        kinds = _KINDS[leaf]
        kind = body.get("kind")
        if not (type(kind) is str and kind in kinds):
            fail(f"'{name}.kind' must be one of {sorted(kinds)}, got {kind!r}", "kind")
        keys = {"kind": True, **_params(kinds[kind])}
    for key in body:
        if key not in keys:
            fail(f"unknown key '{name}.{key}'", key)
    for key, required in keys.items():
        if key not in body:
            if required:
                fail(f"missing required field '{name}.{key}'", leaf)
        elif key in _KINDS:
            _check(f"{name}.{key}", body[key], None, fail)
        else:
            rule, what = _RULES.get(key, _NUMBER)
            if not rule(body[key]):
                fail(f"'{name}.{key}' must be {what}", key)


def load_config(path: str | Path, command: str) -> dict:
    """Parse and validate a config file for `command`; returns the dict."""
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an int of over 4300 digits, deep nesting
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{path}: top level must be an object")

    def fail(msg: str, key: str):
        raise ConfigurationError(f"{path}: {msg}{_line_of(raw, key)}")

    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        fail(f"schema_version must be {SCHEMA_VERSION}, got {version!r}", "schema_version")
    for key in cfg:
        if key not in _SECTIONS and key != "schema_version":
            fail(f"unknown section '{key}'", key)
    for section in COMMAND_SECTIONS[command]:
        if section not in cfg:
            raise ConfigurationError(f"{path}: command '{command}' requires section '{section}'")
    for section, body in cfg.items():
        if section != "schema_version":
            _check(section, body, _SECTIONS[section], fail)
    return cfg


def _build(kinds: dict, body: dict):
    body = dict(body)
    return kinds[body.pop("kind")](**body)


def build_scales(cfg: dict) -> PhysicalScales:
    return PhysicalScales(**cfg["scales"])


def build_force(cfg: dict) -> ForceModel:
    return _build(_KINDS["force"], cfg["force"])


def build_ensemble_config(cfg: dict) -> EnsembleConfig:
    ens = dict(cfg["ensemble"])
    if "initial_conditions" in ens:
        ens["initial_conditions"] = _build(_KINDS["initial_conditions"],
                                           ens["initial_conditions"])
    return EnsembleConfig(scales=build_scales(cfg), force=build_force(cfg),
                          **cfg["field"], **ens)


def window_from(body: dict) -> tuple[float, float] | None:
    """The section's 'window' as floats (load_config has checked it), or None
    for the estimators' default, (burn_in, t_span)."""
    win = body.get("window")
    return None if win is None else (float(win[0]), float(win[1]))
