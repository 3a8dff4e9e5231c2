"""Strict JSON configuration for the batch commands.

One schema is shared by all subcommands; each command states which sections
it requires.  Unknown keys are errors, not warnings: silently ignored keys
would break reproducibility from manifests.  Error messages name the
offending field and, where possible, the line in the config file.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

from .ensemble import EnsembleConfig, FixedIC, GaussianIC, PairedIC
from .errors import ConfigurationError
from .forces import ForceModel, harmonic, polynomial, quartic
from .zpf import PhysicalScales

SCHEMA_VERSION = 1

# section -> key -> (required, type tuple)
_NUM = (int, float)
_SCHEMA: dict[str, dict[str, tuple[bool, tuple]]] = {
    "scales": {
        "hbar": (True, _NUM),
        "m": (True, _NUM),
        "omega0": (True, _NUM),
        "tau": (True, _NUM),
    },
    "force": {
        "kind": (True, (str,)),
        "omega0": (False, _NUM),
        "m": (False, _NUM),
        "lam": (False, _NUM),
        "coeffs": (False, (list,)),
        "escape_bound": (False, _NUM),
    },
    "field": {
        "omega_cut": (True, _NUM),
        "oversample": (False, _NUM),
    },
    "simulate": {
        "x0": (True, _NUM),
        "p0": (True, _NUM),
        "t_span": (True, _NUM),
        "dt": (True, _NUM),
        "seed": (False, (int,)),
        "with_field": (False, (bool,)),
        "store_stride": (False, (int,)),
    },
    "ensemble": {
        "n_traj": (True, (int,)),
        "master_seed": (True, (int,)),
        "t_span": (True, _NUM),
        "dt": (True, _NUM),
        "burn_in": (True, _NUM),
        "initial_conditions": (False, (dict,)),
        "retain_drive": (False, (bool,)),
        "chunk_size": (False, (int,)),
    },
    "matrix": {
        "potential": (True, (str,)),
        "n_states": (False, (int,)),
        "basis_size": (False, (int,)),
    },
    "balance": {
        "window": (False, (list,)),
        "state": (False, (int,)),
        "basis_size": (False, (int,)),
    },
    "spectrum": {
        "window": (False, (list,)),
    },
    "correlate": {
        "n_realizations": (True, (int,)),
        "lags": (True, (list,)),
        "seed": (True, (int,)),
        "total_time": (True, _NUM),
        "sample_dt": (False, _NUM),
    },
}

_FORCES = {"harmonic": harmonic, "quartic": quartic, "polynomial": polynomial}

_IC_SCHEMA = {
    "fixed": {"x0", "p0"},
    "paired": {"x0a", "x0b"},
    "gaussian": {"x0_mean", "x0_sd", "p0_mean", "p0_sd"},
}

COMMAND_SECTIONS = {
    "simulate": ("scales", "force", "simulate"),
    "ensemble": ("scales", "force", "field", "ensemble"),
    "matrix": ("scales", "matrix"),
    "balance": ("scales", "force", "field", "ensemble"),
    "spectrum": ("scales", "force", "field", "ensemble"),
    "correlate": ("scales", "field", "correlate"),
}


def _is_number(val) -> bool:
    return isinstance(val, _NUM) and not isinstance(val, bool)


def _line_of(raw: str, key: str) -> str:
    needle = f'"{key}"'
    for i, line in enumerate(raw.splitlines(), start=1):
        if needle in line:
            return f" (line {i})"
    return ""


def load_config(path: str | Path, command: str) -> dict:
    """Parse and validate a config file for `command`; returns the dict."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"{path}: top level must be an object")

    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
            f"{_line_of(raw, 'schema_version')}"
        )
    known_sections = set(_SCHEMA) | {"schema_version"}
    for key in cfg:
        if key not in known_sections:
            raise ConfigurationError(f"{path}: unknown section '{key}'{_line_of(raw, key)}")

    for section in COMMAND_SECTIONS[command]:
        if section not in cfg:
            raise ConfigurationError(
                f"{path}: command '{command}' requires section '{section}'"
            )

    for section, body in cfg.items():
        if section == "schema_version":
            continue
        schema = _SCHEMA[section]
        if not isinstance(body, dict):
            raise ConfigurationError(
                f"{path}: section '{section}' must be an object{_line_of(raw, section)}"
            )
        for key in body:
            if key not in schema:
                raise ConfigurationError(
                    f"{path}: unknown key '{section}.{key}'{_line_of(raw, key)}"
                )
        for key, (required, types) in schema.items():
            if key in body:
                val = body[key]
                if not isinstance(val, types) or isinstance(val, bool) and bool not in types:
                    raise ConfigurationError(
                        f"{path}: '{section}.{key}' has wrong type{_line_of(raw, key)}"
                    )
            elif required:
                raise ConfigurationError(
                    f"{path}: missing required field '{section}.{key}'"
                    f"{_line_of(raw, section)}"
                )
    if "force" in cfg:
        body = dict(cfg["force"])
        kind = body.pop("kind")
        if kind not in _FORCES:
            raise ConfigurationError(
                f"{path}: 'force.kind' must be one of {sorted(_FORCES)}, "
                f"got {kind!r}{_line_of(raw, 'kind')}"
            )
        # the factory's own signature says which keys this kind takes
        try:
            inspect.signature(_FORCES[kind]).bind(**body)
        except TypeError as exc:
            raise ConfigurationError(
                f"{path}: force kind '{kind}': {exc}{_line_of(raw, 'force')}"
            ) from None
        if not all(map(_is_number, body.get("coeffs", []))):
            raise ConfigurationError(
                f"{path}: 'force.coeffs' must be a list of numbers{_line_of(raw, 'coeffs')}"
            )
    if "correlate" in cfg:
        lags = cfg["correlate"]["lags"]
        if not lags or not all(map(_is_number, lags)):
            raise ConfigurationError(
                f"{path}: 'correlate.lags' must be a non-empty list of numbers"
                f"{_line_of(raw, 'lags')}"
            )
    if "ensemble" in cfg:
        ic = cfg["ensemble"].get("initial_conditions")
        if ic is not None:
            kind = ic.get("kind")
            if kind not in _IC_SCHEMA:
                raise ConfigurationError(
                    f"{path}: 'ensemble.initial_conditions.kind' must be one of "
                    f"{sorted(_IC_SCHEMA)}, got {kind!r}"
                )
            extra = set(ic) - _IC_SCHEMA[kind] - {"kind"}
            if extra:
                raise ConfigurationError(
                    f"{path}: unknown initial-condition key(s) {sorted(extra)}"
                )
            for key, val in ic.items():
                if key != "kind" and not _is_number(val):
                    raise ConfigurationError(
                        f"{path}: 'ensemble.initial_conditions.{key}' must be a number"
                        f"{_line_of(raw, key)}"
                    )
    return cfg


def build_scales(cfg: dict) -> PhysicalScales:
    return PhysicalScales(**cfg["scales"])


def build_force(cfg: dict) -> ForceModel:
    body = dict(cfg["force"])
    return _FORCES[body.pop("kind")](**body)


def build_initial_conditions(body: dict | None):
    if body is None:
        return FixedIC()
    body = dict(body)
    kind = body.pop("kind")
    if kind == "fixed":
        return FixedIC(**body)
    if kind == "paired":
        return PairedIC(**body)
    if kind == "gaussian":
        return GaussianIC(**body)
    raise ConfigurationError(f"unknown initial-condition kind '{kind}'")


def build_ensemble_config(cfg: dict) -> EnsembleConfig:
    ens = cfg["ensemble"]
    return EnsembleConfig(
        scales=build_scales(cfg),
        force=build_force(cfg),
        omega_cut=cfg["field"]["omega_cut"],
        oversample=cfg["field"].get("oversample", 1.0),
        n_traj=ens["n_traj"],
        master_seed=ens["master_seed"],
        t_span=ens["t_span"],
        dt=ens["dt"],
        burn_in=ens["burn_in"],
        initial_conditions=build_initial_conditions(ens.get("initial_conditions")),
        retain_drive=ens.get("retain_drive", True),
        chunk_size=ens.get("chunk_size", 64),
    )


def window_from(body: dict, default: tuple[float, float]) -> tuple[float, float]:
    win = body.get("window")
    if win is None:
        return default
    if not (isinstance(win, list) and len(win) == 2 and all(map(_is_number, win))):
        raise ConfigurationError(f"'window' must be [t_lo, t_hi] of two numbers, got {win!r}")
    return float(win[0]), float(win[1])
