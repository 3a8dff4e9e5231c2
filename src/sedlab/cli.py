"""Batch command-line front end.

Every experiment is a reproducible batch command reading one JSON config and
writing machine-readable reports plus a manifest.  Exit codes are stable API:

    0  success
    2  configuration error (schema violation, bad parameters) or a configured
       hard limit exceeded (mode count, memory)
    3  numeric divergence (integration blew up or escaped)
    4  statistical precondition refused (window too short, no error bar)
    5  internal error

The one environment override is SEDLAB_OUT (default output directory).
Ensemble members and `correlate`'s realizations run on up to one process
per CPU the command may use (limit them with taskset); reports are
bit-identical for any worker count.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .balance import measure_balance, predict_decay, trace_dpp, trace_dpx
from .config import (
    build_ensemble_config,
    build_force,
    build_scales,
    load_config,
    window_from,
)
from .ensemble import (
    estimate_diffusion,
    power_spectrum,
    run_ensemble,
    stationary_moments,
)
from .errors import (
    ConfigurationError,
    EscapeError,
    IntegrationDivergedError,
    ResourceLimitError,
    SedlabError,
    StatisticsError,
)
from .dynamics import integrate_trajectory
from .manifest import RunManifestWriter, write_csv, write_json
from .matrices import (
    commutator_matrix,
    diagonalize_potential,
    heisenberg_product,
    oscillator_matrices,
    trk_sum,
)
from .zpf import (
    build_mode_set,
    empirical_correlation,
    sample_realization,
    theoretical_force_correlation,
)

OUT_ENV = "SEDLAB_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_STATISTICS = 4
EXIT_INTERNAL = 5

BASIS_SIZE = 200  # default basis of diagonalize_potential (matrix, balance)


def cmd_simulate(cfg: dict, out_dir: Path) -> None:
    scales = build_scales(cfg)
    force = build_force(cfg)
    sim = cfg["simulate"]
    seed = sim.get("seed", 0)
    realization = None
    if sim.get("with_field", True) and "field" in cfg:
        mode_set = build_mode_set(scales, total_time=sim["t_span"], **cfg["field"])
        realization = sample_realization(mode_set, seed)
    traj = integrate_trajectory(
        scales, force, realization, sim["x0"], sim["p0"], sim["t_span"], sim["dt"],
        store_stride=sim.get("store_stride", 1),
    )
    writer = RunManifestWriter("simulate", cfg, seed, out_dir)
    csv_path = out_dir / "trajectory.csv"
    write_csv(csv_path, ["t", "x", "p", "drive"],
              [traj.times, traj.x, traj.p, traj.drive])
    writer.add(csv_path)
    writer.write()


def _moments_csv(out_dir: Path, report) -> Path:
    cols = [report.t]
    header = ["t"]
    for name in ("x", "p", "x2", "p2", "H"):
        mean, se = report.moments[name]
        header += [f"{name}_mean", f"{name}_se"]
        cols += [mean, se]
    path = out_dir / "moments.csv"
    write_csv(path, header, cols)
    return path


def cmd_ensemble(cfg: dict, out_dir: Path) -> None:
    econf = build_ensemble_config(cfg)
    report = run_ensemble(econf)
    writer = RunManifestWriter("ensemble", cfg, econf.master_seed, out_dir)
    writer.add(_moments_csv(out_dir, report))
    summary = report.summary_dict()
    try:
        stat = stationary_moments(report)
        summary["stationary"] = {k: {"value": v, "stderr": s} for k, (v, s) in stat.items()}
    except StatisticsError as exc:
        summary["stationary"] = None
        summary["stationary_refusal"] = str(exc)
    diff = estimate_diffusion(report)
    dpath = out_dir / "diffusion.csv"
    write_csv(dpath, ["t", "dpx", "dpx_se", "dpp", "dpp_se"],
              [diff["t"], diff["dpx"], diff["dpx_se"], diff["dpp"], diff["dpp_se"]])
    writer.add(dpath)
    rpath = out_dir / "ensemble_report.json"
    write_json(rpath, summary)
    writer.add(rpath)
    writer.write()


def _build_matrix(cfg: dict):
    scales = build_scales(cfg)
    body = cfg["matrix"]
    potential = body["potential"]
    if potential == "oscillator":
        n_states = body.get("n_states", 8)
        return scales, oscillator_matrices(scales, n_states)
    if potential == "force":
        if "force" not in cfg:
            raise ConfigurationError("matrix.potential = 'force' requires a force section")
        basis = body.get("basis_size", BASIS_SIZE)
        return scales, diagonalize_potential(scales, build_force(cfg), basis)
    raise ConfigurationError(f"unknown matrix.potential '{potential}'")


def cmd_matrix(cfg: dict, out_dir: Path) -> None:
    scales, tm = _build_matrix(cfg)
    comm = commutator_matrix(tm)
    nt = tm.n_trusted
    inner = comm[:nt, :nt]
    target = 1j * scales.hbar * np.eye(nt)
    report = {
        "n_states": tm.n_states,
        "n_trusted": nt,
        "energies": [float(e) for e in tm.energies],
        "commutator_inner_max_error": float(np.max(np.abs(inner - target))),
        "commutator_corner_imag": float(comm[-1, -1].imag),
        "trk": {str(n): trk_sum(tm, n) for n in range(nt)},
        "heisenberg": {str(n): heisenberg_product(tm, n) for n in range(nt)},
    }
    writer = RunManifestWriter("matrix", cfg, None, out_dir)
    rpath = out_dir / "matrix_report.json"
    write_json(rpath, report)
    writer.add(rpath)
    mpath = out_dir / "transition_matrix.json"
    write_json(mpath, tm.to_dict())
    writer.add(mpath)
    writer.write()


def cmd_balance(cfg: dict, out_dir: Path) -> None:
    econf = build_ensemble_config(cfg)
    report = run_ensemble(econf)
    body = cfg.get("balance", {})
    window = window_from(body)
    meas = measure_balance(report, window)
    spectrum = power_spectrum(report, window)

    scales = econf.scales
    if econf.force.kind == "harmonic":
        tm = oscillator_matrices(replace(scales, omega0=econf.omega), 8)
    else:
        tm = diagonalize_potential(scales, econf.force, body.get("basis_size", BASIS_SIZE))
    state = body.get("state", 0)
    dpp_pred = trace_dpp(tm, scales, state, omega_cut=econf.omega_cut)
    dpx_pred = trace_dpx(tm, scales, state, econf.omega_cut)
    decay = predict_decay(tm, scales, min(state + 1, tm.n_trusted - 1))
    a_line = decay.transitions[0][2] if decay.transitions else 0.0
    dpp, dpp_se = scales.m * meas.absorbed, scales.m * meas.absorbed_se  # <p eE>

    comparison = {
        "measured": asdict(meas),
        "balanced_within_3sigma": bool(meas.balanced_within(3.0)),
        "predictions": {
            "trace_dpp": dpp_pred,
            "trace_dpx": {"value": dpx_pred, "omega_cut": econf.omega_cut},
            "radiated_resonant": -dpp_pred / scales.m,
            "decay": decay.to_dict(),
            "a_coefficient": a_line,
        },
        "spectrum": {
            "peak_omega": spectrum.peak_omega,
            "fwhm": spectrum.fwhm,
            "fwhm_halfmax": spectrum.fwhm_halfmax,
        },
        "dpp_measured": {"value": dpp, "stderr": dpp_se},
    }
    writer = RunManifestWriter("balance", cfg, econf.master_seed, out_dir)
    rpath = out_dir / "balance.json"
    write_json(rpath, comparison)
    writer.add(rpath)
    rows_q = ["radiated", "absorbed", "net_drift", "dpp", "a_vs_fwhm"]
    rows_m = [meas.radiated, meas.absorbed, meas.net_drift, dpp, spectrum.fwhm]
    rows_s = [meas.radiated_se, meas.absorbed_se, meas.net_drift_se, dpp_se, np.nan]
    rows_p = [-dpp_pred / scales.m, dpp_pred / scales.m, 0.0, dpp_pred, a_line]
    cpath = out_dir / "comparison.csv"
    write_csv(cpath, ["quantity", "measured", "stderr", "predicted"],
              [rows_q, rows_m, rows_s, rows_p])
    writer.add(cpath)
    writer.write()


def cmd_spectrum(cfg: dict, out_dir: Path) -> None:
    econf = build_ensemble_config(cfg)
    report = run_ensemble(econf)
    spec = power_spectrum(report, window_from(cfg.get("spectrum", {})))
    writer = RunManifestWriter("spectrum", cfg, econf.master_seed, out_dir)
    ppath = out_dir / "psd.csv"
    write_csv(ppath, ["omega", "psd", "psd_se"], [spec.omega, spec.psd, spec.psd_se])
    writer.add(ppath)
    rpath = out_dir / "spectrum.json"
    write_json(rpath, {
        "peak_omega": spec.peak_omega,
        "fwhm": spec.fwhm,
        "fwhm_halfmax": spec.fwhm_halfmax,
        "integral": spec.integral,
        "resolution": spec.resolution,
    })
    writer.add(rpath)
    writer.write()


def cmd_correlate(cfg: dict, out_dir: Path) -> None:
    scales = build_scales(cfg)
    body = cfg["correlate"]
    mode_set = build_mode_set(scales, total_time=body["total_time"], **cfg["field"])
    seed = body["seed"]
    lags, est, se = empirical_correlation(
        mode_set, seed, body["n_realizations"], np.asarray(body["lags"], dtype=float),
        sample_dt=body.get("sample_dt"),
    )
    theory = theoretical_force_correlation(lags, scales, mode_set.omega_cut)
    writer = RunManifestWriter("correlate", cfg, seed, out_dir)
    cpath = out_dir / "correlation.csv"
    write_csv(cpath, ["lag", "theoretical", "empirical", "stderr"],
              [lags, theory, est, se])
    writer.add(cpath)
    z = np.abs(est - theory) / np.where(se > 0, se, np.inf)
    rpath = out_dir / "correlate.json"
    write_json(rpath, {
        "n_realizations": body["n_realizations"],
        "max_abs_z": float(z.max()),
        "all_within_3sigma": bool(np.all(z <= 3.0)),
    })
    writer.add(rpath)
    writer.write()


_HANDLERS = {
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "matrix": cmd_matrix,
    "balance": cmd_balance,
    "spectrum": cmd_spectrum,
    "correlate": cmd_correlate,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sedlab",
        description="Batch experiments for the field-driven bound particle.",
    )
    parser.add_argument("--version", action="version", version=f"sedlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("config", help="path to the JSON config file")
        p.add_argument(
            "--out",
            default=None,
            help="output directory (default: $SEDLAB_OUT or the current directory)",
        )
    args = parser.parse_args(argv)

    out_dir = Path(args.out or os.environ.get(OUT_ENV, "."))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg = load_config(args.config, args.command)
        _HANDLERS[args.command](cfg, out_dir)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationDivergedError, EscapeError) as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except StatisticsError as exc:
        print(f"statistical precondition: {exc}", file=sys.stderr)
        return EXIT_STATISTICS
    except SedlabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
