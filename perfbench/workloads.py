"""The four workloads: inputs from a seed, the timed calls, and the checks.

Sizes and the reasons for them are in perfbench/README.md.  Every workload
leaves chunk_size, retain_drive and n_workers at the library's defaults, so
a change to a default is measured rather than bypassed.  The "toy" size runs
every code path in a second or two; the smoke test uses it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import quad

import sedlab
import sedlab.cli
import sedlab.dynamics
import sedlab.ensemble
from sedlab.rng import derive_seed

WORKLOADS = ("stationary-harmonic", "memory-paired", "quartic-anharmonic", "field-correlation")

_REF = {"hbar": 1.0, "m": 1.0, "omega0": 1.0, "tau": 0.01}

SIZES = {
    "full": {
        "stationary-harmonic": {"tau": 0.01, "omega_cut": 20.0, "dt": 0.016,
                                "n_traj": 16, "t_span": 1500.0, "burn_in": 500.0},
        "memory-paired": {"tau": 0.01, "omega_cut": 20.0, "dt": 0.016,
                          "n_pairs": 40, "t_span": 500.0},
        "quartic-anharmonic": {"tau": 0.02, "omega_cut": 20.0, "dt": 0.016,
                               "n_traj": 16, "t_span": 800.0, "burn_in": 250.0,
                               "basis": 200, "hier_t": 100.0, "hier_dt": 0.01},
        "field-correlation": {"tau": 0.01, "omega_cut": 20.0, "n_real": 2000,
                              "total_time": 400.0, "oversample": 4.0,
                              "sample_dt": 0.05, "max_lag": 5.0},
    },
    "toy": {
        "stationary-harmonic": {"tau": 0.05, "omega_cut": 5.0, "dt": 0.05,
                                "n_traj": 4, "t_span": 300.0, "burn_in": 100.0},
        "memory-paired": {"tau": 0.05, "omega_cut": 5.0, "dt": 0.05,
                          "n_pairs": 33, "t_span": 100.0},
        "quartic-anharmonic": {"tau": 0.05, "omega_cut": 20.0, "dt": 0.016,
                               "n_traj": 4, "t_span": 300.0, "burn_in": 100.0,
                               "basis": 200, "hier_t": 10.0, "hier_dt": 0.01},
        "field-correlation": {"tau": 0.01, "omega_cut": 20.0, "n_real": 100,
                              "total_time": 100.0, "oversample": 4.0,
                              "sample_dt": 0.05, "max_lag": 5.0},
    },
}

# Tolerances of the output checks (the paper's predictions).
BALANCE_SIGMAS = 4.0
A_COEFF_TOL = 1e-12
MEMORY_RATE_REL = 0.02
MEMORY_AMPLITUDE_REL = 0.05
MATRIX_TOL = 1e-8
Z_MAX = 4.0
C0_TARGET, C0_TOL = 127.32, 5e-3
SPOT_TOL = 1e-10
SPOT_SPAN = 100.0


def master_seed(workload: str, seed: int) -> int:
    """A 48-bit master seed per (workload, seed); masters land far apart."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


@dataclass
class Checks:
    """Outcome of the output checks of one repetition."""

    results: list = field(default_factory=list)

    def add(self, name: str, test) -> bool:
        """Run one check; an exception while checking counts as a failure."""
        try:
            ok = bool(test())
        except Exception as exc:  # noqa: BLE001 - any error fails the check
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        self.results.append((name, ok))
        return ok

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


@dataclass
class Outcome:
    members: int
    members_failed: int
    checks: Checks


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_matches(out_dir: Path) -> bool:
    """Every output listed in manifest.json exists with its digest and size."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    outputs = manifest["outputs"]
    return bool(outputs) and all(
        _sha256(out_dir / o["path"]) == o["sha256"]
        and (out_dir / o["path"]).stat().st_size == o["bytes"]
        for o in outputs
    )


def _scales(p: dict) -> dict:
    return {**_REF, "tau": p["tau"]}


def make_inputs(workload: str, seed: int, size: str, work: Path) -> dict:
    """Generate the workload's inputs from the seed (config files on disk)."""
    p = dict(SIZES[size][workload])
    p["master_seed"] = master_seed(workload, seed)
    work.mkdir(parents=True, exist_ok=True)
    if workload in ("stationary-harmonic", "quartic-anharmonic"):
        force = ({"kind": "harmonic", "omega0": 1.0} if workload == "stationary-harmonic"
                 else {"kind": "quartic", "omega0": 1.0, "lam": 0.1})
        cfg = {
            "schema_version": 1,
            "scales": _scales(p),
            "force": force,
            "field": {"omega_cut": p["omega_cut"]},
            "ensemble": {"n_traj": p["n_traj"], "master_seed": p["master_seed"],
                         "t_span": p["t_span"], "dt": p["dt"], "burn_in": p["burn_in"]},
        }
        if workload == "quartic-anharmonic":
            cfg["balance"] = {"basis_size": p["basis"]}
            cfg["matrix"] = {"potential": "force", "basis_size": p["basis"]}
        p["config"] = str(work / "config.json")
        Path(p["config"]).write_text(json.dumps(cfg, indent=2))
    elif workload == "field-correlation":
        n_lags = int(round(p["max_lag"] / 0.25)) + 1
        cfg = {
            "schema_version": 1,
            "scales": _scales(p),
            "field": {"omega_cut": p["omega_cut"], "oversample": p["oversample"]},
            "correlate": {"n_realizations": p["n_real"], "seed": p["master_seed"],
                          "lags": [0.25 * k for k in range(n_lags)],
                          "total_time": p["total_time"], "sample_dt": p["sample_dt"]},
        }
        p["config"] = str(work / "config.json")
        Path(p["config"]).write_text(json.dumps(cfg, indent=2))
    elif workload == "memory-paired":
        ens = sedlab.ensemble
        p["ensemble_config"] = ens.EnsembleConfig(
            scales=sedlab.PhysicalScales(**_scales(p)), force=sedlab.harmonic(1.0),
            omega_cut=p["omega_cut"], n_traj=p["n_pairs"], master_seed=p["master_seed"],
            t_span=p["t_span"], dt=p["dt"], burn_in=0.0,
            initial_conditions=ens.PairedIC(x0a=1.0, x0b=-1.0),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    p["out"] = str(work / "out")
    return p


def members_of(workload: str, p: dict) -> int:
    """Ensemble members a repetition integrates."""
    if workload == "memory-paired":
        return 2 * p["n_pairs"]
    return p.get("n_traj", 0)


def _cli(command: str, p: dict, sub: str) -> tuple[int, Path]:
    out = Path(p["out"]) / sub
    return sedlab.cli.main([command, p["config"], "--out", str(out)]), out


def _balance_closes(out: Path) -> bool:
    m = json.loads((out / "balance.json").read_text())["measured"]
    return abs(m["radiated"] + m["absorbed"]) <= BALANCE_SIGMAS * np.hypot(
        m["radiated_se"], m["absorbed_se"])


def run_stationary_harmonic(p: dict, ck: Checks) -> bool:
    code, out = _cli("balance", p, "balance")
    if not ck.add("balance exits 0", lambda: code == 0):
        return False
    ck.add(f"energy balance closes within {BALANCE_SIGMAS:g} sigma",
           lambda: _balance_closes(out))
    a = json.loads((out / "balance.json").read_text())["predictions"]["a_coefficient"]
    ck.add("a_coefficient = tau omega0^2",
           lambda: abs(a - p["tau"] * _REF["omega0"] ** 2) <= A_COEFF_TOL)
    ck.add("balance manifest digests match", lambda: manifest_matches(out))
    return True


def run_memory_paired(p: dict, ck: Checks) -> bool:
    ens = sedlab.ensemble
    report = ens.run_ensemble(p["ensemble_config"])
    p["report"] = report
    result = ens.memory_loss(report)
    diffusion = ens.estimate_diffusion(report)
    expected = 0.5 * p["tau"] * _REF["omega0"] ** 2
    ck.add("memory-loss rate = tau omega0^2 / 2 within 2%",
           lambda: abs(result.fitted_rate - expected) <= MEMORY_RATE_REL * expected)
    ck.add("memory-loss amplitude = 2 within 5%",
           lambda: abs(result.fitted_amplitude - 2.0) <= MEMORY_AMPLITUDE_REL * 2.0)
    ck.add("diffusion correlators finite",
           lambda: all(np.all(np.isfinite(diffusion[k])) for k in ("dpx", "dpp")))
    return True


def run_quartic_anharmonic(p: dict, ck: Checks) -> bool:
    code, out = _cli("balance", p, "balance")
    ensemble_ok = ck.add("balance exits 0", lambda: code == 0)
    if ensemble_ok:
        ck.add(f"energy balance closes within {BALANCE_SIGMAS:g} sigma",
               lambda: _balance_closes(out))
        ck.add("balance manifest digests match", lambda: manifest_matches(out))
    code, out = _cli("matrix", p, "matrix")
    if ck.add("matrix exits 0", lambda: code == 0):
        rep = json.loads((out / "matrix_report.json").read_text())
        half = _REF["hbar"] / (2 * _REF["m"])
        ck.add("commutator trusted block = i hbar",
               lambda: rep["commutator_inner_max_error"] <= MATRIX_TOL)
        ck.add("TRK sums = hbar / 2m",
               lambda: max(abs(v - half) for v in rep["trk"].values()) <= MATRIX_TOL)
        ck.add("matrix manifest digests match", lambda: manifest_matches(out))
    scales = sedlab.PhysicalScales(**_scales(p))
    mode_set = sedlab.build_mode_set(scales, p["omega_cut"], total_time=p["hier_t"])
    realization = sedlab.sample_realization(mode_set, derive_seed(p["master_seed"], 1 << 40))
    terms = sedlab.dynamics.hierarchy_terms(
        scales, sedlab.quartic(1.0, 0.1), realization, 0.0, 0.0, p["hier_t"], p["hier_dt"])
    ck.add("hierarchy terms finite",
           lambda: all(np.all(np.isfinite(v)) for v in terms.values()))
    return ensemble_ok


def _correlation_theory(lag: float, scales: dict, omega_cut: float) -> float:
    """(m tau hbar / pi) int_0^W w^3 cos(w u) dw by adaptive quadrature."""
    value, _ = quad(lambda w: w**3 * np.cos(w * lag), 0.0, omega_cut, limit=400)
    return scales["m"] * scales["tau"] * scales["hbar"] / np.pi * value


def run_field_correlation(p: dict, ck: Checks) -> bool:
    code, out = _cli("correlate", p, "correlate")
    if not ck.add("correlate exits 0", lambda: code == 0):
        return True
    rows = np.loadtxt(out / "correlation.csv", delimiter=",", skiprows=1, ndmin=2)
    lag, theory, est, se = rows.T
    scales = _scales(p)
    ours = np.array([_correlation_theory(u, scales, p["omega_cut"]) for u in lag])
    ck.add(f"every |z| <= {Z_MAX:g}",
           lambda: bool(np.all(se > 0) and np.all(np.abs(est - ours) / se <= Z_MAX)))
    ck.add("C(0) = 127.32", lambda: lag[0] == 0.0 and abs(theory[0] - C0_TARGET) < C0_TOL)
    ck.add("correlate manifest digests match", lambda: manifest_matches(out))
    return True


RUNNERS = {
    "stationary-harmonic": run_stationary_harmonic,
    "memory-paired": run_memory_paired,
    "quartic-anharmonic": run_quartic_anharmonic,
    "field-correlation": run_field_correlation,
}


def run(workload: str, p: dict, inject_failure: bool = False) -> Outcome:
    """The timed part: library or CLI calls, then the output checks.

    Returns the members integrated, the members lost (all of them when the
    ensemble stage fails: with fewer than 100 members a single diverged
    member fails the run), and the checks.
    """
    ck = Checks()
    try:
        ensemble_ok = RUNNERS[workload](p, ck)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
        ck.add(f"{workload} raised {type(exc).__name__}: {exc}", lambda: False)
        ensemble_ok = False
    if inject_failure:
        ck.add("injected failure", lambda: False)
    members = members_of(workload, p)
    failed = 0
    if not ensemble_ok:
        failed = members
    elif "report" in p:
        failed = len(p["report"].diverged)
    return Outcome(members=members, members_failed=failed, checks=ck)


def spot_check(workload: str, p: dict, ck: Checks) -> None:
    """Member 0 of stationary-harmonic against the slow reference paths.

    Rebuilds member 0's realization from derive_seed(master, 0), holds the
    retained drive on [0, 100] to the direct cosine sum, and holds a single
    `integrate_trajectory` over [0, 100] to the ensemble's row, both to
    1e-10 relative.  Runs outside the timed region.
    """
    if workload != "stationary-harmonic":
        return
    scales = sedlab.PhysicalScales(**_scales(p))
    force = sedlab.harmonic(1.0)
    report = p.get("report")
    if report is None:  # the CLI's run_ensemble was not captured: rerun it here
        report = sedlab.run_ensemble(sedlab.EnsembleConfig(
            scales=scales, force=force, omega_cut=p["omega_cut"], n_traj=p["n_traj"],
            master_seed=p["master_seed"], t_span=p["t_span"], dt=p["dt"],
            burn_in=p["burn_in"]))
    mode_set = sedlab.build_mode_set(scales, p["omega_cut"], total_time=p["t_span"])
    realization = sedlab.sample_realization(mode_set, derive_seed(p["master_seed"], 0))
    n = int(np.searchsorted(report.t, SPOT_SPAN, side="right"))

    def drive_matches():
        direct = sedlab.eval_field_direct(realization, report.t[:n])
        return np.max(np.abs(report.drive[0, :n] - direct)) <= SPOT_TOL * np.max(np.abs(direct))

    def row_matches():
        traj = sedlab.integrate_trajectory(scales, force, realization, 0.0, 0.0,
                                           SPOT_SPAN, p["dt"])
        stride = int(round((report.t[1] - report.t[0]) / p["dt"]))
        x = traj.x[::stride][:n]
        row = report.x[0, :n]
        return x.size == n and np.max(np.abs(x - row)) <= SPOT_TOL * np.max(np.abs(row))

    ck.add("member 0 drive = direct cosine sum on [0, 100]", drive_matches)
    ck.add("member 0 row = integrate_trajectory on [0, 100]", row_matches)


def capture_reports(p: dict):
    """Keep the report `sedlab balance` computes, for the spot check.

    Wraps `sedlab.cli.run_ensemble` without timing anything; returns the
    function that restores it.  If the name is gone the spot check runs the
    ensemble itself, outside the timed region.
    """
    original = getattr(sedlab.cli, "run_ensemble", None)
    if original is None:
        return lambda: None

    def keep(*args, **kwargs):
        p["report"] = original(*args, **kwargs)
        return p["report"]

    sedlab.cli.run_ensemble = keep

    def restore():
        sedlab.cli.run_ensemble = original

    return restore


def drive_bytes_per_chunk(workload: str, p: dict) -> int:
    """Computed drive array of one chunk: members x (2n+1) x 8 bytes."""
    if "dt" not in p:
        return 0
    fields = sedlab.ensemble.EnsembleConfig.__dataclass_fields__
    chunk = fields["chunk_size"].default if "chunk_size" in fields else members_of(workload, p)
    n_steps = int(round(p["t_span"] / p["dt"]))
    return min(chunk, members_of(workload, p)) * (2 * n_steps + 1) * 8
