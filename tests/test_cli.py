import json
import time
from pathlib import Path

import numpy as np
import pytest

import sedlab as sl
from sedlab import cli, ensemble
from sedlab.config import load_config
from sedlab.errors import ConfigurationError


def write_config(path: Path, **sections) -> Path:
    doc = {"schema_version": 1}
    doc.update(sections)
    path.write_text(json.dumps(doc, indent=1))
    return path


SCALES = {"hbar": 1.0, "m": 1.0, "omega0": 1.0, "tau": 0.01}
FORCE = {"kind": "harmonic", "omega0": 1.0}
FIELD = {"omega_cut": 20.0}


def small_ensemble_section(**overrides):
    body = {
        "n_traj": 4,
        "master_seed": 9,
        "t_span": 1600.0,
        "dt": 0.016,
        "burn_in": 500.0,
    }
    body.update(overrides)
    return body


SIMULATE = {"x0": 0.0, "p0": 0.0, "t_span": 10.0, "dt": 0.016, "with_field": False}
CORRELATE = {"n_realizations": 4, "seed": 3, "total_time": 50.0, "sample_dt": 0.05}


@pytest.mark.parametrize("command, sections, field", [
    ("simulate", {"force": {"kind": "harmonic"}}, "omega0"),
    ("simulate", {"force": {"kind": "quartic", "omega0": 1.0}}, "lam"),
    ("simulate", {"force": {"kind": "polynomial"}}, "coeffs"),
    ("simulate", {"force": {"kind": "polynomial", "coeffs": ["a", 1]}}, "coeffs"),
    ("simulate", {"force": {"kind": "harmonic", "omega0": 1, "lam": 3}}, "lam"),
    ("ensemble", {"ensemble": small_ensemble_section(
        initial_conditions={"kind": "fixed", "x0": "a"})}, "x0"),
    ("correlate", {"correlate": dict(CORRELATE, lags=["a"])}, "lags"),
    ("correlate", {"correlate": dict(CORRELATE, lags=[[0.1]])}, "lags"),
    ("correlate", {"correlate": dict(CORRELATE, lags=[])}, "lags"),
    ("balance", {"ensemble": small_ensemble_section(), "balance": {"window": [True, 5]}},
     "window"),
    ("balance", {"ensemble": small_ensemble_section(), "balance": {"window": 5}},
     "window"),
    ("simulate", {"simulate": dict(SIMULATE, dt=float("nan"))}, "dt"),
    ("simulate", {"scales": dict(SCALES, tau=float("nan"))}, "tau"),
    ("ensemble", {"ensemble": small_ensemble_section(burn_in=float("nan"))}, "burn_in"),
    ("ensemble", {"ensemble": small_ensemble_section(),
                  "field": dict(FIELD, oversample=float("nan"))}, "oversample"),
    ("ensemble", {"ensemble": small_ensemble_section(),
                  "field": {"omega_cut": float("inf")}}, "omega_cut"),
    ("simulate", {"simulate": dict(SIMULATE, x0=10**400)}, "x0"),
    ("ensemble", {"ensemble": small_ensemble_section(chunk_size=4)}, "chunk_size"),
    ("ensemble", {"ensemble": small_ensemble_section(retain_drive=True)}, "retain_drive"),
], ids=["harmonic-no-omega0", "quartic-no-lam", "polynomial-no-coeffs",
        "string-coeff", "harmonic-with-lam", "string-x0", "string-lag",
        "nested-lag", "no-lags", "bool-window-end", "scalar-window",
        "nan-dt", "nan-tau", "nan-burn-in", "nan-oversample", "infinite-omega-cut",
        "401-digit-x0", "unknown-chunk-size", "unknown-retain-drive"])
def test_malformed_values_exit_2_naming_the_field(tmp_path, capsys, command,
                                                   sections, field):
    body = {"scales": SCALES, "force": FORCE, "field": FIELD, "simulate": SIMULATE}
    body.update(sections)
    cfg = write_config(tmp_path / "c.json", **body)
    rc = cli.main([command, str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("command", ["balance", "spectrum"])
def test_malformed_window_is_refused_before_the_ensemble_runs(tmp_path, capsys,
                                                             monkeypatch, command):
    calls = []
    monkeypatch.setattr(cli, "run_ensemble", lambda *args: calls.append(args))
    cfg = write_config(tmp_path / "c.json", scales=SCALES, force=FORCE, field=FIELD,
                       ensemble=small_ensemble_section(), **{command: {"window": [1.0]}})
    assert cli.main([command, str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "window" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["ensemble", "spectrum", "balance"])
def test_narrow_resonance_at_the_force_frequency_exit_2_before_any_member(
        tmp_path, capsys, monkeypatch, command):
    # tau*omega0 = 0.05, but the force integrates at omega = 2.5: tau*omega
    # = 0.125 is past the order reduction's bound 0.1
    calls = []
    monkeypatch.setattr(ensemble, "rk4_core", lambda *args: calls.append(args))
    cfg = write_config(tmp_path / "c.json", scales=dict(SCALES, tau=0.05),
                       force=dict(FORCE, omega0=2.5), field={"omega_cut": 5.0},
                       ensemble=small_ensemble_section())
    assert cli.main([command, str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert ("tau*omega = 0.125 violates the narrow-resonance bound 0.1"
            in capsys.readouterr().err)
    assert calls == []


@pytest.mark.parametrize("command, sections", [
    ("ensemble", {"field": dict(FIELD, oversample=1e308)}),
    ("ensemble", {"ensemble": small_ensemble_section(n_traj=10**12)}),
    ("ensemble", {"ensemble": small_ensemble_section(dt=1e-300)}),
    ("simulate", {"simulate": dict(SIMULATE, t_span=1e12)}),
    ("matrix", {"force": {"kind": "quartic", "omega0": 1.0, "lam": 0.1},
                "matrix": {"potential": "force", "basis_size": 10**12}}),
    ("matrix", {"matrix": {"potential": "oscillator", "n_states": 10**12}}),
    ("correlate", {"correlate": dict(CORRELATE, lags=[0.0], n_realizations=10**12)}),
    # 1,273 modes, but the drive grid's comb period is 2*40*10^7 = 8e8 samples
    ("ensemble", {"field": dict(FIELD, oversample=40.0),
                  "ensemble": small_ensemble_section(t_span=10.0, dt=1e-6, burn_in=1.0)}),
], ids=["oversample-1e308", "n-traj-1e12", "dt-1e-300", "simulate-t-span-1e12",
        "basis-size-1e12", "n-states-1e12", "n-realizations-1e12", "comb-period-8e8"])
def test_values_that_cannot_run_exit_2_before_allocating(tmp_path, capsys, command,
                                                         sections):
    # every value here is refused by a hard limit before anything is allocated
    body = {"scales": SCALES, "force": FORCE, "field": FIELD, "simulate": SIMULATE,
            "ensemble": small_ensemble_section()}
    body.update(sections)
    cfg = write_config(tmp_path / "c.json", **body)
    start = time.perf_counter()
    rc = cli.main([command, str(cfg), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert capsys.readouterr().err.startswith("resource limit:")


@pytest.mark.parametrize("window", [[True, 5], 5, [1.0], [1.0, 2.0, 3.0], ["a", 5]],
                         ids=["bool-end", "scalar", "one-end", "three-ends", "string-end"])
def test_window_from_refuses_malformed_windows(tmp_path, window):
    # a malformed window never reaches window_from: load_config refuses it
    for section in ("balance", "spectrum"):
        cfg = write_config(tmp_path / "c.json", scales=SCALES, force=FORCE, field=FIELD,
                           ensemble=small_ensemble_section(), **{section: {"window": window}})
        with pytest.raises(ConfigurationError, match=f"'{section}.window'"):
            load_config(cfg, section)


class TestSimulateCommand:
    def test_writes_trajectory_and_manifest(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            simulate={"x0": 0.0, "p0": 0.0, "t_span": 30.0, "dt": 0.016,
                      "seed": 5, "store_stride": 5},
        )
        rc = cli.main(["simulate", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["outputs"][0]["path"] == "trajectory.csv"
        header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x,p,drive"

    def test_reproducible_digests(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            simulate={"x0": 0.0, "p0": 0.0, "t_span": 30.0, "dt": 0.016, "seed": 5},
        )
        assert cli.main(["simulate", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["simulate", str(cfg), "--out", str(tmp_path / "b")]) == 0
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ma["outputs"] == mb["outputs"]

    def test_missing_field_names_it(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            scales={"hbar": 1.0, "m": 1.0, "omega0": 1.0},  # tau missing
            force=FORCE,
            simulate={"x0": 0.0, "p0": 0.0, "t_span": 10.0, "dt": 0.016},
        )
        rc = cli.main(["simulate", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "tau" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            scales=dict(SCALES, tua=0.01), force=FORCE,
            simulate={"x0": 0.0, "p0": 0.0, "t_span": 10.0, "dt": 0.016},
        )
        rc = cli.main(["simulate", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "tua" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
        rc = cli.main(["simulate", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES,
            force={"kind": "polynomial", "coeffs": [0.0, 25.0]},
            simulate={"x0": 1.0, "p0": 0.0, "t_span": 160.0, "dt": 0.01,
                      "with_field": False},
        )
        rc = cli.main(["simulate", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_tiny_mass_exit_2(self, tmp_path, capsys):
        # the force's stiffness over m = 1e-300 gives dt*omega = 1.6e148:
        # refused as a configuration error before anything is integrated
        cfg = write_config(
            tmp_path / "c.json", scales=dict(SCALES, m=1e-300), force=FORCE,
            simulate=SIMULATE,
        )
        rc = cli.main(["simulate", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "dt*omega =" in capsys.readouterr().err

    def test_store_stride_zero_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE,
            simulate={"x0": 1.0, "p0": 0.0, "t_span": 10.0, "dt": 0.016,
                      "store_stride": 0},
        )
        rc = cli.main(["simulate", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "store_stride" in capsys.readouterr().err


class TestEnsembleCommand:
    def test_full_run(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            ensemble=small_ensemble_section(),
        )
        out = tmp_path / "out"
        assert cli.main(["ensemble", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "ensemble_report.json").read_text())
        assert report["n_members"] == 4
        assert report["stationary"]["x2"]["value"] > 0.3
        moments = (out / "moments.csv").read_text().splitlines()
        assert moments[0].startswith("t,x_mean,x_se")
        assert (out / "diffusion.csv").exists()

    def test_span_shorter_than_one_stride_runs(self, tmp_path):
        # stride 10 at dt = 0.01: a span of 0.05 stores only the t = 0 sample
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            ensemble=small_ensemble_section(t_span=0.05, dt=0.01, burn_in=0.0),
        )
        out = tmp_path / "out"
        assert cli.main(["ensemble", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "ensemble_report.json").read_text())
        assert report["decimate_dt"] == 0.1
        assert (out / "manifest.json").exists()

    def test_double_well_exit_2_before_any_member_runs(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(ensemble, "rk4_core", lambda *args: calls.append(args))
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force={"kind": "polynomial", "coeffs": [0.0, 1.0, 0.0, -1.0]},
            field=FIELD, ensemble=small_ensemble_section(),
        )
        assert cli.main(["ensemble", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "2 stable equilibria" in capsys.readouterr().err
        assert calls == []

    def test_zero_trajectories_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            ensemble=small_ensemble_section(n_traj=0),
        )
        assert cli.main(["ensemble", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_off_comb_oversample_exit_2_before_any_member(self, tmp_path, capsys,
                                                         monkeypatch):
        # 2*oversample*n_steps = 200000.5: the drive step dt/2 is off the comb
        calls = []
        monkeypatch.setattr(ensemble, "_run_members", lambda *args: calls.append(args))
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force={"kind": "quartic", "omega0": 1.0, "lam": 0.1},
            field=dict(FIELD, oversample=1.0000025), ensemble=small_ensemble_section(),
        )
        assert cli.main(["ensemble", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "drive step dt/2 0.008 lies off" in capsys.readouterr().err
        assert calls == []

    def test_mode_count_limit_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            ensemble=small_ensemble_section(t_span=1e9),
        )
        assert cli.main(["ensemble", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("resource limit:")


class TestMatrixCommand:
    def test_oscillator_report(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, matrix={"potential": "oscillator", "n_states": 8},
        )
        out = tmp_path / "out"
        assert cli.main(["matrix", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "matrix_report.json").read_text())
        assert report["commutator_inner_max_error"] < 1e-12
        assert report["trk"]["0"] == pytest.approx(0.5, abs=1e-12)
        assert (out / "transition_matrix.json").exists()

    def test_quartic_report(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES,
            force={"kind": "quartic", "omega0": 1.0, "lam": 0.1},
            matrix={"potential": "force", "basis_size": 120},
        )
        out = tmp_path / "out"
        assert cli.main(["matrix", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "matrix_report.json").read_text())
        assert report["n_states"] == 30
        assert report["energies"][0] == pytest.approx(0.5173648, abs=1e-5)


    @pytest.mark.parametrize("sections, build", [
        ({"matrix": {"potential": "oscillator", "n_states": 8}},
         lambda scales: sl.oscillator_matrices(scales, 8)),
        ({"force": {"kind": "quartic", "omega0": 1.0, "lam": 0.1},
          "matrix": {"potential": "force", "basis_size": 120}},
         lambda scales: sl.diagonalize_potential(scales, sl.quartic(1.0, 0.1), 120)),
    ], ids=["oscillator", "force"])
    def test_transition_matrix_json_holds_the_matrix(self, tmp_path, sections, build):
        cfg = write_config(tmp_path / "c.json", scales=SCALES, **sections)
        out = tmp_path / "out"
        assert cli.main(["matrix", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "transition_matrix.json").read_text())
        tm = build(sl.PhysicalScales(**SCALES))
        assert set(doc) == {"scales", "energies", "x_elems", "p_elems", "trusted_margin"}
        assert doc["scales"] == SCALES
        assert doc["energies"] == tm.energies.tolist()
        for name in ("x_elems", "p_elems"):
            mat = getattr(tm, name)
            assert doc[name] == np.stack([mat.real, mat.imag], axis=-1).tolist(), name
        assert doc["trusted_margin"] == tm.trusted_margin


class TestSpectrumAndBalance:
    def test_spectrum_command(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            ensemble=small_ensemble_section(n_traj=6),
        )
        out = tmp_path / "out"
        assert cli.main(["spectrum", str(cfg), "--out", str(out)]) == 0
        spec = json.loads((out / "spectrum.json").read_text())
        assert abs(spec["peak_omega"] - 1.0) < 0.05
        assert (out / "psd.csv").exists()

    def test_spectrum_short_window_exit_4(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            ensemble=small_ensemble_section(t_span=400.0, burn_in=50.0),
            spectrum={"window": [50.0, 400.0]},
        )
        assert cli.main(["spectrum", str(cfg), "--out", str(tmp_path / "o")]) == 4

    def test_balance_command(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            ensemble=small_ensemble_section(n_traj=8),
        )
        out = tmp_path / "out"
        assert cli.main(["balance", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "balance.json").read_text())
        assert doc["predictions"]["trace_dpp"] == pytest.approx(5e-3, rel=1e-9)
        assert doc["predictions"]["a_coefficient"] == pytest.approx(1e-2, rel=1e-9)
        assert doc["measured"]["radiated"] < 0.0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "quantity,measured,stderr,predicted"
        assert len(lines) == 6

    def test_balance_predicts_at_the_force_frequency(self, tmp_path):
        # force.omega0 is its own key: the oscillator prediction takes the
        # frequency the member integrates, omega = 1.25, not scales.omega0
        omega, tau = 1.25, SCALES["tau"]
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=dict(FORCE, omega0=omega), field=FIELD,
            ensemble=small_ensemble_section(),
        )
        out = tmp_path / "out"
        assert cli.main(["balance", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "balance.json").read_text())
        assert doc["predictions"]["a_coefficient"] == pytest.approx(tau * omega**2, rel=1e-12)
        assert doc["predictions"]["trace_dpp"] == pytest.approx(tau * omega**3 / 2, rel=1e-9)
        assert abs(doc["spectrum"]["peak_omega"] - omega) < 0.05

    def test_balance_partial_step_span_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            ensemble=small_ensemble_section(t_span=10.005, dt=0.01, burn_in=1.0),
        )
        assert cli.main(["balance", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "whole number of steps" in capsys.readouterr().err


class TestCorrelateCommand:
    def test_correlation_table(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, field={"omega_cut": 20.0, "oversample": 4.0},
            correlate={"n_realizations": 60, "lags": [0.0, 0.5, 1.0],
                       "seed": 3, "total_time": 100.0, "sample_dt": 0.05},
        )
        out = tmp_path / "out"
        assert cli.main(["correlate", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "correlate.json").read_text())
        assert doc["all_within_3sigma"] is True
        lines = (out / "correlation.csv").read_text().splitlines()
        assert lines[0] == "lag,theoretical,empirical,stderr"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(127.32395, abs=1e-3)


    def test_off_comb_sample_dt_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", scales=SCALES, field=FIELD,
            correlate=dict(CORRELATE, lags=[0.0, 0.1], sample_dt=0.0137),
        )
        assert cli.main(["correlate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sample_dt 0.0137 lies off")

    def test_sample_count_limit_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", scales=SCALES, field=FIELD,
            correlate=dict(CORRELATE, lags=[0.0, 0.1], sample_dt=1e-15),
        )
        assert cli.main(["correlate", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("resource limit:")


class TestManifestReplay:
    def test_rerun_from_manifest_config(self, tmp_path):
        # any figure-style output is regenerable from its manifest alone
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, field={"omega_cut": 20.0, "oversample": 4.0},
            correlate={"n_realizations": 30, "lags": [0.0, 1.0],
                       "seed": 8, "total_time": 80.0, "sample_dt": 0.05},
        )
        out1 = tmp_path / "run1"
        assert cli.main(["correlate", str(cfg), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        replay_cfg = tmp_path / "replay.json"
        replay_cfg.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "run2"
        assert cli.main(["correlate", str(replay_cfg), "--out", str(out2)]) == 0
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert manifest["outputs"] == m2["outputs"]


class TestInternalErrorPath:
    def test_unexpected_exception_exit_5(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, matrix={"potential": "oscillator", "n_states": 8},
        )

        def boom(cfg_, out_):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli._HANDLERS, "matrix", boom)
        assert cli.main(["matrix", str(cfg), "--out", str(tmp_path / "o")]) == 5
