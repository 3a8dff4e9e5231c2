import json
from pathlib import Path

import numpy as np
import pytest

from sedlab import cli


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
        "chunk_size": 4,
    }
    body.update(overrides)
    return body


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

    def test_zero_trajectories_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            ensemble=small_ensemble_section(n_traj=0),
        )
        assert cli.main(["ensemble", str(cfg), "--out", str(tmp_path / "o")]) == 2

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


class TestSpectrumAndBalance:
    def test_spectrum_command(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scales=SCALES, force=FORCE, field=FIELD,
            ensemble=small_ensemble_section(n_traj=6, chunk_size=6),
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
            ensemble=small_ensemble_section(n_traj=8, chunk_size=8),
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
