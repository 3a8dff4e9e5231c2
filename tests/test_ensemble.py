import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import sedlab as sl
from sedlab import dynamics, ensemble
from sedlab.rng import derive_seed, splitmix64

from oracles import (
    diffusion_reference,
    dpx_raw_quad,
    memory_delta_reference,
    moment_curves_reference,
    stationary_oracle,
    switch_on_energy,
)


def small_config(**overrides):
    base = dict(
        scales=sl.REF,
        force=sl.harmonic(1.0),
        omega_cut=20.0,
        n_traj=6,
        master_seed=42,
        t_span=200.0,
        dt=0.016,
        burn_in=20.0,
    )
    base.update(overrides)
    return sl.EnsembleConfig(**base)


class TestSeedDerivation:
    def test_reference_implementation(self):
        # bit-exact contract: seed_i = splitmix64(master XOR i) with the
        # published finalizer constants
        def reference(z):
            mask = (1 << 64) - 1
            z = (z + 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        for master, idx in [(0, 0), (1, 0), (12345, 17), (2**63, 255), (42, 10**6)]:
            assert derive_seed(master, idx) == reference(master ^ idx)

    def test_vectorized_matches_scalar(self):
        zs = np.arange(100, dtype=np.uint64)
        vec = splitmix64(zs)
        for i, z in enumerate(zs):
            assert int(splitmix64(np.uint64(z))[0]) == int(vec[i])


class TestRunEnsemble:
    def test_deterministic_rerun(self):
        cfg = small_config()
        a = sl.run_ensemble(cfg)
        b = sl.run_ensemble(cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.drive, b.drive)

    @pytest.mark.parametrize("overrides", [
        dict(n_traj=10),
        dict(force=sl.quartic(1.0, 0.1), n_traj=10),
        # 10 members at 4 workers split 2 + 3 + 2 + 3: the third part
        # starts between the two members of a pair
        dict(initial_conditions=sl.PairedIC(1.0, -1.0), n_traj=5),
    ], ids=["harmonic", "quartic", "harmonic-paired"])
    def test_bit_identical_across_worker_counts(self, pin_cpus, overrides):
        cfg = small_config(**overrides)
        pin_cpus(1)
        ref = sl.run_ensemble(cfg)
        ref_curves = sl.moment_curves(ref)
        for workers in (1, 2, 4):
            pin_cpus(workers)
            rep = sl.run_ensemble(cfg)
            for series in ("x", "p", "drive"):
                assert np.array_equal(getattr(rep, series), getattr(ref, series))
            assert rep.diverged == ref.diverged == []
            curves = sl.moment_curves(rep)
            for name in ref_curves:
                for ours, theirs in zip(curves[name], ref_curves[name]):
                    assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("force", [sl.harmonic(1.0), sl.quartic(1.0, 0.1)],
                             ids=["harmonic", "quartic"])
    def test_member_rows_independent_of_other_members(self, pin_cpus, force):
        # a member's rows do not depend on the members run with it: the
        # first three of seven equal a run of three, whose integrator is
        # built afresh after a run of another length, and which two CPUs
        # split as 2 + 1 members per process, not 4 + 3
        pin_cpus(2)
        full = sl.run_ensemble(small_config(force=force, n_traj=7))
        sl.run_ensemble(small_config(force=force, n_traj=2, t_span=100.0))
        part = sl.run_ensemble(small_config(force=force, n_traj=3))
        for series in ("x", "p", "drive"):
            assert np.array_equal(getattr(part, series), getattr(full, series)[:3])
        assert part.diverged == full.diverged == []

    def test_drives_resident_do_not_grow_with_members(self, monkeypatch, pin_cpus):
        # traced memory up to the end of the integration, over the report's
        # planes, in one member's drive bytes: the banded solve's band,
        # inputs and state take 7 (set up afresh by every run, which
        # releases them once its members are done); the drive being
        # integrated and the next one, which is synthesized before the
        # first is freed, 1 each; the synthesis's spectrum 1.  Measured 10.3
        # in all; 12 leaves room, while drives that view two field periods
        # beside a period buffer measured 13.3 and a run that holds all 32
        # members' drives at once 46.2
        cfg = small_config(n_traj=32)
        n_steps = cfg.n_steps
        drive_bytes = 8 * (2 * n_steps + 1)
        report_bytes = 8 * 3 * cfg.n_members * (n_steps // cfg.decimate_stride + 1)
        peaks = []
        rk4_core = ensemble.rk4_core

        def traced(*args, **kwargs):
            result = rk4_core(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return result

        monkeypatch.setattr(ensemble, "rk4_core", traced)
        pin_cpus(1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sl.run_ensemble(cfg)
        finally:
            tracemalloc.stop()
        assert len(peaks) == cfg.n_members
        assert peaks[-1] - base < report_bytes + 12 * drive_bytes, (
            (peaks[-1] - base - report_bytes) / drive_bytes)

    def test_statistics_copy_no_report_plane(self, monkeypatch, pin_cpus):
        # traced memory above the report, in plane bytes (one of x, p, drive:
        # 128 members x 1786 samples), over four spans.  From the last
        # rk4_core return to run_ensemble's return it is the integrator and
        # the last drive, 0.89 (112 and 16 B a step): the run reduces
        # nothing.  Across moment_curves 0.80 (a block of H's terms and its
        # deviations) against 6.0 for whole-plane curves; across
        # estimate_diffusion 0.39 (a block of x E and its deviations, the
        # finiteness mask) against 5.1; across memory_loss 0.09 (the masks)
        # against 0.52
        cfg = small_config(initial_conditions=sl.PairedIC(1.0, -1.0), n_traj=64)
        plane = 8 * cfg.n_members * (cfg.n_steps // cfg.decimate_stride + 1)
        drive_bytes = 8 * (2 * cfg.n_steps + 1)
        rk4_core = ensemble.rk4_core

        def traced(*args, **kwargs):
            result = rk4_core(*args, **kwargs)
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(ensemble, "rk4_core", traced)
        pin_cpus(1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = sl.run_ensemble(cfg)
            spans = {"run_ensemble": (tracemalloc.get_traced_memory()[1] - base) / plane - 3}
            integrator = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, dynamics.__file__)]).statistics("filename")
            for name in ("moment_curves", "estimate_diffusion", "memory_loss"):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                getattr(sl, name)(report)
                spans[name] = (tracemalloc.get_traced_memory()[1] - start) / plane
        finally:
            tracemalloc.stop()
        bounds = {"run_ensemble": 1.25, "moment_curves": 1.0, "estimate_diffusion": 0.75,
                  "memory_loss": 0.25}
        assert all(spans[name] < bound for name, bound in bounds.items()), spans
        # the banded solve's band alone is 4 drives' bytes
        assert sum(stat.size for stat in integrator) < drive_bytes
        assert not vars(dynamics._last)

    def test_runs_no_reduction(self, monkeypatch):
        # the report is returned as the members left it; a statistic is
        # computed only when a caller asks for it
        def refuse(*args):
            raise AssertionError("run_ensemble reduced the report")

        monkeypatch.setattr(ensemble, "_mean_se_curves", refuse)
        report = sl.run_ensemble(small_config(n_traj=2))
        assert report.diverged == [] and np.isfinite(report.x).all()
        with pytest.raises(AssertionError, match="reduced the report"):
            sl.moment_curves(report)

    def test_mode_set_built_once_per_ensemble(self, monkeypatch, pin_cpus):
        calls = []
        build_mode_set = ensemble.build_mode_set

        def counted(*args, **kwargs):
            calls.append(1)
            return build_mode_set(*args, **kwargs)

        monkeypatch.setattr(ensemble, "build_mode_set", counted)
        pin_cpus(1)
        sl.run_ensemble(small_config(n_traj=2))
        assert len(calls) == 1

    def test_paired_members_share_field(self):
        cfg = small_config(initial_conditions=sl.PairedIC(1.0, -1.0), n_traj=3)
        rep = sl.run_ensemble(cfg)
        assert rep.n_members == 6
        assert np.array_equal(rep.drive[0], rep.drive[1])
        assert np.array_equal(rep.drive[2], rep.drive[3])
        assert not np.array_equal(rep.drive[0], rep.drive[2])
        assert rep.x[0, 0] == 1.0 and rep.x[1, 0] == -1.0

    def test_paired_members_synthesize_one_drive_per_pair(self, monkeypatch, pin_cpus):
        calls = []
        synthesize_drive = ensemble.synthesize_drive

        def counted(*args, **kwargs):
            calls.append(1)
            return synthesize_drive(*args, **kwargs)

        monkeypatch.setattr(ensemble, "synthesize_drive", counted)
        pin_cpus(1)
        rep = sl.run_ensemble(small_config(initial_conditions=sl.PairedIC(1.0, -1.0), n_traj=3))
        assert rep.n_members == 6
        assert len(calls) == 3

    def test_divergent_member_fraction_guard(self):
        # every member starts past the barrier at sqrt(2) of f = -x + x^3/2,
        # whose one stable equilibrium is x = 0, and diverges -> run fails
        cfg = small_config(force=sl.polynomial([0.0, -1.0, 0.0, 0.5]), n_traj=4,
                           t_span=200.0, burn_in=10.0,
                           initial_conditions=sl.FixedIC(3.0, 0.0))
        with pytest.raises(sl.IntegrationDivergedError):
            sl.run_ensemble(cfg)

    def test_n_traj_validation(self):
        with pytest.raises(sl.ConfigurationError):
            small_config(n_traj=0)

    def test_partial_step_span_refused(self):
        # 1000.5 steps: the run would silently end at t = 10.0
        with pytest.raises(sl.ConfigurationError, match="whole number of steps"):
            small_config(t_span=10.005, dt=0.01, burn_in=1.0)

    def test_step_beyond_cutoff_bound_refused(self):
        # dt*omega_cut = 1.0, past the integrator's bound 0.35
        with pytest.raises(sl.ConfigurationError, match="dt\\*omega_cut"):
            small_config(dt=0.05)

    @pytest.mark.parametrize("force", [sl.harmonic(1.0), sl.quartic(1.0, 0.1)],
                             ids=["harmonic", "quartic"])
    def test_step_beyond_the_force_stiffness_refused(self, force):
        # the force's own c1 = -1 over m = 1e-300 integrates at omega = 1e150;
        # the quartic from rest would otherwise finish with all-zero rows
        with pytest.raises(sl.ConfigurationError, match="dt\\*omega ="):
            small_config(scales=sl.PhysicalScales(m=1e-300), force=force)

    @pytest.mark.parametrize("overrides, error, match", [
        (dict(initial_conditions=object()), sl.ConfigurationError,
         "unknown initial-condition spec object"),
        (dict(n_traj=10**12), sl.ResourceLimitError, "report of"),
        # 2*oversample*n_steps = 200000.5: the drive step dt/2 is off the comb
        (dict(t_span=1600.0, burn_in=500.0, oversample=1.0000025), sl.ConfigurationError,
         "drive step dt/2 0.008 lies off"),
    ], ids=["unknown-initial-conditions", "report-past-limit", "off-comb-drive-step"])
    def test_refused_at_construction(self, overrides, error, match):
        # run_ensemble refuses nothing but a divergence: every other refusal
        # comes before any member runs
        with pytest.raises(error, match=match):
            small_config(**overrides)

    def test_gaussian_initial_conditions(self):
        cfg = small_config(
            initial_conditions=sl.GaussianIC(x0_mean=0.0, x0_sd=1.0, p0_sd=1.0),
            n_traj=64,
        )
        rep = sl.run_ensemble(cfg)
        assert np.std(rep.x[:, 0]) == pytest.approx(1.0, rel=0.35)
        assert len(set(np.round(rep.x[:, 0], 12))) > 32  # actually random draws


class TestBindingFrequency:
    """Every ensemble time scale follows the force's own frequency, which
    here differs from scales.omega0 = 1."""

    @pytest.fixture(scope="class")
    def fast_report(self):
        return sl.run_ensemble(small_config(force=sl.harmonic(1.25), n_traj=2,
                                            t_span=1000.0, burn_in=0.0))

    def test_stride_and_decay_time_at_the_force_frequency(self, fast_report):
        # ceil(0.1/(1.25*0.016)) = 5 and 1/(0.01*1.25^2) = 64, where
        # scales.omega0 would give 7 and 100
        cfg = fast_report.config
        assert cfg.omega == 1.25
        assert cfg.decimate_stride == 5
        assert cfg.energy_decay_time == 64.0
        assert fast_report.t[1] == pytest.approx(5 * 0.016, rel=1e-15)

    def test_window_from_five_decay_times_accepted(self, fast_report):
        sl.stationary_moments(fast_report, (320.0, 1000.0))
        with pytest.raises(sl.StatisticsError, match=r"5 energy-decay times \(320\); got 319"):
            sl.stationary_moments(fast_report, (319.0, 1000.0))

    def test_slow_force_window_refused(self):
        # omega = 0.8 decays in 156.25, so a window from 500 starts after
        # 3.2 decay times; scales.omega0 would have accepted it
        rep = sl.run_ensemble(small_config(force=sl.harmonic(0.8), n_traj=2,
                                           t_span=1600.0, burn_in=0.0))
        with pytest.raises(sl.StatisticsError, match=r"\(781.25\); got 500"):
            sl.stationary_moments(rep, (500.0, 1600.0))

    @pytest.mark.parametrize("force", [sl.polynomial([0.0, 1.0, 0.0, -1.0]),
                                       sl.polynomial([0.0, 25.0])],
                             ids=["double-well", "repulsive"])
    def test_force_without_one_stable_equilibrium_refused(self, force):
        with pytest.raises(sl.ConfigurationError, match="stable equilibria; need exactly one"):
            small_config(force=force)


class TestMomentsAgainstOracle:
    def test_mean_position_is_zero(self, ref_ensemble_report):
        rep = ref_ensemble_report
        sl_win = rep.t >= rep.config.burn_in
        mean, se = sl.moment_curves(rep)["x"]
        z = np.abs(mean[sl_win]) / se[sl_win]
        # pointwise z-scores behave like |N(0,1)|: allow the rare 3-sigma tail
        assert np.mean(z > 3.0) < 0.01

    def test_stationary_moments_match_linear_response(self, ref_ensemble_report):
        oracle = stationary_oracle(sl.REF, 20.0)
        mom = sl.stationary_moments(ref_ensemble_report)
        for key in ("x2", "p2", "H", "dxdp"):
            val, se = mom[key]
            assert abs(val - oracle[key]) < 3.0 * se, (
                f"{key}: measured {val:.4f} +- {se:.4f}, oracle {oracle[key]:.4f}"
            )

    def test_oracle_frozen_values(self):
        # guards the oracle itself against drift
        oracle = stationary_oracle(sl.REF, 20.0)
        assert oracle["x2"] == pytest.approx(0.507917, abs=2e-6)
        assert oracle["p2"] == pytest.approx(1.153993, abs=2e-6)
        assert oracle["H"] == pytest.approx(0.830955, abs=2e-6)
        assert oracle["dxdp"] == pytest.approx(0.765593, abs=2e-6)

    @pytest.mark.parametrize("estimator", [
        sl.stationary_moments, sl.measure_balance, sl.power_spectrum,
    ], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("window, error, match", [
        ((0.0, 2000.0), sl.ConfigurationError, None),
        ((500.0, 2500.0), sl.ConfigurationError, None),
        ((1500.0, 1500.0), sl.ConfigurationError, None),
        ((1500.0, 1400.0), sl.ConfigurationError, "end 1400 must come after its start 1500"),
        ((500.0, 1100.0), sl.StatisticsError, None),  # shorter than 20 correlation times
    ], ids=["before-burn-in", "past-span", "empty", "reversed", "too-short"])
    def test_window_validation(self, ref_ensemble_report, estimator, window, error, match):
        with pytest.raises(error, match=match):
            estimator(ref_ensemble_report, window=window)

    def test_tau_to_zero_refused(self):
        # correlation time diverges as tau -> 0: no window long enough
        scales = sl.PhysicalScales(tau=0.0)
        cfg = sl.EnsembleConfig(
            scales=scales, force=sl.harmonic(1.0), omega_cut=20.0,
            n_traj=2, master_seed=1, t_span=60.0, dt=0.016, burn_in=0.0,
        )
        rep = sl.run_ensemble(cfg)
        with pytest.raises(sl.StatisticsError):
            sl.stationary_moments(rep)

    def test_ground_state_gaussianity(self, ref_ensemble_report):
        # thin to near-independent samples: the x autocorrelation is
        # exp(-gamma u/2) cos(w1 u), so pick a lag with a decayed envelope
        # AND a cosine near zero (multiples of ~2 pi keep phase coherence)
        rep = ref_ensemble_report
        sl_win = rep.t >= rep.config.burn_in
        x = rep.x[:, sl_win]
        dts = rep.t[1] - rep.t[0]
        gamma = sl.REF.tau * sl.REF.omega0**2
        w1 = sl.REF.omega0 * np.sqrt(1 - (gamma / 2) ** 2)
        candidates = np.arange(int(300 / dts), int(500 / dts))
        rho = np.exp(-gamma * candidates * dts / 2) * np.abs(np.cos(w1 * candidates * dts))
        thin = int(candidates[np.argmin(rho)])
        samples = x[:, ::thin].ravel()
        stat, pvalue = stats.normaltest(samples)
        assert pvalue > 0.01
        oracle = stationary_oracle(sl.REF, 20.0)["x2"]
        se = np.sqrt(2.0 / samples.size) * oracle
        assert abs(samples.var() - oracle) < 4.0 * se


def _diverge_first_member(monkeypatch):
    """From here on, run_ensemble's first member diverges at step 1: NaN
    rows and the failure record rk4_core gives a non-finite state."""
    rk4_core = ensemble.rk4_core
    calls = []

    def diverging(*args, **kwargs):
        xs, ps, es, fails = rk4_core(*args, **kwargs)
        if not calls:
            xs[:] = ps[:] = es[:] = np.nan
            fails = [(1, 1, math.nan)]
        calls.append(1)
        return xs, ps, es, fails

    monkeypatch.setattr(ensemble, "rk4_core", diverging)


class TestStatisticsAgainstOracle:
    """The ensemble statistics reduce the report's rows in place, a block of
    columns at a time; whole-plane formulas give the same bits."""

    @pytest.mark.parametrize("overrides, n_cols, diverge", [
        (dict(), 1786, False),
        # two blocks and one column, which joins the last block
        (dict(initial_conditions=sl.PairedIC(1.0, -1.0), n_traj=5,
              t_span=2 * 7 * 0.016 * ensemble._BLOCK), 2 * ensemble._BLOCK + 1, False),
        (dict(initial_conditions=sl.PairedIC(1.0, -1.0), n_traj=5, t_span=20.0,
              burn_in=0.0), 179, False),
        # 100 members, of which one diverges: 1%, as many as a run may lose
        (dict(initial_conditions=sl.PairedIC(1.0, -1.0), n_traj=50), 1786, True),
    ], ids=["harmonic", "paired-blocks-and-one", "paired-below-one-block", "diverged-member"])
    def test_bit_identical_to_whole_plane_formulas(self, monkeypatch, pin_cpus, overrides,
                                                   n_cols, diverge):
        if diverge:
            _diverge_first_member(monkeypatch)
        pin_cpus(1)
        report = sl.run_ensemble(small_config(**overrides))
        assert len(report.t) == n_cols
        assert len(report.diverged) == diverge
        assert np.isfinite(report.x).all() != diverge
        moments = sl.moment_curves(report)
        for name, curves in moment_curves_reference(report).items():
            for ours, theirs in zip(moments[name], curves):
                assert np.array_equal(ours, theirs)
        diffusion = sl.estimate_diffusion(report)
        for name, (mean, se) in diffusion_reference(report).items():
            assert np.array_equal(diffusion[name], mean)
            assert np.array_equal(diffusion[f"{name}_se"], se)
        if isinstance(report.config.initial_conditions, sl.PairedIC):
            assert np.array_equal(sl.memory_loss(report).delta, memory_delta_reference(report))


class TestMemoryLoss:
    def test_rate_matches_homogeneous_decay(self, memory_report):
        res = sl.memory_loss(memory_report)
        assert res.expected_rate == pytest.approx(5e-3, rel=1e-12)
        assert res.fitted_rate == pytest.approx(res.expected_rate, rel=0.02)

    def test_equal_starts_no_divergence(self):
        cfg = small_config(initial_conditions=sl.PairedIC(0.7, 0.7), n_traj=2,
                           t_span=300.0)
        rep = sl.run_ensemble(cfg)
        res = sl.memory_loss(rep)
        assert np.max(res.delta) < 1e-12
        assert res.fitted_rate == 0.0

    def test_nonlinear_force_has_no_expected_rate(self):
        # the oscillator's tau*omega0^2/2 does not hold for a quartic
        cfg = small_config(force=sl.quartic(1.0, 0.5), initial_conditions=sl.PairedIC(),
                           n_traj=2)
        assert sl.memory_loss(sl.run_ensemble(cfg)).expected_rate is None

    def test_requires_pairing(self, ref_ensemble_report):
        with pytest.raises(sl.ConfigurationError):
            sl.memory_loss(ref_ensemble_report)


class TestDiffusionEstimates:
    def test_zero_at_start(self, ref_ensemble_report):
        d = sl.estimate_diffusion(ref_ensemble_report)
        assert d["dpx"][0] == 0.0
        assert d["dpp"][0] == 0.0

    def test_stationary_dpp_matches_linear_response(self, ref_ensemble_report):
        rep = ref_ensemble_report
        d = sl.estimate_diffusion(rep)
        sl_win = rep.t >= rep.config.burn_in
        per_traj = (rep.p[:, sl_win] * rep.drive[:, sl_win]).mean(axis=1)
        val = per_traj.mean()
        se = per_traj.std(ddof=1) / np.sqrt(per_traj.size)
        gamma = sl.REF.tau * sl.REF.omega0**2
        oracle = gamma * stationary_oracle(sl.REF, 20.0)["p2"] / sl.REF.m
        assert abs(val - oracle) < 3.0 * se
        # the time-resolved curve window-averages to the same number
        assert d["dpp"][sl_win].mean() == pytest.approx(val, rel=1e-12)

    def test_stationary_dpx_matches_response_correlator(self, ref_ensemble_report):
        rep = ref_ensemble_report
        sl_win = rep.t >= rep.config.burn_in
        per_traj = (rep.x[:, sl_win] * rep.drive[:, sl_win]).mean(axis=1)
        val = per_traj.mean()
        se = per_traj.std(ddof=1) / np.sqrt(per_traj.size)
        oracle = dpx_raw_quad(sl.REF, 20.0)
        assert abs(val - oracle) < 3.0 * se

    def test_buildup_from_zero_to_plateau(self, ref_ensemble_report):
        # the pointwise D_pp(t) curve is noise-dominated at any feasible
        # ensemble size; the build-up is resolved through the mean energy it
        # feeds. The broadband part of <H> arrives within ~1/omega0 and the
        # resonant quarter relaxes at the energy rate gamma; the measured
        # curve must track the exact switch-on oracle into the plateau.
        rep = ref_ensemble_report
        d = sl.estimate_diffusion(rep)
        t = d["t"]
        assert d["dpx"][0] == 0.0
        assert d["dpp"][0] == 0.0
        h_mean, _ = sl.moment_curves(rep)["H"]
        windows = [(0.5, 10.0), (40.0, 60.0), (280.0, 320.0), (900.0, 1100.0)]
        h_inf = stationary_oracle(sl.REF, 20.0)["H"]
        theory = []
        for lo, hi in windows:
            m = (t >= lo) & (t <= hi)
            tq = t[m][:: max(1, m.sum() // 16)]
            th = switch_on_energy(sl.REF, 20.0, rep.config.t_span, tq).mean()
            measured = h_mean[m].mean()
            per_traj = (rep.p[:, m] ** 2 / 2 + rep.x[:, m] ** 2 / 2).mean(axis=1)
            se = per_traj.std(ddof=1) / np.sqrt(per_traj.size)
            assert abs(measured - th) < 4.0 * se
            theory.append(th)
        # the oracle curve itself rises from below and plateaus
        assert theory[0] < 0.85 * h_inf
        assert theory[2] > 0.97 * h_inf
        assert theory[3] == pytest.approx(h_inf, rel=5e-3)
        # windowed D_pp has settled by the burn-in: compare two late windows
        mid = (t >= 600.0) & (t <= 1000.0)
        late = (t >= 1500.0)
        per_mid = (rep.p[:, mid] * rep.drive[:, mid]).mean(axis=1)
        per_late = (rep.p[:, late] * rep.drive[:, late]).mean(axis=1)
        diff = per_mid - per_late
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert abs(diff.mean()) < 3.0 * se


class TestPowerSpectrum:
    def test_peak_fwhm_and_parseval(self, ref_ensemble_report):
        spec = sl.power_spectrum(ref_ensemble_report)
        assert abs(spec.peak_omega - 1.0) <= spec.resolution
        # linewidth of the damped response: tau*omega0^2 within 20%
        assert spec.fwhm == pytest.approx(1e-2, rel=0.2)
        mom = sl.stationary_moments(ref_ensemble_report)
        assert spec.integral == pytest.approx(mom["x2"][0], rel=1e-9)

    def test_raw_halfmax_is_window_broadened(self, ref_ensemble_report):
        spec = sl.power_spectrum(ref_ensemble_report)
        assert spec.fwhm_halfmax >= spec.fwhm  # finite record broadens the line

    def test_short_window_refused(self, ref_ensemble_report):
        with pytest.raises(sl.StatisticsError):
            sl.power_spectrum(ref_ensemble_report, window=(500.0, 1050.0))

    @pytest.mark.parametrize("shape", ["zero", "constant", "alternating"])
    def test_unresolved_line_refused(self, shape):
        # hand-built records whose periodogram is zero or peaks at the DC or
        # the top bin: no half-maximum crossing brackets the peak
        cfg = small_config(t_span=1600.0, burn_in=500.0)
        t = np.arange(1601.0)
        row = {"zero": np.zeros_like(t), "constant": np.ones_like(t),
               "alternating": (-1.0) ** np.arange(t.size)}[shape]
        x = np.vstack([row, 0.5 * row])
        report = sl.EnsembleReport(config=cfg, t=t, x=x, p=x, drive=None, diverged=[])
        with pytest.raises(sl.StatisticsError):
            sl.power_spectrum(report)


@pytest.mark.slow
class TestErrorBarCalibration:
    def test_two_sigma_coverage(self):
        # over 20 independent master seeds the oracle lies inside the 2-sigma
        # interval of <x^2> in at least 18 cases
        scales = sl.PhysicalScales(tau=0.025)
        oracle = stationary_oracle(scales, 10.0)["x2"]
        hits = 0
        for seed in range(20):
            # masters far apart: nearby masters share member-seed blocks
            cfg = sl.EnsembleConfig(
                scales=scales, force=sl.harmonic(1.0), omega_cut=10.0,
                n_traj=24, master_seed=1000 + 1_000_003 * seed, t_span=699.99, dt=0.03,
                burn_in=200.0,
            )
            rep = sl.run_ensemble(cfg)
            val, se = sl.stationary_moments(rep)["x2"]
            hits += abs(val - oracle) <= 2.0 * se
        assert hits >= 18
