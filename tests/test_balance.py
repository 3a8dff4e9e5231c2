import warnings

import numpy as np
import pytest

import sedlab as sl

from oracles import (dpx_bruteforce_time_domain, dpx_pv_quad, dpx_raw_quad,
                     stationary_oracle)


class TestDecayPredictions:
    def test_ground_state_has_no_decay(self, oscillator_tm):
        d = sl.predict_decay(oscillator_tm, sl.REF, 0)
        assert d.transitions == []
        assert d.total_energy_rate == 0.0

    def test_first_excited_single_line(self, oscillator_tm):
        d = sl.predict_decay(oscillator_tm, sl.REF, 1)
        assert len(d.transitions) == 1
        k, omega, a, power = d.transitions[0]
        assert k == 0
        assert omega == pytest.approx(1.0, abs=1e-12)
        assert a == pytest.approx(1e-2, rel=1e-12)  # tau * omega0^2
        assert d.total_energy_rate == pytest.approx(-1e-2, rel=1e-12)

    def test_sign_structure(self, oscillator_tm, quartic_tm):
        for tm in (oscillator_tm, quartic_tm):
            for n in range(1, tm.n_trusted):
                d = sl.predict_decay(tm, sl.REF, n)
                assert all(a >= 0.0 for _, _, a, _ in d.transitions)
                assert d.total_energy_rate <= 0.0


class TestTraceDpp:
    def test_oscillator_ground_state_value(self, oscillator_tm):
        val = sl.trace_dpp(oscillator_tm, sl.REF, 0, omega_cut=20.0)
        assert val == pytest.approx(5e-3, rel=1e-12)  # m tau hbar omega0^3 / 2

    def test_tau_zero(self):
        scales = sl.PhysicalScales(tau=0.0)
        tm = sl.oscillator_matrices(scales, 8)
        assert sl.trace_dpp(tm, scales, 0, omega_cut=20.0) == 0.0

    def test_cutoff_robustness(self, oscillator_tm):
        # delta-function reduction: any cutoff above the line gives one value
        v1 = sl.trace_dpp(oscillator_tm, sl.REF, 0, omega_cut=5.0)
        v2 = sl.trace_dpp(oscillator_tm, sl.REF, 0, omega_cut=1e6)
        assert v1 == v2

    def test_beyond_cutoff_dropped_with_warning(self, oscillator_tm):
        with pytest.warns(UserWarning):
            val = sl.trace_dpp(oscillator_tm, sl.REF, 0, omega_cut=0.5)
        assert val == 0.0


class TestTraceDpx:
    def test_tau_zero(self):
        scales = sl.PhysicalScales(tau=0.0)
        tm = sl.oscillator_matrices(scales, 8)
        assert sl.trace_dpx(tm, scales, 0, 100.0) == 0.0

    def test_matches_closed_form(self, oscillator_tm):
        # renormalized value for the oscillator ground state:
        # -(m tau/pi) |x01|^2 w0^3 ln((W^2-w0^2)/w0^2)
        for w_c in (100.0, 200.0, 400.0):
            expected = -(1e-2 / (2 * np.pi)) * np.log(w_c**2 - 1.0)
            got = sl.trace_dpx(oscillator_tm, sl.REF, 0, w_c)
            assert got == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("subtract", [True, False], ids=["renormalized", "raw"])
    @pytest.mark.parametrize("w_c", [20.0, 100.0, 400.0])
    @pytest.mark.parametrize("state", [0, 1, 3])
    @pytest.mark.parametrize("model", ["oscillator", "quartic"])
    def test_matches_principal_value_quadrature(self, request, model, state, w_c,
                                                subtract):
        tm = request.getfixturevalue(f"{model}_tm")
        got = sl.trace_dpx(tm, sl.REF, state, w_c, subtract_free_particle=subtract)
        ref = dpx_pv_quad(tm, sl.REF, state, w_c, subtract_free_particle=subtract)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_state_dependent_shift(self, oscillator_tm, quartic_tm):
        # the radiative shift D_px(1) - D_px(0): zero for the oscillator,
        # whose only line sits at omega0 for every state
        d0 = sl.trace_dpx(oscillator_tm, sl.REF, 0, 20.0)
        d1 = sl.trace_dpx(oscillator_tm, sl.REF, 1, 20.0)
        assert abs(d1 - d0) <= 1e-12 * abs(d0)
        d0 = sl.trace_dpx(quartic_tm, sl.REF, 0, 20.0)
        d1 = sl.trace_dpx(quartic_tm, sl.REF, 1, 20.0)
        assert d1 - d0 == pytest.approx(-2.0131e-3, abs=5e-8)

    def test_logarithmic_growth_ratio(self, oscillator_tm):
        v100 = sl.trace_dpx(oscillator_tm, sl.REF, 0, 100.0)
        v200 = sl.trace_dpx(oscillator_tm, sl.REF, 0, 200.0)
        v400 = sl.trace_dpx(oscillator_tm, sl.REF, 0, 400.0)
        ratio = (v400 - v200) / (v200 - v100)
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_time_domain_bruteforce_oracle(self, oscillator_tm):
        transitions = [(0.5, 1.0)]  # |x01|^2, omega_10 for the ground state
        for w_c in (100.0, 200.0):
            brute = dpx_bruteforce_time_domain(sl.REF, transitions, w_c)
            pv = sl.trace_dpx(oscillator_tm, sl.REF, 0, w_c)
            assert abs(brute - pv) < 0.01 * abs(pv)

    def test_lines_above_the_cutoff(self):
        # quartic(1, 0.5): the ground state's lines at 11.50 and 15.60 lie
        # above the cutoff and have no pole in [0, W]
        tm = sl.diagonalize_potential(sl.REF, sl.quartic(1.0, 0.5), 200)
        for subtract in (True, False):
            got = sl.trace_dpx(tm, sl.REF, 0, 10.0, subtract_free_particle=subtract)
            ref = dpx_pv_quad(tm, sl.REF, 0, 10.0, subtract_free_particle=subtract)
            assert got == pytest.approx(ref, rel=1e-9)
        assert sl.trace_dpx(tm, sl.REF, 0, 10.0) == pytest.approx(-0.0103681, abs=1e-7)

    def test_cutoff_below_line_rejected(self, oscillator_tm):
        # below the only line, and exactly on it
        for w_c in (0.5, 1.0):
            with pytest.raises(sl.ConfigurationError):
                sl.trace_dpx(oscillator_tm, sl.REF, 0, w_c)

    def test_cutoff_must_be_reported(self, oscillator_tm):
        # the trace is not cutoff-robust: doubling the cutoff moves the value
        v1 = sl.trace_dpx(oscillator_tm, sl.REF, 0, 100.0)
        v2 = sl.trace_dpx(oscillator_tm, sl.REF, 0, 200.0)
        assert v1 != pytest.approx(v2, rel=1e-3)


class TestMeasuredBalance:
    def test_ground_state_flows(self, ref_ensemble_report):
        bal = sl.measure_balance(ref_ensemble_report)
        gamma = sl.REF.tau * sl.REF.omega0**2
        oracle_p2 = stationary_oracle(sl.REF, 20.0)["p2"]
        # radiated power is -gamma <p^2>/m^2 * m = -gamma <xdot^2> m
        expected = -gamma * oracle_p2 / sl.REF.m
        assert bal.radiated < 0.0
        assert bal.absorbed > 0.0
        assert abs(bal.radiated - expected) < 3.0 * bal.radiated_se
        assert abs(bal.absorbed + expected) < 3.0 * bal.absorbed_se

    def test_detailed_balance_and_drift(self, ref_ensemble_report):
        bal = sl.measure_balance(ref_ensemble_report)
        assert bal.balanced_within(3.0)
        assert abs(bal.net_drift) < 3.0 * bal.net_drift_se

    def test_detailed_balance_quartic(self):
        cfg = sl.EnsembleConfig(
            scales=sl.REF, force=sl.quartic(1.0, 0.1), omega_cut=20.0,
            n_traj=16, master_seed=7, t_span=1600.0, dt=0.016, burn_in=500.0,
        )
        rep = sl.run_ensemble(cfg)
        bal = sl.measure_balance(rep)
        assert bal.radiated < 0.0
        assert bal.absorbed > 0.0
        assert bal.balanced_within(3.0)

    def test_stationary_window_requires_settling(self):
        cfg = sl.EnsembleConfig(
            scales=sl.REF, force=sl.harmonic(1.0), omega_cut=20.0,
            n_traj=2, master_seed=7, t_span=1300.0, dt=0.016, burn_in=100.0,
        )
        rep = sl.run_ensemble(cfg)
        with pytest.raises(sl.StatisticsError):
            sl.measure_balance(rep)  # burn-in shorter than 5 decay times


class TestCrossLayerConsistency:
    def test_measured_dpx_matches_raw_trace(self, oscillator_tm, ref_ensemble_report):
        # the unsubtracted (free-particle term included) trace is what the
        # stationary e<x E> correlator measures
        rep = ref_ensemble_report
        sl_win = rep.t >= rep.config.burn_in
        per = (rep.x[:, sl_win] * rep.drive[:, sl_win]).mean(axis=1)
        val = float(per.mean())
        se = float(per.std(ddof=1) / np.sqrt(per.size))
        raw = sl.trace_dpx(oscillator_tm, sl.REF, 0, 20.0, subtract_free_particle=False)
        assert abs(val - raw) < 2.0 * se

    def test_raw_trace_equals_quadrature(self, oscillator_tm):
        raw = sl.trace_dpx(oscillator_tm, sl.REF, 0, 20.0, subtract_free_particle=False)
        assert raw == pytest.approx(dpx_raw_quad(sl.REF, 20.0), rel=1e-3)

    def test_matrix_dx2_matches_simulated_x2(self, oscillator_tm, ref_ensemble_report):
        # the central correspondence: the matrix layer's ground-state
        # position spread against the simulated stationary <x^2>
        h = sl.heisenberg_product(oscillator_tm, 0)
        val, se = sl.stationary_moments(ref_ensemble_report)["x2"]
        # the simulated value carries the finite-cutoff tail of the response
        # integral; compare against the oracle split into resonant + tail
        oracle = stationary_oracle(sl.REF, 20.0)["x2"]
        tail = oracle - h["dx2"]
        assert abs(val - h["dx2"] - tail) < 3.0 * se
        assert abs(val - h["dx2"]) < 5.0 * se + abs(tail)
