
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sedlab as sl
from sedlab import zpf
from sedlab.rng import derive_seed

from oracles import correlation_quad, correlation_reference


def small_mode_set(total_time=50.0, omega_cut=20.0, scales=None):
    return sl.build_mode_set(scales or sl.REF, omega_cut=omega_cut, total_time=total_time)


class TestModeSet:
    def test_ref_comb_arithmetic(self):
        ms = sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=2000.0, oversample=1.0)
        assert ms.delta_omega == pytest.approx(2 * np.pi / 2000.0, rel=1e-15)
        assert ms.n_modes == 6366
        assert ms.omegas[0] == pytest.approx(ms.delta_omega)
        assert ms.omegas[-1] <= 20.0

    def test_amplitudes_satisfy_spectral_rule(self):
        ms = small_mode_set()
        target = 2.0 * sl.REF.force_psd_coeff * ms.omegas**3 * ms.delta_omega
        np.testing.assert_allclose(ms.amplitudes**2, target, rtol=1e-13)
        # spot value at omega = 1 for the reference spacing 2*pi/2000
        ms_ref = sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=2000.0)
        a_at_1 = np.interp(1.0, ms_ref.omegas, ms_ref.amplitudes)
        assert a_at_1 == pytest.approx(4.472e-3, rel=2e-3)

    def test_tau_zero_decouples(self):
        scales = sl.PhysicalScales(tau=0.0)
        ms = sl.build_mode_set(scales, omega_cut=20.0, total_time=100.0)
        assert np.all(ms.amplitudes == 0.0)
        r = sl.sample_realization(ms, 3)
        t = 0.01 * np.arange(1000)
        assert np.all(sl.eval_field_grid(r, t) == 0.0)

    def test_cutoff_below_omega0_rejected(self):
        with pytest.raises(sl.ConfigurationError):
            sl.build_mode_set(sl.REF, omega_cut=0.5, total_time=100.0)

    def test_mode_limit(self):
        with pytest.raises(sl.ResourceLimitError):
            # 3.2M modes at dw = 2 pi/1e6, past MAX_MODES
            sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=1e6)

    def test_discretized_spectrum_consistency(self):
        # running sum of A^2/2 up to W tracks coeff*W^4/4 within one
        # trapezoid correction, exactly (W^3 dw/2 + W^2 dw^2/4 at comb points)
        ms = small_mode_set(total_time=80.0)
        coeff = sl.REF.force_psd_coeff
        csum = np.cumsum(ms.amplitudes**2 / 2.0)
        for k in (10, 100, ms.n_modes - 1):
            w = ms.omegas[k]
            dw = ms.delta_omega
            correction = coeff * (w**3 * dw / 2.0 + w**2 * dw**2 / 4.0)
            assert abs(csum[k] - coeff * w**4 / 4.0) <= correction * (1 + 1e-9)

    @given(tau=st.floats(1e-4, 0.04), omega_cut=st.floats(2.0, 50.0),
           total_time=st.floats(10.0, 500.0))
    @settings(max_examples=25, deadline=None)
    def test_invariants_random_configs(self, tau, omega_cut, total_time):
        scales = sl.PhysicalScales(tau=tau)
        ms = sl.build_mode_set(scales, omega_cut=omega_cut, total_time=total_time)
        assert np.all(np.diff(ms.omegas) > 0)
        assert ms.omegas[-1] <= omega_cut * (1 + 1e-12)
        assert np.all(ms.amplitudes > 0)
        np.testing.assert_allclose(
            ms.amplitudes**2 / 2.0,
            scales.force_psd_coeff * ms.omegas**3 * ms.delta_omega,
            rtol=1e-12,
        )


class TestRealization:
    def test_seed_determinism(self):
        ms = small_mode_set()
        r1 = sl.sample_realization(ms, 12345)
        r2 = sl.sample_realization(ms, 12345)
        assert np.array_equal(r1.phases, r2.phases)
        r3 = sl.sample_realization(ms, 12346)
        assert not np.array_equal(r1.phases, r3.phases)

    @given(seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_phases_in_half_open_interval(self, seed):
        ms = small_mode_set(total_time=10.0)
        r = sl.sample_realization(ms, seed)
        assert np.all(r.phases > -np.pi)
        assert np.all(r.phases <= np.pi)

    def test_phase_moments_over_many_realizations(self):
        ms = small_mode_set(total_time=3.0)  # few modes, many draws
        n_real = 10_000
        phases = np.stack(
            [sl.sample_realization(ms, derive_seed(77, i)).phases for i in range(n_real)]
        )
        se = np.pi / np.sqrt(3.0 * n_real)
        assert np.all(np.abs(phases.mean(axis=0)) < 4.0 * se)
        # uniform variance pi^2/3
        np.testing.assert_allclose(phases.var(axis=0), np.pi**2 / 3.0, rtol=0.05)

    def test_distinct_seeds_uncorrelated(self):
        ms = small_mode_set(total_time=400.0)  # ~1273 modes
        a = sl.sample_realization(ms, 1).phases
        b = sl.sample_realization(ms, 2).phases
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 3.0 / np.sqrt(a.size)


def _manual_mode_set(omegas, amplitudes, delta_omega, scales=None):
    omegas = np.asarray(omegas, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    return sl.ModeSet(
        scales=scales or sl.REF,
        omega_cut=float(omegas.max()) if omegas.size else 1.0,
        delta_omega=delta_omega,
        oversample=1.0,
        omegas=omegas,
        amplitudes=amplitudes,
    )


class TestFieldEvaluation:
    def test_single_mode_cosine(self):
        ms = _manual_mode_set([1.0], [2.0], 1.0)
        r = sl.ZpfRealization(mode_set=ms, seed=0, phases=np.array([0.0]))
        t = np.array([0.0, np.pi / 2, np.pi])
        out = sl.eval_field_grid(r, t)
        np.testing.assert_allclose(out, [2.0, 0.0, -2.0], atol=1e-12)

    def test_empty_mode_set(self):
        ms = _manual_mode_set([], [], 1.0)
        r = sl.ZpfRealization(mode_set=ms, seed=0, phases=np.empty(0))
        assert np.all(sl.eval_field_grid(r, 0.1 * np.arange(64)) == 0.0)

    def test_nyquist_guard(self):
        ms = small_mode_set()
        r = sl.sample_realization(ms, 1)
        bad = (np.pi / ms.omega_cut) * 1.5 * np.arange(100)
        with pytest.raises(sl.ConfigurationError):
            sl.eval_field_grid(r, bad)

    @pytest.mark.parametrize(
        "total_time, oversample, omega_cut, K, t0, m_samples",
        [
            (50.0, 1, 20.0, 5000, 0.0, 5001),  # even K, the drive grid's M = K + 1
            (50.0, 1, 20.0, 5001, 0.0, 3000),  # odd K, M < K
            (50.0, 2, 20.0, 1001, 3.7, 2600),  # M > 2K: the period repeats
            (50.0, 4, 20.0, 20000, 5.0, 12000),
            (50.0, 1, 160 * 2 * np.pi / 50.0, 320, 0.0, 1000),  # Nyquist bin filled
            (2000.0, 1, 20.0, 2_000_000, 5.0, 1000),  # step 0.001: K = 2000 M
            # drive grids of dt = 0.016: K = 2*oversample*n_steps, M = 2*n_steps + 1
            (50.0, 16, 20.0, 2 * 16 * 3125, 0.0, 6251),
            (50.0, 64, 20.0, 2 * 64 * 3125, 0.0, 6251),
        ],
        ids=["even-K", "odd-K", "repeat", "oversample-4", "nyquist",
             "short-grid-long-comb", "drive-oversample-16", "drive-oversample-64"],
    )
    def test_comb_synthesis_matches_direct_summation(
        self, total_time, oversample, omega_cut, K, t0, m_samples
    ):
        ms = sl.build_mode_set(sl.REF, omega_cut=omega_cut, total_time=total_time,
                               oversample=oversample)
        if omega_cut > 20.0:
            assert ms.n_modes == K // 2
        r = sl.sample_realization(ms, 17)

        t = t0 + 2 * np.pi / (ms.delta_omega * K) * np.arange(m_samples)
        fast = sl.eval_field_grid(r, t)
        direct = sl.eval_field_direct(r, t)
        assert np.max(np.abs(fast - direct)) <= 1e-10 * np.max(np.abs(direct))

    @pytest.mark.parametrize(
        "total_time, t0, step, m_samples",
        [
            # off the comb by 1e-9: a comb result would be off by ~1e-6
            (200.0, 5.0, 0.01 * (1 + 1e-9), 6000),
            # t[1] - t[0] is off by 2e-12 relative, the mean step is not
            (2000.0, 1000.0, 0.0137, 6000),
            (200.0, 1.7, 0.0137, 6000),
        ],
        ids=["off-by-1e-9", "large-t0", "misaligned"],
    )
    def test_grid_off_the_comb_is_refused(self, total_time, t0, step, m_samples):
        ms = small_mode_set(total_time=total_time)
        r = sl.sample_realization(ms, 41)
        t = t0 + step * np.arange(m_samples)
        with pytest.raises(sl.ConfigurationError, match="off the field's frequency comb"
                           ) as exc:
            sl.eval_field_grid(r, t)
        # the step the refusal names is within one comb bin of step, and a
        # grid built from it (at the same t0) is synthesized on the comb
        near = float(str(exc.value).rsplit(" ", 1)[-1])
        assert abs(near - step) <= step**2 / total_time
        t = t0 + near * np.arange(m_samples)
        fast = sl.eval_field_grid(r, t)
        direct = sl.eval_field_direct(r, t)
        assert np.max(np.abs(fast - direct)) <= 1e-10 * np.max(np.abs(direct))

    def test_comb_period_limit(self):
        # K = 5e8 for a 16-sample grid: refused before the period is allocated
        ms = small_mode_set()
        r = sl.sample_realization(ms, 1)
        with pytest.raises(sl.ResourceLimitError, match=r"comb period of 5e\+08"):
            sl.eval_field_grid(r, 1e-7 * np.arange(16))

    def test_grid_variance_matches_mode_sum(self):
        # over one full recurrence period the sampled variance equals
        # sum A^2/2 exactly (comb frequencies are grid harmonics)
        ms = small_mode_set(total_time=100.0)
        r = sl.sample_realization(ms, 5)
        m_samples = 10_000
        t = (100.0 / m_samples) * np.arange(m_samples)
        e = sl.eval_field_grid(r, t)
        expected = np.sum(ms.amplitudes**2) / 2.0
        assert np.var(e) == pytest.approx(expected, rel=1e-9)
        # and the mode sum itself sits near coeff*W^4/4 = 127.32
        assert expected == pytest.approx(127.32, rel=0.01)


class TestTheoreticalCorrelation:
    def test_zero_lag_closed_form(self):
        val = sl.theoretical_force_correlation(0.0, sl.REF, 20.0)
        assert val == pytest.approx((1e-2 / np.pi) * 20.0**4 / 4.0, rel=1e-14)
        assert val == pytest.approx(127.32, abs=5e-3)

    def test_tau_zero(self):
        scales = sl.PhysicalScales(tau=0.0)
        lags = np.linspace(0, 5, 11)
        assert np.all(sl.theoretical_force_correlation(lags, scales, 20.0) == 0.0)

    def test_matches_adaptive_quadrature(self):
        for lag in (0.3, 1.0, 2.7, 5.0):
            closed = sl.theoretical_force_correlation(lag, sl.REF, 20.0)
            quad_val = correlation_quad(lag, sl.REF, 20.0)
            assert closed == pytest.approx(quad_val, rel=1e-8)


class TestEmpiricalCorrelation:
    def test_refuses_single_realization(self):
        with pytest.raises(sl.StatisticsError):
            sl.empirical_correlation(small_mode_set(), 1, 1, [0.0])

    @pytest.mark.parametrize("sample_dt, lags, error, field", [
        (0.0, [0.0, 1.0], sl.ConfigurationError, "sample_dt"),
        (-0.05, [0.0, 1.0], sl.ConfigurationError, "sample_dt"),
        (0.05, [0.0, 1e30], sl.StatisticsError, "lags"),
        (0.05, [-1.0], sl.ConfigurationError, "lags"),
    ], ids=["zero-step", "negative-step", "huge-lag", "negative-lag"])
    def test_bad_grid_names_its_field(self, sample_dt, lags, error, field):
        with pytest.raises(error, match=field):
            sl.empirical_correlation(small_mode_set(), 1, 2, lags, sample_dt=sample_dt)

    def test_sample_count_limit(self):
        # 5e16 samples per realization: refused before any allocation
        ms = sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=50.0)
        with pytest.raises(sl.ResourceLimitError, match="sample count"):
            sl.empirical_correlation(ms, 1, 2, [0.0, 0.1], sample_dt=1e-15)

    def test_phase_limit_before_any_draw(self, monkeypatch):
        # 1e12 realizations x 159 modes: refused before a phase is drawn
        def no_draw(*args):
            raise AssertionError("a phase was drawn")

        monkeypatch.setattr(zpf, "sample_realization", no_draw)
        with pytest.raises(sl.ResourceLimitError, match="phases"):
            sl.empirical_correlation(small_mode_set(), 1, 10**12, [0.0])

    def test_default_sample_dt_on_the_comb(self):
        # old default 2 pi/(8 omega_cut) is off this comb: 8*omega_cut/dw = 5093.0
        ms = sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=50.0, oversample=4.0)

        eighth = 2 * np.pi / (8 * ms.omega_cut)
        lags, _, _ = sl.empirical_correlation(ms, 1, 2, [0.0, eighth, 1.0])
        step = lags[1]  # stride 1: the step is within one comb bin of eighth
        assert 0 < step <= eighth
        k = 2 * np.pi / (ms.delta_omega * step)
        assert abs(k - round(k)) <= 4 * np.finfo(float).eps * k
        strides = lags / step
        np.testing.assert_allclose(strides, np.round(strides), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("window", [(0.0, 400.0), (3.0, 200.0)],
                             ids=["comb", "offset-window"])
    def test_matches_per_realization_synthesis(self, pin_cpus, window):
        ms = sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=400.0, oversample=4.0)
        lags = np.linspace(0.0, 5.0, 11)
        # 4 workers on 2 realizations: the parts are capped by the realizations
        for workers, n_real in ((1, 5), (2, 5), (4, 5), (4, 2)):
            pin_cpus(workers)
            reals = [sl.sample_realization(ms, derive_seed(17, i)) for i in range(n_real)]
            want = correlation_reference(reals, lags, 0.05, window)
            got = sl.empirical_correlation(ms, 17, n_real, lags, sample_dt=0.05,
                                           window=window)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_error_in_a_worker_reaches_the_caller(self, monkeypatch, pin_cpus):
        parent = os.getpid()
        sample_realization = zpf.sample_realization

        def failing_outside_the_parent(*args):
            if os.getpid() == parent:
                return sample_realization(*args)
            raise sl.ConfigurationError(f"draw failed in process {os.getpid()}")

        # patched before the pool forks, so the workers inherit it
        pin_cpus(2)
        monkeypatch.setattr(zpf, "sample_realization", failing_outside_the_parent)
        with pytest.raises(sl.ConfigurationError, match="draw failed in process"):
            sl.empirical_correlation(small_mode_set(), 1, 4, [0.0, 1.0], sample_dt=0.05)

    def test_tau_zero_exactly_zero(self):
        scales = sl.PhysicalScales(tau=0.0)
        ms = sl.build_mode_set(scales, omega_cut=20.0, total_time=50.0)
        lags, est, se = sl.empirical_correlation(ms, 1, 3, [0.0, 1.0])
        assert np.all(est == 0.0)

    def test_matches_theory_at_zero_lag(self):
        ms = sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=100.0, oversample=4.0)
        lags, est, se = sl.empirical_correlation(ms, 11, 150, [0.0], sample_dt=0.05)
        theory = sl.theoretical_force_correlation(lags[0], sl.REF, 20.0)
        assert abs(est[0] - theory) < 4.0 * se[0]

    def test_stationarity_between_window_halves(self):
        ms = sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=200.0)
        t_rec = ms.recurrence_time
        lags = [0.0, 1.0, 3.0]
        l1, e1, s1 = sl.empirical_correlation(ms, 13, 60, lags, sample_dt=0.05,
                                              window=(0.0, t_rec / 2))
        l2, e2, s2 = sl.empirical_correlation(ms, 13, 60, lags, sample_dt=0.05,
                                              window=(t_rec / 2, t_rec))
        assert np.all(np.abs(e1 - e2) <= 3.0 * np.hypot(s1, s2))

    def test_gaussianity_excess_kurtosis(self):
        # many-mode limit: field values across independent realizations
        ms = sl.build_mode_set(sl.REF, omega_cut=40.0, total_time=200.0)  # ~1273 modes
        n_real, n_t = 1500, 4
        t = np.array([3.0, 40.0, 90.0, 150.0])
        samples = np.empty((n_real, n_t))
        for i in range(n_real):
            r = sl.sample_realization(ms, derive_seed(21, i))
            samples[i] = sl.eval_field_direct(r, t)
        flat = samples.ravel()
        z = (flat - flat.mean()) / flat.std()
        excess = np.mean(z**4) - 3.0
        se = np.sqrt(24.0 / flat.size)
        assert abs(excess) < 3.0 * se
