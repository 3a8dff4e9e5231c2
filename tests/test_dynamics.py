import numpy as np
import pytest

import sedlab as sl
from sedlab import dynamics

from oracles import rk4_reference


def _ref_realization(total_time, seed=4242, oversample=2.0, omega_cut=20.0):
    ms = sl.build_mode_set(sl.REF, omega_cut=omega_cut, total_time=total_time,
                           oversample=oversample)
    return sl.sample_realization(ms, seed)


class TestIntegrator:
    def test_undamped_oscillator_full_period(self):
        scales = sl.PhysicalScales(tau=0.0)
        tr = sl.integrate_trajectory(scales, sl.harmonic(1.0), None, 1.0, 0.0,
                                     2 * np.pi, 2 * np.pi / 200)
        assert abs(tr.x[-1] - 1.0) < 1e-8
        assert abs(tr.p[-1]) < 1e-7

    def test_fourth_order_convergence(self):
        scales = sl.PhysicalScales(tau=0.0)
        force = sl.harmonic(1.0)

        def err(dt):
            tr = sl.integrate_trajectory(scales, force, None, 1.0, 0.0, 2 * np.pi, dt)
            return abs(tr.x[-1] - 1.0)

        e1 = err(2 * np.pi / 160)
        e2 = err(2 * np.pi / 320)
        assert e1 / e2 >= 14.0

    def test_damped_envelope(self):
        # amplitude decays as exp(-tau*omega0^2 t/2): e^-1 at t = 200
        tr = sl.integrate_trajectory(sl.REF, sl.harmonic(1.0), None, 1.0, 0.0, 200.0, 0.02)
        amp = np.hypot(tr.x[-1], tr.p[-1])
        assert amp == pytest.approx(np.exp(-1.0), rel=5e-3)

    def test_step_preconditions(self):
        r = _ref_realization(10.0)
        with pytest.raises(sl.ConfigurationError):
            sl.integrate_trajectory(sl.REF, sl.harmonic(1.0), r, 0.0, 0.0, 10.0, 0.02)
        with pytest.raises(sl.ConfigurationError):
            sl.integrate_trajectory(sl.REF, sl.harmonic(1.0), None, 0.0, 0.0, 10.0, 0.1)

    def test_divergence_error_carries_time(self):
        repulsive = sl.polynomial([0.0, 25.0])  # f = +25 x, exponential blow-up
        with pytest.raises(sl.IntegrationDivergedError) as exc:
            sl.integrate_trajectory(sl.REF, repulsive, None, 1.0, 0.0, 160.0, 0.01)
        assert exc.value.t_fail is not None
        assert 0.0 < exc.value.t_fail <= 160.0

    def test_escape_error(self):
        # anti-confining beyond |x| ~ 1.4; trust region declared at 5
        runaway = sl.polynomial([0.0, -1.0, 0.0, 0.5], escape_bound=5.0)
        with pytest.raises(sl.EscapeError) as exc:
            sl.integrate_trajectory(sl.REF, runaway, None, 2.0, 0.0, 50.0, 0.01)
        assert exc.value.t_fail is not None

    def test_linearity_common_noise(self):
        # difference of two driven runs equals the homogeneous solution
        r = _ref_realization(60.0)
        force = sl.harmonic(1.0)
        a = sl.integrate_trajectory(sl.REF, force, r, 1.3, 0.0, 60.0, 0.01)
        b = sl.integrate_trajectory(sl.REF, force, r, 0.3, 0.0, 60.0, 0.01)
        hom = sl.zeroth_order(sl.REF, force, 1.0, 0.0, 60.0, 0.01)
        assert np.max(np.abs((a.x - b.x) - hom.x)) < 1e-9

    def test_trajectory_energy_finite_and_bounded(self):
        r = _ref_realization(100.0)
        force = sl.quartic(1.0, 0.1)
        tr = sl.integrate_trajectory(sl.REF, force, r, 0.5, 0.0, 100.0, 0.01)
        h = tr.energy(force, sl.REF.m)
        assert np.all(np.isfinite(h))
        assert h.max() < 100.0  # stays desk-scale for a confining force


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _driven_rows(scales, t_span, dt, n_rows, t0=0.0, seed=4242):
    ms = sl.build_mode_set(scales, omega_cut=20.0, total_time=t_span)
    n_steps = int(round(t_span / dt))
    drive = np.array([
        dynamics.synthesize_drive(sl.sample_realization(ms, seed + i), t0, dt, n_steps)
        for i in range(n_rows)
    ])
    return drive, n_steps


class TestAffineRecurrence:
    """rk4_core's linear-force recurrence against the step loop it replaces."""

    def _compare(self, scales, force, drive, x0, p0, dt, n_steps, stride=1, t0=0.0):
        args = (scales, force, drive, np.asarray(x0, float), np.asarray(p0, float),
                dt, n_steps, stride, t0)
        fast = dynamics.rk4_core(*args)
        ref = dynamics._rk4_loop(*args)
        assert fast[0].shape == ref[0].shape == (len(x0), n_steps // stride + 1)
        assert _max_rel(fast[0], ref[0]) <= 1e-10
        assert _max_rel(fast[1], ref[1]) <= 1e-10
        assert np.array_equal(fast[2], ref[2])
        assert np.array_equal(fast[0][:, 0], ref[0][:, 0])

    def test_reference_size(self):
        dt = 0.016
        drive, n_steps = _driven_rows(sl.REF, 2000.0, dt, 3)
        self._compare(sl.REF, sl.harmonic(1.0), drive, [0.0, 1.0, -0.5],
                      [0.0, 0.0, 0.3], dt, n_steps)

    def test_undamped(self):
        # tau = 0 switches the field off, so drive with a hand-made signal
        scales = sl.PhysicalScales(tau=0.0)
        dt, n_steps = 0.02, 20_000
        t = 0.5 * dt * np.arange(2 * n_steps + 1)
        drive = np.array([np.cos(1.3 * t), 0.1 * np.sin(0.97 * t)])
        self._compare(scales, sl.harmonic(1.0), drive, [1.0, 0.0], [0.0, 0.2],
                      dt, n_steps)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_constant_term_stride_and_offset_start(self, stride):
        dt, t0 = 0.016, 3.7
        drive, n_steps = _driven_rows(sl.REF, 200.0, dt, 2, t0=t0)
        self._compare(sl.REF, sl.polynomial([0.3, -1.0]), drive, [0.0, 2.0],
                      [0.1, 0.0], dt, n_steps, stride=stride, t0=t0)

    def test_near_jordan_map_takes_the_loop(self):
        # critical damping, c1 = -4 m / tau^2, gives a defective RK4 map
        tau = 0.01
        scales = sl.PhysicalScales(tau=tau)
        force = sl.polynomial([0.0, -4.0 * scales.m / tau**2])
        dt, n_steps = 0.005, 400
        drive = np.cos(0.5 * 0.5 * dt * np.arange(2 * n_steps + 1))[None, :]
        args = (scales, force, drive, np.array([1.0]), np.array([0.0]), dt, n_steps)
        fast, ref = dynamics.rk4_core(*args), dynamics._rk4_loop(*args, 1, 0.0)
        for a, b in zip(fast, ref):
            assert np.array_equal(a, b)

    def test_escape_matches_loop(self):
        runaway = sl.polynomial([0.0, 25.0], escape_bound=5.0)  # f = +25 x
        dt, n_steps = 0.01, 1000
        drive = np.zeros((2, 2 * n_steps + 1))
        # the second member escapes first; the batch reports its step
        args = (sl.REF, runaway, drive, np.array([1e-3, 1.0]), np.zeros(2),
                dt, n_steps, 1, 2.0)
        failures = []
        for integrate in (dynamics.rk4_core, dynamics._rk4_loop):
            with pytest.raises(sl.EscapeError) as exc:
                integrate(*args)
            failures.append(exc.value)
        fast, ref = failures
        assert fast.t_fail == ref.t_fail
        assert 2.0 < fast.t_fail < 2.0 + n_steps * dt
        assert fast.x == pytest.approx(ref.x, rel=1e-10)
        with pytest.raises(sl.EscapeError) as alone:
            dynamics.rk4_core(sl.REF, runaway, drive[1:], np.array([1.0]), np.zeros(1),
                              dt, n_steps, 1, 2.0)
        assert alone.value.t_fail == fast.t_fail

    def test_divergence_at_first_non_finite_step(self):
        repulsive = sl.polynomial([0.0, 25.0])
        dt, n_steps = 0.01, 16_000
        args = (sl.REF, repulsive, np.zeros((1, 2 * n_steps + 1)), np.array([1.0]),
                np.zeros(1), dt, n_steps, 1, 0.0)
        failures = []
        for integrate in (dynamics.rk4_core, dynamics._rk4_loop):
            with pytest.raises(sl.IntegrationDivergedError) as exc:
                integrate(*args)
            failures.append(exc.value.t_fail)
        fast, ref = failures
        # the loop looks only every _CHECK_EVERY steps, and its RK4 stages
        # overflow a few steps before the state itself does
        assert abs(fast - ref) < dynamics._CHECK_EVERY * dt


def _bits(a):
    """float64 array as its bit patterns: equality is bit for bit, signed
    zeros and NaN payloads included."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestStepLoop:
    """rk4_core's per-member step loop against the numpy batch loop of
    tests/oracles.py: the same arithmetic, so the same bits."""

    def _compare(self, force, drive, x0, p0, dt, n_steps, stride=1, t0=0.0,
                 scales=sl.REF):
        args = (scales, force, drive, np.asarray(x0, float), np.asarray(p0, float),
                dt, n_steps, stride, t0)
        fast, ref = dynamics.rk4_core(*args), rk4_reference(*args)
        assert fast[0].shape == (len(x0), n_steps // stride + 1)
        for a, b in zip(fast, ref):
            assert np.array_equal(_bits(a), _bits(b))
        return fast

    def test_quartic_batch_offset_start_and_stride(self):
        dt, t0 = 0.016, 3.7
        drive, n_steps = _driven_rows(sl.REF, 100.0, dt, 16, t0=t0)
        self._compare(sl.quartic(1.0, 0.1), drive, np.linspace(-1.5, 1.5, 16),
                      np.linspace(0.4, -0.2, 16), dt, n_steps, stride=7, t0=t0)

    def test_degree_five_single_member(self):
        force = sl.polynomial([0.1, -1.0, 0.05, -0.2, 0.0, -0.01])
        drive, n_steps = _driven_rows(sl.REF, 50.0, 0.01, 1)
        self._compare(force, drive, [0.7], [-0.2], 0.01, n_steps)

    def test_strongly_damped_free_decay(self):
        # one ulp in a stage slope rarely survives the dt-weighted update;
        # without drive and with a large tau f'(x) p/m it does in a few of
        # these members, so a reordered stage formula shows here
        scales = sl.PhysicalScales(tau=0.05)
        n_steps = 1000
        self._compare(sl.quartic(1.0, 0.1), np.zeros((32, 2 * n_steps + 1)),
                      np.linspace(-2.0, 2.0, 32), np.full(32, 0.3), 0.05, n_steps,
                      scales=scales)

    def test_divergence_after_the_last_check_block(self):
        # from x = 1e-6 the state first turns non-finite at step 334, past
        # the last _CHECK_EVERY boundary; the check at the last step sees it
        repulsive = sl.polynomial([0.0, 25.0, 0.0, 1.0])
        dt, n_steps = 0.01, 400
        args = (sl.REF, repulsive, np.zeros((2, 2 * n_steps + 1)), np.array([0.0, 1e-6]),
                np.zeros(2), dt, n_steps, 1, 0.0)
        with pytest.raises(sl.IntegrationDivergedError) as fast:
            dynamics.rk4_core(*args)
        with pytest.raises(sl.IntegrationDivergedError) as ref:
            rk4_reference(*args)
        assert fast.value.t_fail == ref.value.t_fail == n_steps * dt

    def test_equilibrium_start_with_zero_drive(self):
        n_steps = 1000
        x, p, _ = self._compare(sl.quartic(1.0, 0.1), np.zeros((2, 2 * n_steps + 1)),
                                [0.0, -0.0], [0.0, 0.0], 0.01, n_steps)
        assert not np.any(x) and not np.any(p)

    def test_escape_in_a_mixed_batch(self):
        # anti-confining beyond |x| = sqrt(2): member 1 escapes first,
        # member 2 later, member 0 stays bound
        runaway = sl.polynomial([0.0, -1.0, 0.0, 0.5], escape_bound=5.0)
        dt, n_steps, t0 = 0.01, 5000, 2.0
        drive = np.zeros((3, 2 * n_steps + 1))
        x0 = np.array([0.5, 2.5, 1.6])
        args = (drive, x0, np.zeros(3), dt, n_steps, 1, t0)
        with pytest.raises(sl.EscapeError) as batch:
            dynamics.rk4_core(sl.REF, runaway, *args)
        with pytest.raises(sl.EscapeError) as ref:
            rk4_reference(sl.REF, runaway, *args)
        with pytest.raises(sl.EscapeError) as alone:
            dynamics.rk4_core(sl.REF, runaway, drive[1:2], x0[1:2], np.zeros(1), dt,
                              n_steps, 1, t0)
        assert t0 < batch.value.t_fail < t0 + n_steps * dt
        assert batch.value.t_fail == alone.value.t_fail == ref.value.t_fail
        assert batch.value.x == alone.value.x == ref.value.x

    def test_escapes_at_one_step_report_the_largest_x(self):
        runaway = sl.polynomial([0.0, -1.0, 0.0, 0.5], escape_bound=5.0)
        dt, n_steps = 0.01, 5000

        def escape(integrate, *x0):
            n = len(x0)
            with pytest.raises(sl.EscapeError) as exc:
                integrate(sl.REF, runaway, np.zeros((n, 2 * n_steps + 1)), np.array(x0),
                          np.zeros(n), dt, n_steps)
            return exc.value

        big, small = escape(dynamics.rk4_core, 2.5 + 1e-7), escape(dynamics.rk4_core, 2.5)
        assert big.t_fail == small.t_fail and big.x > small.x
        for x0 in ((2.5 + 1e-7, 2.5), (2.5, 2.5 + 1e-7)):
            for integrate in (dynamics.rk4_core, rk4_reference):
                batch = escape(integrate, *x0)
                assert (batch.t_fail, batch.x) == (big.t_fail, big.x)


class TestStepGridValidation:
    def test_store_stride_below_one_rejected(self):
        r = _ref_realization(10.0)
        force = sl.harmonic(1.0)
        with pytest.raises(sl.ConfigurationError, match="store_stride"):
            sl.integrate_trajectory(sl.REF, force, None, 1.0, 0.0, 10.0, 0.01,
                                    store_stride=0)
        with pytest.raises(sl.ConfigurationError, match="store_stride"):
            dynamics.rk4_core(sl.REF, force, np.zeros((1, 21)), np.ones(1),
                              np.zeros(1), 0.01, 10, store_stride=0)
        with pytest.raises(sl.ConfigurationError, match="store_stride"):
            sl.hierarchy_terms(sl.REF, sl.quartic(1.0, 0.1), r, 1.0, 0.0, 10.0,
                               0.01, store_stride=-1)

    @pytest.mark.parametrize("t_span", [10.005, 0.004])
    def test_hierarchy_rejects_partial_steps(self, t_span):
        r = _ref_realization(20.0)
        with pytest.raises(sl.ConfigurationError, match="whole number"):
            sl.hierarchy_terms(sl.REF, sl.quartic(1.0, 0.1), r, 1.0, 0.0, t_span, 0.01)


class TestZerothOrder:
    def test_equilibrium_start_stays_zero(self):
        tr = sl.zeroth_order(sl.REF, sl.quartic(1.0, 0.1), 0.0, 0.0, 50.0, 0.01)
        assert np.all(tr.x == 0.0)
        assert np.all(tr.p == 0.0)

    def test_bitwise_match_with_driveless_integration(self):
        force = sl.harmonic(1.0)
        a = sl.zeroth_order(sl.REF, force, 1.0, 0.2, 40.0, 0.01)
        b = sl.integrate_trajectory(sl.REF, force, None, 1.0, 0.2, 40.0, 0.01)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.p, b.p)

    def test_quartic_energy_decays_monotonically(self):
        force = sl.quartic(1.0, 0.1)
        tr = sl.zeroth_order(sl.REF, force, 1.0, 0.0, 100.0, 0.01)
        h = tr.energy(force, sl.REF.m)
        dh = np.diff(h)
        assert h[-1] < h[0]
        assert np.all(dh <= 1e-12 * h[0])  # radiated power is non-negative


class TestGreensFunction:
    @pytest.mark.parametrize("kind", ["bare", "damped"])
    @pytest.mark.parametrize("force_name", ["harmonic", "quartic"])
    def test_kernel_identities(self, kind, force_name):
        force = sl.harmonic(1.0) if force_name == "harmonic" else sl.quartic(1.0, 0.1)
        g = sl.greens_function(sl.REF, force, kind)
        assert g.g(0.0) == 0.0
        h = 1e-6
        slope = (g.g(h) - g.g(0.0)) / h
        assert slope == pytest.approx(1.0 / sl.REF.m, rel=1e-6)

    def test_bare_harmonic_closed_form(self):
        g = sl.greens_function(sl.REF, sl.harmonic(1.0), "bare")
        u = np.array([0.0, np.pi / 2, np.pi, 2.2])
        np.testing.assert_allclose(g.g(u), np.sin(u), atol=1e-14)
        assert float(g.g(np.pi / 2)) == pytest.approx(1.0)

    def test_damped_harmonic_closed_form(self):
        g = sl.greens_function(sl.REF, sl.harmonic(1.0), "damped")
        gamma = sl.REF.tau
        w1 = np.sqrt(1.0 - (gamma / 2) ** 2)
        u = np.array([0.5, 5.0, 40.0])
        np.testing.assert_allclose(
            g.g(u), np.exp(-gamma * u / 2) * np.sin(w1 * u) / w1, rtol=1e-12
        )

    def test_multiwell_rejected(self):
        double = sl.polynomial([0.0, 1.0, 0.0, -1.0])
        with pytest.raises(sl.ConfigurationError):
            sl.greens_function(sl.REF, double, "damped")

    def test_quartic_linearization_frequency(self):
        g = sl.greens_function(sl.REF, sl.quartic(1.0, 0.1), "damped")
        assert g.omega == pytest.approx(1.0)  # f'(0) = -m omega0^2 regardless of lam


class TestResponses:
    def test_zero_field_zero_response(self):
        ms = sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=50.0).scaled(0.0)
        r = sl.sample_realization(ms, 4)
        g = sl.greens_function(sl.REF, sl.harmonic(1.0), "damped")
        t = 0.01 * np.arange(2000)
        x1, p1 = sl.first_order_response(g, r, t)
        assert np.all(x1 == 0.0)
        assert np.all(p1 == 0.0)

    def test_damped_kernel_matches_full_integrator(self):
        # for a linear force the hierarchy is exact; residual is quadrature error
        r = _ref_realization(100.0)
        force = sl.harmonic(1.0)
        dt = 0.01
        full = sl.integrate_trajectory(sl.REF, force, r, 0.0, 0.0, 100.0, dt)
        g = sl.greens_function(sl.REF, force, "damped")
        grid = (dt / 2) * np.arange(2 * int(100.0 / dt) + 1)
        x1, p1 = sl.first_order_response(g, r, grid)
        scale = np.max(np.abs(full.x))
        assert np.max(np.abs(x1[::2] - full.x)) < 1e-3 * scale
        assert np.max(np.abs(p1[::2] - full.p)) < 2e-3 * np.max(np.abs(full.p))

    def test_bare_kernel_secular_growth(self):
        # without damping the kernel is accurate early and drifts later
        r = _ref_realization(400.0, seed=902)
        force = sl.harmonic(1.0)
        dt = 0.01
        full = sl.integrate_trajectory(sl.REF, force, r, 0.0, 0.0, 400.0, dt)
        g = sl.greens_function(sl.REF, force, "bare")
        grid = (dt / 2) * np.arange(2 * int(400.0 / dt) + 1)
        x1, _ = sl.first_order_response(g, r, grid)
        x1 = x1[::2]
        scale = np.std(full.x[: int(100 / dt)]) * 3
        early = slice(0, int(2.0 / dt))
        late = slice(int(300.0 / dt), int(400.0 / dt))
        err_early = np.max(np.abs(x1[early] - full.x[early])) / scale
        err_late = np.max(np.abs(x1[late] - full.x[late])) / scale
        assert err_early < 2e-2
        assert err_late > 10 * err_early  # documented divergence past the decay time

    def test_second_order_zero_for_harmonic(self):
        r = _ref_realization(50.0)
        force = sl.harmonic(1.0)
        g = sl.greens_function(sl.REF, force, "damped")
        t = 0.01 * np.arange(3000)
        x1, _ = sl.first_order_response(g, r, t)
        x2 = sl.second_order_response(g, force, np.zeros_like(t), x1, t)
        assert np.all(x2 == 0.0)

    def test_second_order_zero_at_origin_for_quartic(self):
        # f'' of the quartic force vanishes at x = 0
        r = _ref_realization(50.0)
        force = sl.quartic(1.0, 0.1)
        g = sl.greens_function(sl.REF, force, "damped")
        t = 0.01 * np.arange(3000)
        x1, _ = sl.first_order_response(g, r, t)
        x2 = sl.second_order_response(g, force, np.zeros_like(t), x1, t)
        assert np.all(x2 == 0.0)

    def test_second_order_nonzero_off_origin(self):
        r = _ref_realization(50.0)
        force = sl.quartic(1.0, 0.1)
        g = sl.greens_function(sl.REF, force, "damped")
        t = 0.01 * np.arange(3000)
        x1, _ = sl.first_order_response(g, r, t)
        x2 = sl.second_order_response(g, force, np.cos(t), x1, t)
        assert np.max(np.abs(x2)) > 0.0

    def test_grid_mismatch_rejected(self):
        r = _ref_realization(50.0)
        g = sl.greens_function(sl.REF, sl.harmonic(1.0), "damped")
        t = 0.01 * np.arange(100)
        with pytest.raises(sl.ConfigurationError):
            sl.second_order_response(g, sl.quartic(1.0, 0.1), np.zeros(50), np.zeros(100), t)
        with pytest.raises(sl.ConfigurationError):
            sl.first_order_response(g, r, np.array([0.0, 0.1, 0.15]))


class TestHierarchy:
    def test_residual_shrinks_eightfold(self):
        # x_full - (x0 + x1 + x2) is third order in the drive amplitude
        scales = sl.REF
        force = sl.quartic(1.0, 0.1)
        ms = sl.build_mode_set(scales, omega_cut=20.0, total_time=40.0, oversample=2.0)
        base = sl.sample_realization(ms, 777)

        def residual(scale):
            r = sl.ZpfRealization(mode_set=ms.scaled(scale), seed=base.seed,
                                  phases=base.phases)
            h = sl.hierarchy_terms(scales, force, r, 1.0, 0.0, 40.0, 0.01, store_stride=5)
            full = sl.integrate_trajectory(scales, force, r, 1.0, 0.0, 40.0, 0.01,
                                           store_stride=5)
            resid = full.x - (h["x0"] + h["x1"] + h["x2"])
            return np.max(np.abs(resid)), np.max(np.abs(h["x2"]))

        r_2, x2_2 = residual(0.2)
        r_1, x2_1 = residual(0.1)
        assert x2_1 > 0.0
        assert x2_2 / x2_1 == pytest.approx(4.0, rel=0.15)  # second-order term
        assert 6.5 <= r_2 / r_1 <= 9.0  # cubic residual

    def test_divergence_after_the_last_check_block_raises(self):
        # 7100 steps: the state turns non-finite within the last 188, past
        # the last _CHECK_EVERY boundary at step 6912
        r = _ref_realization(150.0, seed=3)
        with pytest.raises(sl.IntegrationDivergedError) as exc:
            sl.hierarchy_terms(sl.REF, sl.polynomial([0.0, 25.0]), r, 1.0, 0.0, 71.0, 0.01)
        assert 0.0 < exc.value.t_fail <= 71.0

    def test_zeroth_component_matches_zeroth_order(self):
        force = sl.quartic(1.0, 0.1)
        r = _ref_realization(30.0)
        h = sl.hierarchy_terms(sl.REF, force, r, 1.0, 0.0, 30.0, 0.01)
        z = sl.zeroth_order(sl.REF, force, 1.0, 0.0, 30.0, 0.01)
        np.testing.assert_allclose(h["x0"], z.x, atol=1e-12)
