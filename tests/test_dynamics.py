from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sedlab as sl
from sedlab import dynamics

from oracles import causal_convolution_direct, hierarchy_reference, rk4_reference


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
        hom = sl.integrate_trajectory(sl.REF, force, None, 1.0, 0.0, 60.0, 0.01)
        assert np.max(np.abs((a.x - b.x) - hom.x)) < 1e-9

    def test_trajectory_energy_finite_and_bounded(self):
        r = _ref_realization(100.0)
        force = sl.quartic(1.0, 0.1)
        tr = sl.integrate_trajectory(sl.REF, force, r, 0.5, 0.0, 100.0, 0.01)
        h = tr.p**2 / (2 * sl.REF.m) + force.potential(tr.x)
        assert np.all(np.isfinite(h))
        assert h.max() < 100.0  # stays desk-scale for a confining force


def _step_loop(scales, force, drive, x0, p0, dt, n_steps, stride=1):
    """rk4_core with the step loop for any force, the linear ones included."""
    with mock.patch.object(dynamics, "_rk4_affine", dynamics._rk4_loop):
        return dynamics.rk4_core(scales, force, drive, x0, p0, dt, n_steps, stride)


def _oracle_alone(scales, force, drive, x0, p0, dt, n_steps, stride=1, t0=0.0):
    """rk4_reference run on each member alone: per member, its (x, p, drive)
    rows, or the EscapeError or IntegrationDivergedError it raises."""
    out = []
    for row in range(len(x0)):
        try:
            out.append(rk4_reference(scales, force, drive[row : row + 1],
                                     x0[row : row + 1], p0[row : row + 1], dt, n_steps,
                                     stride, t0))
        except (sl.EscapeError, sl.IntegrationDivergedError) as exc:
            out.append(exc)
    return out


def _assert_records(fast, oracle, t0, dt, exact=True):
    """rk4_core's rows and failure records against _oracle_alone's members.

    A failed member has NaN rows and a record of the oracle's kind at the
    oracle's time t0 + step*dt, with the oracle's |x| for an escape and NaN
    for a divergence.
    exact=False is for the banded solve: rows and |x| to 1e-10 relative,
    and a divergence within the oracle's finiteness-check cadence.
    """
    xs, ps, es, fails = fast
    for row, ref in enumerate(oracle):
        if not isinstance(ref, sl.SedlabError):
            assert fails[row] is None
            for got, want in zip((xs, ps, es), ref):
                if exact:
                    assert np.array_equal(_bits(got[row]), _bits(want[0]))
                else:
                    np.testing.assert_allclose(got[row], want[0], rtol=1e-10, atol=0.0)
            continue
        step, kind, worst = fails[row]
        assert kind == (0 if isinstance(ref, sl.EscapeError) else 1)
        assert np.isnan(xs[row]).all() and np.isnan(ps[row]).all()
        assert np.isnan(es[row]).all()
        if exact or kind == 0:
            assert t0 + step * dt == ref.t_fail
        else:
            assert abs(t0 + step * dt - ref.t_fail) < dynamics._CHECK_EVERY * dt
        if kind == 0:
            assert worst == (ref.x if exact else pytest.approx(ref.x, rel=1e-10))
        else:
            assert np.isnan(worst)


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _driven_rows(scales, t_span, dt, n_rows, t0=0.0, seed=4242):
    ms = sl.build_mode_set(scales, omega_cut=20.0, total_time=t_span)
    n_steps = int(round(t_span / dt))
    t = t0 + 0.5 * dt * np.arange(2 * n_steps + 1)
    drive = np.array([sl.eval_field_grid(sl.sample_realization(ms, seed + i), t)
                      for i in range(n_rows)])
    return drive, n_steps


def _rk4_stable_limit(m, tau, dt):
    """Largest k at which RK4 with step dt is stable on x' = p/m,
    p' = -k x - tau k p/m: every eigenvalue z of dt times the system matrix
    has |1 + z + z^2/2 + z^3/6 + z^4/24| <= 1.  Bisection on log k."""
    def stable(k):
        z = dt * np.roots([1.0, tau * k / m, k / m])
        return np.all(np.abs(np.polyval([1 / 24, 1 / 6, 1 / 2, 1, 1], z)) <= 1 + 1e-12)

    lo, hi = 0.1, 1e9
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


class TestAffineRecurrence:
    """rk4_core's linear-force recurrence against the step loop it replaces."""

    def _compare(self, scales, force, drive, x0, p0, dt, n_steps, stride=1):
        args = (scales, force, drive, np.asarray(x0, float), np.asarray(p0, float),
                dt, n_steps, stride)
        fast = dynamics.rk4_core(*args)
        ref = _step_loop(*args)
        assert fast[3] == ref[3] == [None] * len(x0)
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
                      [0.1, 0.0], dt, n_steps, stride=stride)

    @pytest.mark.parametrize("c0, k", [(0.0, 4.0), (0.2, 5.0)],
                             ids=["critical", "overdamped"])
    def test_strongly_damped(self, c0, k):
        # c1 = -4 m / tau^2 damps critically and makes the RK4 map defective;
        # -5 m / tau^2 gives it real distinct eigenvalues, RK4 still stable
        tau = 0.01
        scales = sl.PhysicalScales(tau=tau)
        force = sl.polynomial([c0, -k * scales.m / tau**2])
        dt, n_steps = 0.005, 400
        drive = np.cos(0.5 * 0.5 * dt * np.arange(2 * n_steps + 1))[None, :]
        self._compare(scales, force, drive, [1.0], [0.0], dt, n_steps)

    @given(c0=st.floats(-1.0, 1.0), depth=st.floats(0.0, 1.0),
           dt=st.floats(0.002, 0.02), tau=st.sampled_from([0.0, 1e-2]),
           stride=st.sampled_from([1, 7]), t0=st.sampled_from([0.0, 3.7]))
    @settings(max_examples=40, deadline=None)
    def test_any_stable_linear_force(self, c0, depth, dt, tau, stride, t0):
        # c1 runs log-uniformly from -0.1 down to RK4's stability limit,
        # which lies past critical damping (c1 = -4 m / tau^2) for small dt.
        # Where the two meet (dt near 0.0139 at tau = 1e-2) the map is a
        # Jordan block with eigenvalue -1, and any two roundings drift apart
        # as n_steps^2: 7e-11 relative at 200 steps, 1.7e-10 at 300.
        scales = sl.PhysicalScales(tau=tau)
        c1 = -0.1 * (_rk4_stable_limit(scales.m, tau, dt) / 0.1) ** depth
        n_steps = 200
        t = t0 + 0.5 * dt * np.arange(2 * n_steps + 1)
        drive = np.array([np.cos(1.3 * t), 0.1 * np.sin(0.97 * t)])
        self._compare(scales, sl.polynomial([c0, c1]), drive, [1.0, 0.0], [0.0, 0.2],
                      dt, n_steps, stride=stride)

    def test_escape_matches_loop(self):
        runaway = sl.polynomial([0.0, 25.0], escape_bound=5.0)  # f = +25 x
        dt, n_steps, t0 = 0.01, 1000, 2.0
        # the second member escapes first, each at the oracle's step
        args = (sl.REF, runaway, np.zeros((2, 2 * n_steps + 1)), np.array([1e-3, 1.0]),
                np.zeros(2), dt, n_steps)
        fast = dynamics.rk4_core(*args)
        _assert_records(fast, _oracle_alone(*args, t0=t0), t0, dt, exact=False)
        first, second = fast[3]
        assert 0 < second[0] < first[0] <= n_steps

    def test_divergence_at_first_non_finite_step(self):
        # the loop looks only every _CHECK_EVERY steps, and its RK4 stages
        # overflow a few steps before the state itself does
        repulsive = sl.polynomial([0.0, 25.0])
        dt, n_steps = 0.01, 16_000
        args = (sl.REF, repulsive, np.zeros((1, 2 * n_steps + 1)), np.array([1.0]),
                np.zeros(1), dt, n_steps)
        fast = dynamics.rk4_core(*args)
        assert fast[3][0][1] == 1
        _assert_records(fast, _oracle_alone(*args), 0.0, dt, exact=False)


def _bits(a):
    """float64 array as its bit patterns: equality is bit for bit, signed
    zeros and NaN payloads included."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestStepLoop:
    """rk4_core's per-member step loop against the numpy batch loop of
    tests/oracles.py: the same arithmetic, so the same bits and the same
    failures, member by member."""

    def _compare(self, force, drive, x0, p0, dt, n_steps, stride=1, scales=sl.REF):
        args = (scales, force, drive, np.asarray(x0, float), np.asarray(p0, float),
                dt, n_steps, stride)
        fast, ref = dynamics.rk4_core(*args), rk4_reference(*args)
        assert fast[0].shape == (len(x0), n_steps // stride + 1)
        assert fast[3] == [None] * len(x0)
        for a, b in zip(fast, ref):
            assert np.array_equal(_bits(a), _bits(b))
        return fast

    def test_quartic_batch_offset_start_and_stride(self):
        dt, t0 = 0.016, 3.7
        drive, n_steps = _driven_rows(sl.REF, 100.0, dt, 16, t0=t0)
        self._compare(sl.quartic(1.0, 0.1), drive, np.linspace(-1.5, 1.5, 16),
                      np.linspace(0.4, -0.2, 16), dt, n_steps, stride=7)

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
                np.zeros(2), dt, n_steps)
        fast = dynamics.rk4_core(*args)
        _assert_records(fast, _oracle_alone(*args), 0.0, dt)
        assert fast[3][1][:2] == (n_steps, 1)

    def test_equilibrium_start_with_zero_drive(self):
        n_steps = 1000
        x, p, _, _ = self._compare(sl.quartic(1.0, 0.1), np.zeros((2, 2 * n_steps + 1)),
                                   [0.0, -0.0], [0.0, 0.0], 0.01, n_steps)
        assert not np.any(x) and not np.any(p)

    def test_escape_in_a_mixed_batch(self):
        # anti-confining beyond |x| = sqrt(2): member 1 escapes first,
        # member 2 later, member 0 stays bound
        runaway = sl.polynomial([0.0, -1.0, 0.0, 0.5], escape_bound=5.0)
        dt, n_steps, t0 = 0.01, 5000, 2.0
        args = (sl.REF, runaway, np.zeros((3, 2 * n_steps + 1)), np.array([0.5, 2.5, 1.6]),
                np.zeros(3), dt, n_steps)
        fast = dynamics.rk4_core(*args)
        _assert_records(fast, _oracle_alone(*args, t0=t0), t0, dt)
        bound, first, second = fast[3]
        assert bound is None and 0 < first[0] < second[0] < n_steps

    @pytest.mark.parametrize("force, x0, exact", [
        (sl.polynomial([0.0, -1.0, 0.0, 0.5], escape_bound=5.0), [0.5, 2.5, 1.6], True),
        (sl.polynomial([0.0, 25.0], escape_bound=5.0), [0.0, 1.0, 1e-3], False),
    ], ids=["loop", "band"])
    def test_per_member_failures(self, force, x0, exact):
        # members 1 and 2 escape at their own steps, member 0 never; each
        # member's rows and record are the ones it gets alone, and the
        # oracle's
        dt, n_steps, t0 = 0.01, 5000, 2.0
        args = (sl.REF, force, np.zeros((3, 2 * n_steps + 1)), np.array(x0), np.zeros(3),
                dt, n_steps)
        fast = dynamics.rk4_core(*args)
        fails = fast[3]
        assert fails[0] is None and fails[1][0] < fails[2][0]
        assert fails[1][1] == fails[2][1] == 0
        drive, x0, p0 = args[2:5]
        for row in range(3):
            alone = dynamics.rk4_core(sl.REF, force, drive[row : row + 1], x0[row : row + 1],
                                      p0[row : row + 1], dt, n_steps)
            for a, b in zip(fast[:3], alone[:3]):
                assert np.array_equal(_bits(a[row]), _bits(b[0]))
            assert alone[3] == [fails[row]]
        _assert_records(fast, _oracle_alone(*args, t0=t0), t0, dt, exact=exact)

    # a subnormal amp has fewer than 53 significant bits: no reordered
    # computation, such as the banded solve, can meet rtol 1e-10 there
    @given(case=st.sampled_from(["escape", "diverge", "band"]), data=st.data(),
           amp=st.floats(0.0, 0.1, allow_subnormal=False), t0=st.floats(0.0, 100.0),
           stride=st.sampled_from([1, 7]))
    @settings(max_examples=30, deadline=None)
    def test_records_match_the_oracle_member_by_member(self, case, data, amp, t0,
                                                       stride):
        # a batch mixing bound members with escaping ones (a runaway force
        # with a bound), diverging ones (the same force without it) or
        # diverging ones on the banded solve (f = 25x from |x| near 1e305)
        force, bound, failing = {
            "escape": (sl.polynomial([0.0, -1.0, 0.0, 0.5], escape_bound=5.0),
                       st.floats(-1.0, 1.0), st.floats(2.0, 4.0)),
            "diverge": (sl.polynomial([0.0, -1.0, 0.0, 0.5]),
                        st.floats(-1.0, 1.0), st.floats(2.0, 4.0)),
            "band": (sl.polynomial([0.0, 25.0]), st.just(0.0), st.floats(1e304, 1e306)),
        }[case]
        sign = st.sampled_from([1.0, -1.0])
        x0 = np.array(data.draw(st.lists(
            st.one_of(bound, st.builds(lambda s, x: s * x, sign, failing)),
            min_size=1, max_size=4)))
        dt, n_steps = 0.01, 300
        t = t0 + 0.5 * dt * np.arange(2 * n_steps + 1)
        drive = np.tile(amp * np.cos(1.3 * t), (len(x0), 1))
        args = (sl.REF, force, drive, x0, np.zeros(len(x0)), dt, n_steps, stride)
        _assert_records(dynamics.rk4_core(*args), _oracle_alone(*args, t0=t0), t0, dt,
                        exact=case != "band")

    def test_overflow_escape_reports_inf(self):
        # f = 25x + x^3 from x = 1 overflows to inf at t = 0.656, inside
        # any finite bound; the escape reports |x| = inf, not NaN
        runaway = sl.polynomial([0.0, 25.0, 0.0, 1.0], escape_bound=1e300)
        dt, n_steps = 0.016, 1000
        args = (sl.REF, runaway, np.zeros((1, 2 * n_steps + 1)), np.array([1.0]),
                np.zeros(1), dt, n_steps)
        fast = dynamics.rk4_core(*args)
        _assert_records(fast, _oracle_alone(*args), 0.0, dt)
        step, kind, worst = fast[3][0]
        assert step * dt == pytest.approx(0.656, abs=1e-12)
        assert (kind, worst) == (0, np.inf)

    @pytest.mark.parametrize("x, worst", [(-np.inf, np.inf), (np.inf, np.inf),
                                          (np.nan, np.nan), (-7.0, 7.0)])
    def test_series_escape_reports_abs_x(self, x, worst):
        state = np.array([[0.5, 1.0, x, 2.0], [0.0, 0.0, 0.0, 0.0]]).T
        step, kind, got = dynamics._first_failure(state, 5.0)
        assert (step, kind) == (3, 0)
        assert got == worst or (np.isnan(got) and np.isnan(worst))


class TestStepGridValidation:
    @pytest.mark.parametrize("force", [sl.harmonic(1.0), sl.quartic(1.0, 0.1)],
                             ids=["harmonic", "quartic"])
    @pytest.mark.parametrize("shape, members", [((1, 10), 1), ((1, 12), 1), ((2, 11), 1),
                                                ((1, 11), 2)],
                             ids=["short", "long", "rows", "fewer-drives"])
    def test_drive_shape_mismatch_rejected(self, force, shape, members):
        with pytest.raises(sl.ConfigurationError, match="drive_half"):
            dynamics.rk4_core(sl.REF, force, np.zeros(shape), np.ones(members),
                              np.zeros(members), 0.01, 5)

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
        tr = sl.integrate_trajectory(sl.REF, sl.quartic(1.0, 0.1), None, 0.0, 0.0, 50.0, 0.01)
        assert np.all(tr.x == 0.0)
        assert np.all(tr.p == 0.0)

    def test_quartic_energy_decays_monotonically(self):
        force = sl.quartic(1.0, 0.1)
        tr = sl.integrate_trajectory(sl.REF, force, None, 1.0, 0.0, 100.0, 0.01)
        h = tr.p**2 / (2 * sl.REF.m) + force.potential(tr.x)
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
        ms = sl.build_mode_set(sl.REF, omega_cut=20.0, total_time=50.0)
        ms = replace(ms, amplitudes=0.0 * ms.amplitudes)
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

    @pytest.mark.parametrize("m_samples", [2000, 2001], ids=["even", "odd"])
    def test_first_order_matches_direct_trapezoid(self, m_samples):
        r = _ref_realization(50.0)
        g = sl.greens_function(sl.REF, sl.harmonic(1.0), "damped")
        h = 0.02
        t = 1.3 + h * np.arange(m_samples)
        x1, p1 = sl.first_order_response(g, r, t)
        e = sl.eval_field_grid(r, t)
        u = h * np.arange(m_samples)
        for got, kernel, m in ((x1, g.g(u), 1.0), (p1, g.gdot(u), g.m)):
            ref = m * causal_convolution_direct(kernel, e, h)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_grid_mismatch_rejected(self):
        r = _ref_realization(50.0)
        g = sl.greens_function(sl.REF, sl.harmonic(1.0), "damped")
        with pytest.raises(sl.ConfigurationError):
            sl.first_order_response(g, r, np.array([0.0, 0.1, 0.15]))


def _hierarchy_failure(r, t_span, dt=0.01):
    """t_fail of hierarchy_reference for f = 25x from x = 1 in realization r."""
    n_steps = int(round(t_span / dt))
    drive = dynamics.synthesize_drive(r, dt, n_steps)
    with pytest.raises(sl.IntegrationDivergedError) as exc:
        hierarchy_reference(sl.REF, sl.polynomial([0.0, 25.0]), drive, 1.0, 0.0, dt,
                            n_steps)
    return exc.value.t_fail


class TestHierarchy:
    def test_residual_shrinks_eightfold(self):
        # x_full - (x0 + x1 + x2) is third order in the drive amplitude
        scales = sl.REF
        force = sl.quartic(1.0, 0.1)
        ms = sl.build_mode_set(scales, omega_cut=20.0, total_time=40.0, oversample=2.0)
        base = sl.sample_realization(ms, 777)

        def residual(scale):
            r = sl.ZpfRealization(mode_set=replace(ms, amplitudes=scale * ms.amplitudes),
                                  seed=base.seed, phases=base.phases)
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
        assert exc.value.t_fail == _hierarchy_failure(r, 71.0) == 71.0

    def test_divergence_is_seen_at_the_check_cadence(self):
        # the same run over 10000 steps: the check at step 7168 = 28 * 256
        # is the first to see the non-finite state
        r = _ref_realization(150.0, seed=3)
        with pytest.raises(sl.IntegrationDivergedError) as exc:
            sl.hierarchy_terms(sl.REF, sl.polynomial([0.0, 25.0]), r, 1.0, 0.0, 100.0,
                               0.01)
        assert exc.value.t_fail == _hierarchy_failure(r, 100.0) == 7168 * 0.01

    @pytest.mark.parametrize("force, t_span, stride", [
        (sl.quartic(1.0, 0.1), 100.0, 1),
        (sl.polynomial([0.1, -1.0, 0.05, -0.2, 0.03, -0.01]), 30.0, 1),
        (sl.harmonic(1.0), 30.0, 1),
        (sl.quartic(1.0, 0.1), 30.0, 7),
    ], ids=["quartic", "degree-five", "harmonic", "stride-7"])
    def test_bit_identical_to_the_numpy_loop(self, force, t_span, stride):
        r = _ref_realization(t_span)
        h = sl.hierarchy_terms(sl.REF, force, r, 1.0, -0.3, t_span, 0.01,
                               store_stride=stride)
        n_steps = int(round(t_span / 0.01))
        drive = dynamics.synthesize_drive(r, 0.01, n_steps)
        ref = hierarchy_reference(sl.REF, force, drive, 1.0, -0.3, 0.01, n_steps, stride)
        for row, name in enumerate(("x0", "p0", "x1", "p1", "x2", "p2")):
            assert np.array_equal(_bits(h[name]), _bits(ref[row])), name

    def test_escape_matches_driveless_integration(self):
        # f = -x + x^3/2 runs away from x = 2.5; x0 is the drive-free motion,
        # so it crosses the bound at the driveless integration's step with its |x|
        force = sl.polynomial([0.0, -1.0, 0.0, 0.5], escape_bound=5.0)
        r = sl.sample_realization(sl.build_mode_set(sl.REF, 20.0, total_time=2.0), 3)
        with pytest.raises(sl.EscapeError) as hier:
            sl.hierarchy_terms(sl.REF, force, r, 2.5, 0.0, 2.0, 0.01)
        with pytest.raises(sl.EscapeError) as zero:
            sl.integrate_trajectory(sl.REF, force, None, 2.5, 0.0, 2.0, 0.01)
        assert hier.value.t_fail == zero.value.t_fail < 2.0
        assert hier.value.x == zero.value.x > 5.0

    def test_zeroth_component_matches_driveless_integration(self):
        force = sl.quartic(1.0, 0.1)
        r = _ref_realization(30.0)
        h = sl.hierarchy_terms(sl.REF, force, r, 1.0, 0.0, 30.0, 0.01)
        z = sl.integrate_trajectory(sl.REF, force, None, 1.0, 0.0, 30.0, 0.01)
        assert np.array_equal(h["x0"], z.x)
        assert np.array_equal(h["p0"], z.p)
