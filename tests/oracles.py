"""Independent oracles for the test suite.

Everything here is deliberately primitive (quadrature, finite differences,
grid eigensolvers, brute-force time integrals) and shares no code with the
library paths it checks.  The exceptions are correlation_reference, which
synthesizes through the public eval_field_grid: it checks only how
empirical_correlation drives the synthesis, not the synthesis itself; and
moment_curves_reference and balance_reference, which evaluate f' and H with
the force's own methods: they check only how the ensemble statistics reduce
the report.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import eigh_tridiagonal

from sedlab.errors import EscapeError, IntegrationDivergedError
from sedlab.zpf import eval_field_grid


def response_moment_quad(scales, omega_cut: float, weight_power: int = 0,
                         band: tuple[float, float] | None = None) -> float:
    """Stationary moments of the damped driven oscillator by linear response.

    Integrates (m tau hbar/pi) w^(3+weight_power) /
    (m^2 [(w0^2-w^2)^2 + tau^2 w0^4 w^2]) over `band`, by default the whole
    field band [0, omega_cut]; weight_power 0 gives <x^2>, 2 gives <xdot^2>
    (so m^2 times it is <p^2>).
    """
    m, w0, tau, hbar = scales.m, scales.omega0, scales.tau, scales.hbar
    coeff = m * tau * hbar / np.pi
    lo, hi = band if band is not None else (0.0, omega_cut)

    def integrand(w):
        return coeff * w ** (3 + weight_power) / (
            m**2 * ((w0**2 - w**2) ** 2 + tau**2 * w0**4 * w**2)
        )

    # split around the resonance so quad resolves the narrow peak
    edges = [lo] + [w for w in (0.9 * w0, 1.1 * w0) if lo < w < hi] + [hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(integrand, a, b, limit=500)
        total += val
    return total


def stationary_oracle(scales, omega_cut: float,
                      band: tuple[float, float] | None = None) -> dict:
    """Frozen linear-response values {'x2','p2','H','dxdp'} for the harmonic
    case, from the response integrals over `band` (default [0, omega_cut])."""
    x2 = response_moment_quad(scales, omega_cut, 0, band)
    xdot2 = response_moment_quad(scales, omega_cut, 2, band)
    p2 = scales.m**2 * xdot2
    h = 0.5 * p2 / scales.m + 0.5 * scales.m * scales.omega0**2 * x2
    return {"x2": x2, "p2": p2, "H": h, "dxdp": np.sqrt(x2 * p2)}


def correlation_quad(delta: float, scales, omega_cut: float) -> float:
    """Adaptive quadrature of (m tau hbar/pi) int_0^W w^3 cos(w delta) dw."""
    coeff = scales.m * scales.tau * scales.hbar / np.pi

    def integrand(w):
        return coeff * w**3 * np.cos(w * delta)

    n_osc = max(1, int(omega_cut * abs(delta) / np.pi) + 1)
    edges = np.linspace(0.0, omega_cut, 4 * n_osc + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(integrand, a, b, limit=200)
        total += val
    return total


def fd_check(func, dfunc, points, h: float = 1e-5) -> float:
    """Max relative error of centered finite differences of func against dfunc."""
    worst = 0.0
    for x in points:
        fd = (func(x + h) - func(x - h)) / (2 * h)
        exact = dfunc(x)
        scale = max(abs(exact), 1.0)
        worst = max(worst, abs(fd - exact) / scale)
    return worst


def grid_ground_state(v_callable, hbar: float, m: float, x_max: float,
                      n_points: int = 8001, n_levels: int = 6) -> np.ndarray:
    """Uniform-grid finite-difference eigenvalues (independent diagonalization)."""
    x = np.linspace(-x_max, x_max, n_points)
    dx = x[1] - x[0]
    diag = hbar**2 / (m * dx**2) + v_callable(x)
    off = np.full(n_points - 1, -(hbar**2) / (2 * m * dx**2))
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))[0]
    return vals


def grid_ground_state_richardson(v_callable, hbar, m, x_max, n_points=4001,
                                 n_levels=6) -> np.ndarray:
    """Richardson-extrapolated grid eigenvalues (second-order scheme -> h^4)."""
    e1 = grid_ground_state(v_callable, hbar, m, x_max, n_points, n_levels)
    e2 = grid_ground_state(v_callable, hbar, m, x_max, 2 * n_points - 1, n_levels)
    return (4.0 * e2 - e1) / 3.0


def field_cutoff_integral(omega_cut: float, u) -> np.ndarray:
    """int_0^W w^3 cos(w u) dw from the antiderivative (for the brute force)."""
    u = np.asarray(u, dtype=np.float64)
    w = omega_cut
    out = np.empty_like(u)
    small = np.abs(u) * w < 1e-6
    out[small] = w**4 / 4
    ub = u[~small]
    out[~small] = (
        (w**3 / ub) * np.sin(w * ub)
        + (3 * w**2 / ub**2) * np.cos(w * ub)
        - (6 * w / ub**3) * np.sin(w * ub)
        - (6 / ub**4) * np.cos(w * ub)
        + 6 / ub**4
    )
    return out


def dpx_bruteforce_time_domain(scales, transitions, omega_cut: float,
                               subtract_free_particle: bool = True) -> float:
    """Time-domain double integral for the position-diffusion trace.

    transitions: list of (|x_nk|^2, omega_kn) pairs.  The response kernel
    2 sum |x|^2 sin(omega u) (minus the free-particle kernel (hbar/m) u when
    the renormalized value is wanted) is damped by the radiative envelope
    exp(-gamma u / 2) and integrated against the closed-form frequency
    integral up to T_u = 10/gamma on a fine grid; the oscillatory cutoff
    ringing is removed by averaging the running integral over the last few
    ringing periods.
    """
    m, tau, hbar, w0 = scales.m, scales.tau, scales.hbar, scales.omega0
    gamma = tau * w0**2
    t_upper = 10.0 / gamma
    du = min(2 * np.pi / omega_cut / 40.0, 2 * np.pi / w0 / 400.0)
    n = int(t_upper / du) + 1
    u = du * np.arange(n)
    kern = np.zeros_like(u)
    for x2, w_kn in transitions:
        kern += 2.0 * x2 * np.sin(w_kn * u)
    if subtract_free_particle:
        kern -= (hbar / m) * u
    integrand = (m * tau / np.pi) * np.exp(-0.5 * gamma * u) * kern * \
        field_cutoff_integral(omega_cut, u)
    running = np.cumsum((integrand[1:] + integrand[:-1]) * (du / 2.0))
    n_avg = max(2, int(round(10 * (2 * np.pi / omega_cut) / du)))
    return float(running[-n_avg:].mean())


def switch_on_energy(scales, omega_cut: float, total_time: float, times) -> np.ndarray:
    """Exact E[H(t)] for the harmonic oscillator switched on from rest.

    Per-mode response to A cos(wt + phi) from x = p = 0 is Re[e^{i phi} y_w(t)]
    with y_w built from the two damped roots; phase-averaging gives
    E[x^2] = sum A^2 |y|^2 / 2 and likewise for the velocity.
    """
    m, w0, tau, hbar = scales.m, scales.omega0, scales.tau, scales.hbar
    gam = tau * w0**2
    dw = 2 * np.pi / total_time
    w = dw * np.arange(1, int(omega_cut / dw + 1e-9) + 1)
    a2 = 2 * (m * tau * hbar / np.pi) * w**3 * dw
    w1 = w0 * np.sqrt(1 - (gam / (2 * w0)) ** 2)
    sp = -gam / 2 + 1j * w1
    sm = -gam / 2 - 1j * w1
    chi = 1.0 / (m * ((w0**2 - w**2) + 1j * gam * w))
    cp = (sm - 1j * w) / (sm - sp)
    cm = (1j * w - sp) / (sm - sp)
    out = np.empty(len(times))
    for i, t in enumerate(times):
        y = chi * (np.exp(1j * w * t) - cp * np.exp(sp * t) - cm * np.exp(sm * t))
        yd = chi * (1j * w * np.exp(1j * w * t) - cp * sp * np.exp(sp * t)
                    - cm * sm * np.exp(sm * t))
        x2 = np.sum(a2 / 2 * np.abs(y) ** 2)
        v2 = np.sum(a2 / 2 * np.abs(yd) ** 2)
        out[i] = 0.5 * m * v2 + 0.5 * m * w0**2 * x2
    return out


def dpx_raw_quad(scales, omega_cut: float) -> float:
    """Damped linear-response value of the stationary e<x E> correlator
    (harmonic force): (m tau hbar/pi) int w^3 (w0^2-w^2)/denominator dw."""
    m, w0, tau, hbar = scales.m, scales.omega0, scales.tau, scales.hbar
    coeff = m * tau * hbar / np.pi

    def integrand(w):
        return coeff * w**3 * (w0**2 - w**2) / (
            m * ((w0**2 - w**2) ** 2 + tau**2 * w0**4 * w**2)
        )

    total = 0.0
    for a, b in ((0.0, 0.9 * w0), (0.9 * w0, 1.1 * w0), (1.1 * w0, omega_cut)):
        val, _ = quad(integrand, a, b, limit=500)
        total += val
    return total


def dpx_pv_quad(tm, scales, n: int, omega_cut: float, exclusion: float | None = None,
                subtract_free_particle: bool = True) -> float:
    """D_px(n; W) by adaptive quadrature of its principal-value integral.

    (2 m tau/pi) sum_k |x_nk|^2 omega_kn PV int_0^W [w^3/(omega_kn^2 - w^2) + w] dw,
    the principal value taken by symmetric exclusion windows of half-width
    `exclusion` (default 1e-3 omega0) around each pole, Richardson-extrapolated
    to zero width.  Without the counter-term the sum rule's
    (2 m tau/pi) sum_k |x_nk|^2 omega_kn W^2/2 is removed again.
    """
    if exclusion is None:
        exclusion = 1e-3 * scales.omega0
    m, tau = scales.m, scales.tau
    omegas = tm.omegas[n]
    x2 = np.abs(tm.x_elems[n]) ** 2
    total = 0.0
    for k in np.nonzero(x2 > 1e-14)[0]:
        w_kn = omegas[k]
        if abs(w_kn) < 1e-12:
            continue
        a = abs(w_kn)

        def integrand(w, a2=w_kn**2):
            return w**3 / (a2 - w**2) + w

        def excluded(delta):
            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                v1, _ = quad(integrand, 0.0, a - delta, limit=400)
                v2, _ = quad(integrand, a + delta, omega_cut, limit=400)
            return v1 + v2

        if a > omega_cut:  # no pole in [0, W]: a plain integral
            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                pv, _ = quad(integrand, 0.0, omega_cut, limit=400)
        else:
            # symmetric-exclusion error is linear in the window width
            pv = 2.0 * excluded(exclusion / 2) - excluded(exclusion)
        total += x2[k] * w_kn * pv
    value = 2 * m * tau / np.pi * total
    if not subtract_free_particle:
        value -= 2 * m * tau / np.pi * float(np.sum(x2 * omegas)) * omega_cut**2 / 2.0
    return float(value)


def causal_convolution_direct(kernel, src, h: float) -> np.ndarray:
    """Trapezoid rule for int_0^t k(t-s) src(s) ds on a uniform grid, summed
    term by term: O(n^2)."""
    out = np.empty(src.size)
    for i in range(src.size):
        terms = kernel[i::-1] * src[: i + 1]
        out[i] = h * (terms.sum() - 0.5 * terms[0] - 0.5 * terms[-1])
    return out


def correlation_reference(realizations, lags, sample_dt: float,
                          window: tuple[float, float]):
    """empirical_correlation's estimate and jackknife error, each realization
    synthesized by its own eval_field_grid call."""
    lags = np.atleast_1d(np.asarray(lags, dtype=np.float64))
    strides = np.round(lags / sample_dt).astype(int)
    n_samp = int(np.floor((window[1] - window[0]) / sample_dt)) + 1
    t_grid = window[0] + sample_dt * np.arange(n_samp)
    per_real = np.empty((len(realizations), lags.size))
    for i, r in enumerate(realizations):
        e = eval_field_grid(r, t_grid)
        base = e[: n_samp - strides.max()]
        for j, s in enumerate(strides):
            per_real[i, j] = np.mean(base * e[s : s + base.size])
    est = per_real.mean(axis=0)
    n = per_real.shape[0]
    loo = (est * n - per_real) / (n - 1)
    se = np.sqrt((n - 1) / n * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    return strides * sample_dt, est, se


def rk4_reference(scales, force, drive_half, x0, p0, dt, n_steps, store_stride=1,
                  t0=0.0):
    """Classical RK4 of m x'' = f(x) + tau f'(x) x' + eE(t) as a numpy batch loop.

    Every member steps together, f and f' by polyval on the force's
    coefficients.  drive_half holds each member's drive at t0 + k*dt/2.
    Returns decimated (x, p, drive) like rk4_core.  Escape beyond the force's
    escape_bound is checked every step, finiteness every 256 steps and at
    the last; the batch raises EscapeError (|x| the largest one among the
    escaping members, inf for an overflow, NaN if every one is NaN) or
    IntegrationDivergedError at its first failing step.
    """
    m, tau, bound = scales.m, scales.tau, force.escape_bound
    c = np.asarray(force.coeffs, dtype=np.float64)
    cp = P.polyder(c)

    def kp(x, p, e):
        return P.polyval(x, c) + tau * P.polyval(x, cp) * (p / m) + e

    x = np.array(x0, dtype=np.float64)
    p = np.array(p0, dtype=np.float64)
    n_out = n_steps // store_stride + 1
    xs, ps, es = (np.empty((x.size, n_out)) for _ in range(3))
    xs[:, 0], ps[:, 0], es[:, 0] = x, p, drive_half[:, 0]
    k_out = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n_steps + 1):
            e0, e1, e2 = (drive_half[:, 2 * j - 2 + k] for k in range(3))
            k1x, k1p = p / m, kp(x, p, e0)
            xa, pa = x + 0.5 * dt * k1x, p + 0.5 * dt * k1p
            k2x, k2p = pa / m, kp(xa, pa, e1)
            xb, pb = x + 0.5 * dt * k2x, p + 0.5 * dt * k2p
            k3x, k3p = pb / m, kp(xb, pb, e1)
            xc, pc = x + dt * k3x, p + dt * k3p
            k4x, k4p = pc / m, kp(xc, pc, e2)
            x = x + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            p = p + (dt / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
            t_fail = t0 + j * dt
            if bound is not None and not np.all(np.abs(x) <= bound):
                worst = np.abs(x[~(np.abs(x) <= bound)])
                worst = worst[~np.isnan(worst)]
                worst = float(worst.max()) if worst.size else np.nan
                raise EscapeError(f"escape near t = {t_fail:g}", t_fail=t_fail, x=worst)
            if (j % 256 == 0 or j == n_steps) and not (
                np.all(np.isfinite(x)) and np.all(np.isfinite(p))
            ):
                raise IntegrationDivergedError(f"non-finite near t = {t_fail:g}",
                                               t_fail=t_fail)
            if j % store_stride == 0:
                xs[:, k_out], ps[:, k_out], es[:, k_out] = x, p, drive_half[:, 2 * j]
                k_out += 1
    return xs, ps, es


def rk4_affine_reference(scales, force, drive_half, x0, p0, dt, n_steps, store_stride=1):
    """The linear-force RK4 recurrence as one banded solve over all steps.

    One step is s[j] = M s[j-1] + B u[j] + c for s = (x, p) and u[j] =
    (e0, e1/2, e1); M, B and c are the images of basis states under one
    rk4_reference step.  With the states interleaved as (x1, p1, x2, p2,
    ...), s[j] - M s[j-1] = B u[j] + c is one unit lower-triangular band of
    3 subdiagonals and 2*n_steps columns, solved by BLAS dtbsv for each
    member of drive_half.  Returns (xs, ps, es, fails) as rk4_core does:
    decimated rows, NaN for a failed member, and each member's first
    failure (step, kind, |x|) or None, kind 0 an escape beyond the force's
    escape_bound and kind 1 a non-finite state.
    """
    from scipy.linalg.blas import dtbsv

    probes = np.eye(6)[:5].T
    xs1, ps1, _ = rk4_reference(scales, force, probes[:, 2:], probes[:, 0], probes[:, 1], dt, 1)
    images = np.array([(x, p) for x, p in zip(xs1[:, 1], ps1[:, 1])]).T
    c = images[:, 5]
    cols = images[:, :5] - c[:, None]
    step_map = cols[:, :2]
    weights = np.vstack([cols[:, 2:].T, c])
    band = np.zeros((4, 2 * n_steps), order="F")
    band[2, 0::2], band[3, 0::2] = -step_map[:, 0]
    band[1, 1::2], band[2, 1::2] = -step_map[:, 1]
    bound = force.escape_bound
    n_out = n_steps // store_stride + 1
    xs, ps, es = np.empty((3, len(drive_half), n_out))
    fails = []
    for row, e in enumerate(drive_half):
        inputs = np.empty((n_steps, 4))
        inputs[:, 0], inputs[:, 1], inputs[:, 2], inputs[:, 3] = e[0:-1:2], e[1::2], e[2::2], 1.0
        state = np.empty((n_steps, 2))
        np.matmul(inputs, weights, out=state)
        state[0] += step_map @ (x0[row], p0[row])
        dtbsv(3, band, state.reshape(-1), lower=1, diag=1, overwrite_x=1)
        xs[row, 0], ps[row, 0] = x0[row], p0[row]
        xs[row, 1:] = state[store_stride - 1 :: store_stride, 0]
        ps[row, 1:] = state[store_stride - 1 :: store_stride, 1]
        es[row] = e[0 : 2 * store_stride * n_out : 2 * store_stride]
        x = state[:, 0]
        escaped = ~(np.abs(x) <= bound) if bound is not None else np.zeros(n_steps, bool)
        bad = escaped | ~(np.isfinite(x) & np.isfinite(state[:, 1]))
        if not bad.any():
            fails.append(None)
            continue
        i = int(np.argmax(bad))
        fails.append((i + 1, 0, float(abs(x[i]))) if escaped[i] else (i + 1, 1, np.nan))
        xs[row] = ps[row] = es[row] = np.nan
    return xs, ps, es, fails


def hierarchy_reference(scales, force, drive_half, x0, p0, dt, n_steps, store_stride=1):
    """hierarchy_terms' RK4 over (x0, p0, x1, p1, x2, p2) as a numpy loop.

    drive_half holds the drive at k*dt/2; f and its first three derivatives
    are evaluated by polyval on the force's coefficients.  Returns the
    (6, n_steps//store_stride + 1) array of decimated states.  Finiteness is
    checked every 256 steps and at the last; a non-finite state raises
    IntegrationDivergedError at that step's time.
    """
    m, tau = scales.m, scales.tau
    c = np.asarray(force.coeffs, dtype=np.float64)
    c1 = P.polyder(c)
    c2 = P.polyder(c1)
    c3 = P.polyder(c2)

    def deriv(state, e):
        x, p, x1, p1, x2, p2 = state
        fpx = P.polyval(x, c1)
        fppx = P.polyval(x, c2)
        a0 = (P.polyval(x, c) + tau * fpx * (p / m)) / m
        a1 = (fpx * x1 + tau * (fppx * x1 * (p / m) + fpx * (p1 / m)) + e) / m
        a2 = (
            fpx * x2
            + 0.5 * fppx * x1**2
            + tau * (
                fppx * x2 * (p / m)
                + fpx * (p2 / m)
                + fppx * x1 * (p1 / m)
                + 0.5 * P.polyval(x, c3) * x1**2 * (p / m)
            )
        ) / m
        return np.array([p / m, m * a0, p1 / m, m * a1, p2 / m, m * a2])

    state = np.array([x0, p0, 0.0, 0.0, 0.0, 0.0])
    n_out = n_steps // store_stride + 1
    out = np.empty((6, n_out))
    out[:, 0] = state
    k_out = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            e0, e1, e2 = drive_half[2 * j], drive_half[2 * j + 1], drive_half[2 * j + 2]
            k1 = deriv(state, e0)
            k2 = deriv(state + 0.5 * dt * k1, e1)
            k3 = deriv(state + 0.5 * dt * k2, e1)
            k4 = deriv(state + dt * k3, e2)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if (j + 1) % store_stride == 0:
                out[:, k_out] = state
                k_out += 1
            if ((j + 1) % 256 == 0 or j == n_steps - 1) and not np.all(np.isfinite(state)):
                raise IntegrationDivergedError(
                    f"non-finite hierarchy state near t = {(j + 1) * dt:g}",
                    t_fail=(j + 1) * dt,
                )
    return out


# ---------------------------------------------------------------------------
# ensemble statistics as whole-plane formulas
# ---------------------------------------------------------------------------


def _finite(x):
    return np.all(np.isfinite(x), axis=1)


def _mean_se(values):
    return values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(len(values))


def moment_curves_reference(report) -> dict:
    """moment_curves' curves, each a mean over copies of the finite
    members' whole rows with its i.i.d. standard error."""
    ok = _finite(report.x)
    x, p = report.x[ok], report.p[ok]
    h = p**2 / (2 * report.config.scales.m) + report.config.force.potential(x)
    return {"x": _mean_se(x), "p": _mean_se(p), "x2": _mean_se(x**2),
            "p2": _mean_se(p**2), "H": _mean_se(h)}


def diffusion_reference(report) -> dict:
    """estimate_diffusion's (mean, standard error) of x E and p E over
    copies of the finite members' whole rows."""
    ok = _finite(report.x)
    x, p, e = report.x[ok], report.p[ok], report.drive[ok]
    return {"dpx": _mean_se(x * e), "dpp": _mean_se(p * e)}


def memory_delta_reference(report) -> np.ndarray:
    """memory_loss's Delta(t) = |<x>_A - <x>_B| over copies of the rows of
    the pairs whose two members are both finite."""
    xa, xb = report.x[0::2], report.x[1::2]
    ok = _finite(xa) & _finite(xb)
    return np.abs(xa[ok].mean(axis=0) - xb[ok].mean(axis=0))


def _stationary_window(report, *planes):
    """Each plane's finite members' rows over the default stationary window
    (burn_in, t_span), copied in column-major order, and the window's times."""
    cfg = report.config
    sl = (report.t >= cfg.burn_in - 1e-12) & (report.t <= cfg.t_span + 1e-12)
    ok = _finite(report.x)
    cut = sl if ok.all() else np.ix_(sl, ok)
    return report.t[sl], [plane.T[cut].T for plane in planes]


def balance_reference(report) -> dict:
    """measure_balance's flows over the default window as whole-window
    formulas: per-member time averages of every member at once, then the
    mean over the members and its i.i.d. standard error."""
    t, (x, p, e) = _stationary_window(report, report.x, report.p, report.drive)
    cfg = report.config
    m, tau = cfg.scales.m, cfg.scales.tau
    rad_i = (tau / m * cfg.force.fp(x) * p * (p / m)).mean(axis=1)
    abs_i = (p * e).mean(axis=1) / m
    h_series = p**2 / (2 * m) + cfg.force.potential(x)
    tc = t - t.mean()
    drift_i = (h_series * tc).sum(axis=1) / (tc**2).sum()
    out = {}
    for name, values in (("radiated", rad_i), ("absorbed", abs_i), ("net_drift", drift_i)):
        out[name], out[f"{name}_se"] = map(float, _mean_se(values))
    return out


def envelope_reference(report) -> tuple:
    """power_spectrum's envelope over the default window: the autocorrelation
    of x, averaged over every member's zero-padded periodogram at once and
    corrected for the triangular bias, and the fwhm, twice the decay rate
    fitted to the log of its peaks over lags from one period to 4
    energy-decay times (at most 0.8 of the window)."""
    _, (x,) = _stationary_window(report, report.x)
    cfg = report.config
    n, L = x.shape
    dts = report.t[1] - report.t[0]
    nfft = 1 << int(np.ceil(np.log2(2 * L)))
    spec = np.fft.rfft(x, nfft, axis=1)
    ac = np.fft.irfft((np.abs(spec) ** 2).mean(axis=0), nfft)[:L] / L
    ac = ac / (1.0 - np.arange(L) / L)
    u = dts * np.arange(L)
    inside = (u >= 2 * np.pi / cfg.omega) & (u <= min(4.0 * cfg.energy_decay_time, 0.8 * u[-1]))
    peaks = np.flatnonzero((np.abs(ac[1:-1]) > np.abs(ac[:-2]))
                           & (np.abs(ac[1:-1]) >= np.abs(ac[2:]))) + 1
    peaks = peaks[inside[peaks] & (ac[peaks] != 0)]
    return ac, float(2.0 * -np.polyfit(u[peaks], np.log(np.abs(ac[peaks])), 1)[0])
