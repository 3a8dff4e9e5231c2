"""Independent oracles for the test suite.

Everything here is deliberately primitive (quadrature, finite differences,
grid eigensolvers, brute-force time integrals) and shares no code with the
library paths it checks.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from sedlab.errors import EscapeError, IntegrationDivergedError


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


def rk4_reference(scales, force, drive_half, x0, p0, dt, n_steps, store_stride=1,
                  t0=0.0):
    """Classical RK4 of m x'' = f(x) + tau f'(x) x' + eE(t) as a numpy batch loop.

    Every member steps together, f and f' by polyval on the force's
    coefficients.  drive_half holds each member's drive at t0 + k*dt/2.
    Returns decimated (x, p, drive) like rk4_core.  Escape beyond the force's
    escape_bound is checked every step, finiteness every 256 steps and at
    the last; the batch raises EscapeError (|x| the largest finite one
    among the escaping members, NaN if none) or IntegrationDivergedError at
    its first failing step.
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
                worst = worst[np.isfinite(worst)]
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
