"""Equation-of-motion integration and the perturbative response hierarchy.

The equation integrated is the order-reduced form

    m x'' = f(x) + tau f'(x) x' + eE(t),

where the third-derivative radiation-reaction term has been replaced by
tau df/dt; this removes runaway solutions while keeping the damping rate
gamma = tau f'(x*)/(-m) about a stable equilibrium x*.

The integrator is a fixed-step classical 4th-order Runge-Kutta scheme.  The
drive is pre-synthesized on a half-step grid so the midpoint stages use exact
field samples; no interpolation error enters and runs are reproducible
bit-for-bit from (config, seed).

Nonlinear forces use a step loop that runs one member at a time on Python
floats.  It performs numpy's float64 operations in numpy's order, so it is
bit-identical to a vectorized numpy loop over the batch, and a member's
trajectory never depends on the other members of its batch.  For a linear
force (the harmonic reference included) one RK4 step is an affine map of
(x, p), read off that same step loop, so the same discretization is run as
an exact linear recurrence in the eigenbasis of the map instead; it agrees
with the loop to rounding (about 1e-12 relative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve, lfilter

from .errors import ConfigurationError, EscapeError, IntegrationDivergedError
from .forces import ForceModel
from .zpf import PhysicalScales, ZpfRealization, eval_field_grid

__all__ = [
    "Trajectory",
    "GreensFunction",
    "integrate_trajectory",
    "zeroth_order",
    "greens_function",
    "first_order_response",
    "second_order_response",
    "hierarchy_terms",
]

_MAX_DT_OMEGA_CUT = 0.35  # >= 18 steps per period of the fastest mode
_MAX_DT_OMEGA0 = 0.05
_CHECK_EVERY = 256  # finiteness check cadence of the step loop
_MAX_EIGVEC_COND = 1e4  # beyond it M is left to the step loop (near a Jordan block)


@dataclass(frozen=True)
class Trajectory:
    """Sampled (t, x, p, eE) series from one integration."""

    t0: float
    dt: float
    x: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    drive: np.ndarray | None = field(repr=False, default=None)
    meta: dict = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.x.size)

    def energy(self, force: ForceModel, m: float) -> np.ndarray:
        return self.p**2 / (2 * m) + force.potential(self.x)


def _validate_step(scales: PhysicalScales, dt: float, omega_cut: float | None):
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    if dt * scales.omega0 > _MAX_DT_OMEGA0 * (1 + 1e-12):
        raise ConfigurationError(
            f"dt*omega0 = {dt * scales.omega0:g} exceeds {_MAX_DT_OMEGA0}"
        )
    if omega_cut is not None and dt * omega_cut > _MAX_DT_OMEGA_CUT * (1 + 1e-12):
        raise ConfigurationError(
            f"dt*omega_cut = {dt * omega_cut:g} exceeds {_MAX_DT_OMEGA_CUT}"
        )


def synthesize_drive(
    realization: ZpfRealization | None, t0: float, dt: float, n_steps: int
) -> np.ndarray:
    """Drive samples on the half-step grid t0 + k*dt/2, k = 0..2*n_steps."""
    if realization is None:
        return np.zeros(2 * n_steps + 1)
    grid = t0 + 0.5 * dt * np.arange(2 * n_steps + 1)
    return eval_field_grid(realization, grid)


def _n_steps(t_span: float, dt: float) -> int:
    """Number of dt steps in t_span; rejects spans that are not a whole number."""
    n_steps = int(round(t_span / dt))
    if n_steps < 1 or abs(n_steps * dt - t_span) > 1e-9 * max(1.0, t_span):
        raise ConfigurationError("t_span must be a whole number of steps")
    return n_steps


def _validate_stride(store_stride: int):
    if store_stride < 1:
        raise ConfigurationError(f"store_stride must be >= 1, got {store_stride}")


def rk4_core(
    scales: PhysicalScales,
    force: ForceModel,
    drive_half: np.ndarray,
    x0: np.ndarray,
    p0: np.ndarray,
    dt: float,
    n_steps: int,
    store_stride: int = 1,
    t0: float = 0.0,
):
    """Classical RK4 over a batch of trajectories sharing (force, dt).

    drive_half has shape (batch, 2*n_steps+1).  Returns decimated (x, p,
    drive) arrays of shape (batch, n_steps//store_stride + 1).  Raises
    EscapeError at the first step where |x| leaves the force model's bound,
    and IntegrationDivergedError on a non-finite state; a batch raises at
    its earliest failure.  Members are independent: a member's row does not
    depend on the rest of its batch.

    A linear force makes the RK4 step an affine map of the state, which is
    run as an exact recurrence (_rk4_affine); other forces, and linear ones
    whose map is too close to a Jordan block, step in a loop (_rk4_loop),
    which checks finiteness every _CHECK_EVERY steps.
    """
    _validate_stride(store_stride)
    if not np.any(force._c2):
        out = _rk4_affine(scales, force, drive_half, x0, p0, dt, n_steps,
                          store_stride, t0)
        if out is not None:
            return out
    return _rk4_loop(scales, force, drive_half, x0, p0, dt, n_steps,
                     store_stride, t0)


def _rk4_lane(fm: ForceModel, m: float, tau: float, dt: float, bound, x: float,
              p: float, e: list, n_steps: int, store_stride: int, stop: int):
    """Classical RK4 of the order-reduced equation for one member, on floats.

    e holds the member's drive on the half-step grid, so step j uses
    e[2j-2], e[2j-1] (both midpoint stages) and e[2j].  Steps 1..stop of
    n_steps are run; the state after every store_stride-th step is kept.
    Returns (xs, ps, fail), xs and ps starting with the initial state and
    fail None or the member's first failure (step, kind, |x|): kind 0 an
    escape beyond `bound` (None for no bound), checked every step, kind 1 a
    non-finite state, checked every _CHECK_EVERY steps and at step n_steps.

    f and f' are evaluated by one Horner loop over coefficient pairs, f'
    padded with a zero at the top power, in the order of operations of
    np.polynomial.polynomial.polyval (acc = c[-1] + x*0, then
    acc = c[k] + acc*x); each slope is k_p = f + tau f' (p/m) + e with
    p/m = k_x.  Python floats add, multiply and divide as numpy's float64
    does, so the result is bit-identical to a numpy evaluation of the same
    expressions.
    """
    pairs = list(zip([float(c) for c in fm._c0[::-1]],
                     [0.0] + [float(c) for c in fm._c1[::-1]]))
    (cf, cg), rest = pairs[0], pairs[1:]
    half = 0.5 * dt
    sixth = dt / 6.0
    xs, ps = [x], [p]
    for j in range(1, stop + 1):
        e0, e1, e2 = e[2 * j - 2], e[2 * j - 1], e[2 * j]
        z = x * 0
        f, g = cf + z, cg + z
        for a, b in rest:
            f, g = a + f * x, b + g * x
        k1x = p / m
        k1p = f + tau * g * k1x + e0
        xa = x + half * k1x
        pa = p + half * k1p
        z = xa * 0
        f, g = cf + z, cg + z
        for a, b in rest:
            f, g = a + f * xa, b + g * xa
        k2x = pa / m
        k2p = f + tau * g * k2x + e1
        xb = x + half * k2x
        pb = p + half * k2p
        z = xb * 0
        f, g = cf + z, cg + z
        for a, b in rest:
            f, g = a + f * xb, b + g * xb
        k3x = pb / m
        k3p = f + tau * g * k3x + e1
        xc = x + dt * k3x
        pc = p + dt * k3p
        z = xc * 0
        f, g = cf + z, cg + z
        for a, b in rest:
            f, g = a + f * xc, b + g * xc
        k4x = pc / m
        k4p = f + tau * g * k4x + e2
        x = x + sixth * (k1x + 2 * k2x + 2 * k3x + k4x)
        p = p + sixth * (k1p + 2 * k2p + 2 * k3p + k4p)
        if bound is not None and not abs(x) <= bound:
            return xs, ps, (j, 0, abs(x) if math.isfinite(x) else math.nan)
        if j % _CHECK_EVERY == 0 or j == n_steps:
            if not (math.isfinite(x) and math.isfinite(p)):
                return xs, ps, (j, 1, math.nan)
        if j % store_stride == 0:
            xs.append(x)
            ps.append(p)
    return xs, ps, None


def _rk4_loop(scales, force, drive_half, x0, p0, dt, n_steps, store_stride, t0):
    """rk4_core as an explicit step loop, for any force; the reference path.

    Members step one at a time (_rk4_lane); once one has failed, the rest
    stop at its step, which is as far as they can still change the batch's
    earliest failure.
    """
    n_out = n_steps // store_stride + 1
    xs = np.empty((len(x0), n_out))
    ps = np.empty((len(x0), n_out))
    es = drive_half[:, 0 : 2 * store_stride * n_out : 2 * store_stride].copy()
    starts = zip(np.asarray(x0, dtype=np.float64).tolist(),
                 np.asarray(p0, dtype=np.float64).tolist())
    fail = None  # (step, kind, |x|) of the earliest failure in the batch
    for row, (x, p) in enumerate(starts):
        stop = n_steps if fail is None else fail[0]
        xr, pr, first = _rk4_lane(force, scales.m, scales.tau, dt, force.escape_bound,
                                  x, p, drive_half[row].tolist(), n_steps,
                                  store_stride, stop)
        fail = _earlier(fail, first)
        if fail is None:
            xs[row], ps[row] = xr, pr
    _raise_failure(fail, force.escape_bound, t0, dt)
    return xs, ps, es


def _raise_escape(bound: float, t_fail: float, worst: float):
    raise EscapeError(
        f"|x| = {worst:g} beyond the confinement bound {bound:g} near t = {t_fail:g}",
        t_fail=t_fail,
        x=worst,
    )


def _raise_diverged(t_fail: float):
    raise IntegrationDivergedError(f"non-finite state near t = {t_fail:g}", t_fail=t_fail)


def _raise_failure(fail, bound, t0: float, dt: float):
    """Raise the batch's earliest failure, if any, at its time t0 + step*dt."""
    if fail is None:
        return
    step, kind, worst = fail
    if kind == 0:
        _raise_escape(bound, t0 + step * dt, worst)
    _raise_diverged(t0 + step * dt)


def _rk4_affine(scales, force, drive_half, x0, p0, dt, n_steps, store_stride, t0):
    """rk4_core for a linear force, as the exact recurrence of the RK4 map.

    With f linear, one step is s' = M s + B (e0, e1/2, e1) + c for s = (x, p).
    M, B and c are read off one _rk4_lane step from basis states, so this is
    the same discretization as the loop, with rounding in another order.  In
    the eigenbasis of M the recurrence splits into two first-order filters,
    run by lfilter one member at a time.  Returns None, leaving the batch to
    the loop, when M is too close to a Jordan block to diagonalize accurately.
    """
    # probe column k sets the k-th of (x, p, e0, e1/2, e1) to one; the last
    # probe is the zero state, whose image is c
    images = []
    for x, p, *e in np.eye(6)[:5].T.tolist():
        xs, ps, _ = _rk4_lane(force, scales.m, scales.tau, dt, None, x, p, e, 1, 1, 1)
        images.append((xs[1], ps[1]))
    images = np.array(images).T
    c = images[:, 5]
    cols = images[:, :5] - c[:, None]  # [M | B]
    lam, vec = np.linalg.eig(cols[:, :2])
    if np.linalg.cond(vec) > _MAX_EIGVEC_COND:
        return None
    vinv = np.linalg.inv(vec)
    gain = vinv @ cols[:, 2:]  # modal weights of (e0, e1/2, e1)
    offset = vinv @ c
    bound = force.escape_bound
    n_out = n_steps // store_stride + 1
    xs = np.empty((len(x0), n_out))
    ps = np.empty((len(x0), n_out))
    xs[:, 0], ps[:, 0] = x0, p0
    es = drive_half[:, 0 : 2 * store_stride * n_out : 2 * store_stride].copy()
    fail = None  # (step, kind, |x|) of the earliest failure in the batch
    with np.errstate(over="ignore", invalid="ignore"):
        for row in range(len(x0)):
            e = drive_half[row]
            w = gain @ np.array([e[0:-1:2], e[1::2], e[2::2]]) + offset[:, None]
            z0 = vinv @ np.array([xs[row, 0], ps[row, 0]])
            z = np.array([
                lfilter([1.0], [1.0, -lam[k]], w[k], zi=[lam[k] * z0[k]])[0]
                for k in range(2)
            ])
            state = (vec @ z).real  # (x, p) after steps 1..n_steps
            fail = _earlier(fail, _first_failure(state, bound))
            xs[row, 1:] = state[0, store_stride - 1 :: store_stride]
            ps[row, 1:] = state[1, store_stride - 1 :: store_stride]
    _raise_failure(fail, bound, t0, dt)
    return xs, ps, es


def _first_failure(state, bound):
    """One member's first failure (step, kind, |x|) in its (x, p) series.

    Returns None when there is none; kind 0 is an escape and 1 a non-finite
    state, as the loop orders them at one step.
    """
    x = state[0]
    bad = ~np.all(np.isfinite(state), axis=0)
    if bound is not None:
        bad |= ~(np.abs(x) <= bound)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    kind = 0 if bound is not None and not abs(x[i]) <= bound else 1
    return i + 1, kind, abs(x[i]) if np.isfinite(x[i]) else np.nan


def _earlier(fail, first):
    """Fold one member's first failure into the batch's earliest one.

    Failures order by (step, kind); the reported |x| of an escape is the
    largest finite one among the members escaping at that step.
    """
    if first is None:
        return fail
    if fail is None or first[:2] < fail[:2]:
        return first
    if first[:2] == fail[:2]:
        return (*fail[:2], float(np.fmax(fail[2], first[2])))
    return fail


def integrate_trajectory(
    scales: PhysicalScales,
    force: ForceModel,
    realization: ZpfRealization | None,
    x0: float,
    p0: float,
    t_span: float,
    dt: float,
    store_stride: int = 1,
    t0: float = 0.0,
) -> Trajectory:
    """Integrate m x'' = f(x) + tau f'(x) x' + eE(t) with classical RK4.

    With realization None the drive term is zero.  The field is synthesized
    once on the dt/2 grid, so midpoint stages are exact.
    """
    omega_cut = realization.mode_set.omega_cut if realization is not None else None
    _validate_step(scales, dt, omega_cut)
    n_steps = _n_steps(t_span, dt)
    _validate_stride(store_stride)
    drive = synthesize_drive(realization, t0, dt, n_steps)
    xs, ps, es = rk4_core(
        scales, force, drive[None, :], np.array([x0]), np.array([p0]),
        dt, n_steps, store_stride, t0,
    )
    meta = {
        "scales": scales.to_dict(),
        "force": force.to_dict(),
        "seed": None if realization is None else realization.seed,
        "x0": x0,
        "p0": p0,
    }
    return Trajectory(t0=t0, dt=dt * store_stride, x=xs[0], p=ps[0],
                      drive=es[0], meta=meta)


def zeroth_order(
    scales: PhysicalScales,
    force: ForceModel,
    x0: float,
    p0: float,
    t_span: float,
    dt: float,
    store_stride: int = 1,
) -> Trajectory:
    """Deterministic motion with the drive off; decays on the dissipation time."""
    return integrate_trajectory(
        scales, force, None, x0, p0, t_span, dt, store_stride=store_stride
    )


# ---------------------------------------------------------------------------
# linear-response kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreensFunction:
    """Response kernel of the motion linearized about the stable equilibrium.

    bare:   g(u) = sin(Omega u) / (m Omega)               (no damping)
    damped: g(u) = exp(-gamma u/2) sin(w1 u) / (m w1),    w1 = sqrt(Omega^2 - gamma^2/4)

    Both satisfy g(0) = 0 and g'(0+) = 1/m.  The bare kernel is only accurate
    for times well below the dissipation time 2/gamma; the damped kernel is
    uniformly valid for the linearized motion.
    """

    kind: str
    m: float
    omega: float  # linearization (curvature) frequency Omega
    gamma: float  # amplitude damping rate tau*Omega^2 (0 for bare)

    @property
    def omega1(self) -> float:
        return float(np.sqrt(self.omega**2 - (self.gamma / 2.0) ** 2))

    def g(self, u):
        u = np.asarray(u, dtype=np.float64)
        w1 = self.omega1
        out = np.sin(w1 * u) / (self.m * w1)
        if self.gamma:
            out = out * np.exp(-0.5 * self.gamma * u)
        return np.where(u >= 0, out, 0.0)

    def gdot(self, u):
        u = np.asarray(u, dtype=np.float64)
        w1 = self.omega1
        if self.gamma:
            env = np.exp(-0.5 * self.gamma * u)
            out = env * (np.cos(w1 * u) / self.m
                         - 0.5 * self.gamma * np.sin(w1 * u) / (self.m * w1))
        else:
            out = np.cos(w1 * u) / self.m
        return np.where(u >= 0, out, 0.0)


def greens_function(
    scales: PhysicalScales, force: ForceModel, kind: str = "damped"
) -> GreensFunction:
    """Kernel for the motion linearized about the unique stable equilibrium.

    Rejects force models without a unique stable equilibrium.  For harmonic
    forces Omega = omega0 and the textbook forms are recovered exactly.
    """
    if kind not in ("bare", "damped"):
        raise ConfigurationError(f"unknown kernel kind '{kind}'")
    omega = force.curvature_frequency(scales.m)  # raises if not unique/stable
    gamma = scales.tau * omega**2 if kind == "damped" else 0.0
    if gamma >= 2 * omega:
        raise ConfigurationError("overdamped linearization is out of scope")
    return GreensFunction(kind=kind, m=scales.m, omega=omega, gamma=gamma)


def _causal_convolution(kernel: np.ndarray, src: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid-rule causal convolution int_0^t k(t-s) src(s) ds on a uniform grid."""
    full = fftconvolve(kernel, src)[: src.size]
    return h * (full - 0.5 * kernel * src[0] - 0.5 * kernel[0] * src)


def first_order_response(
    greens: GreensFunction,
    realization: ZpfRealization,
    t_grid: np.ndarray,
):
    """Field-driven response x1(t) = int_t0^t g(t-s) eE(s) ds and p1 = m dx1/dt.

    The convolution lower limit is the first grid point (finite-past
    truncation); start from a quiescent state and discard a burn-in before
    using the output for stationary statistics.  Computed by the trapezoid
    rule on the field grid via FFT convolution.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size < 2:
        raise ConfigurationError("t_grid must contain at least two points")
    steps = np.diff(t_grid)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ConfigurationError("t_grid must be uniform")
    if t_grid[-1] - t_grid[0] > realization.mode_set.recurrence_time * (1 + 1e-9):
        raise ConfigurationError("t_grid exceeds the realization's non-recurrence window")
    e = eval_field_grid(realization, t_grid)
    u = h * np.arange(t_grid.size)
    x1 = _causal_convolution(greens.g(u), e, h)
    p1 = greens.m * _causal_convolution(greens.gdot(u), e, h)
    return x1, p1


def second_order_response(
    greens: GreensFunction,
    force: ForceModel,
    x_zero: np.ndarray,
    x_one: np.ndarray,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Second-order term: x2(t) = int g(t-s) * (1/2) f''(x0(s)) x1(s)^2 ds.

    The quadratic source is propagated by the same linearized kernel. For
    forces with f'' = 0 everywhere (harmonic) the result is identically zero.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    x_zero = np.asarray(x_zero, dtype=np.float64)
    x_one = np.asarray(x_one, dtype=np.float64)
    if not (t_grid.size == x_zero.size == x_one.size):
        raise ConfigurationError("t_grid, x_zero and x_one must share one grid")
    steps = np.diff(t_grid)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ConfigurationError("t_grid must be uniform")
    src = 0.5 * force.fpp(x_zero) * x_one**2
    u = h * np.arange(t_grid.size)
    return _causal_convolution(greens.g(u), src, h)


# ---------------------------------------------------------------------------
# exact variational hierarchy
# ---------------------------------------------------------------------------


def hierarchy_terms(
    scales: PhysicalScales,
    force: ForceModel,
    realization: ZpfRealization,
    x0: float,
    p0: float,
    t_span: float,
    dt: float,
    store_stride: int = 1,
):
    """Exact drive-amplitude expansion of the order-reduced equation.

    Integrates the zeroth-order motion together with its first and second
    variations with respect to the drive amplitude (linearization is about
    the instantaneous x0(t), damping terms included), so that

        x_full(eps) = x0 + eps*x1 + eps^2*x2 + O(eps^3)

    holds exactly for the integrated equation.  Returns a dict of decimated
    series x0, p0, x1, p1, x2, p2 plus the time grid.  Used to verify the
    cubic scaling of the hierarchy residual for anharmonic forces.
    """
    omega_cut = realization.mode_set.omega_cut
    _validate_step(scales, dt, omega_cut)
    n_steps = _n_steps(t_span, dt)
    _validate_stride(store_stride)
    drive = synthesize_drive(realization, 0.0, dt, n_steps)
    m, tau = scales.m, scales.tau
    fm = force

    def deriv(state, e):
        x, p, x1, p1, x2, p2 = state
        fpx = fm.fp(x)
        fppx = fm.fpp(x)
        a0 = (fm.f(x) + tau * fpx * (p / m)) / m
        a1 = (fpx * x1 + tau * (fppx * x1 * (p / m) + fpx * (p1 / m)) + e) / m
        a2 = (
            fpx * x2
            + 0.5 * fppx * x1**2
            + tau * (
                fppx * x2 * (p / m)
                + fpx * (p2 / m)
                + fppx * x1 * (p1 / m)
                + 0.5 * fm.fppp(x) * x1**2 * (p / m)
            )
        ) / m
        return np.array([p / m, m * a0, p1 / m, m * a1, p2 / m, m * a2])

    state = np.array([x0, p0, 0.0, 0.0, 0.0, 0.0])
    n_out = n_steps // store_stride + 1
    out = np.empty((6, n_out))
    out[:, 0] = state
    k_out = 1
    # overflow in a diverging run is reported via IntegrationDivergedError,
    # not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            e0, e1, e2 = drive[2 * j], drive[2 * j + 1], drive[2 * j + 2]
            k1 = deriv(state, e0)
            k2 = deriv(state + 0.5 * dt * k1, e1)
            k3 = deriv(state + 0.5 * dt * k2, e1)
            k4 = deriv(state + dt * k3, e2)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if (j + 1) % store_stride == 0:
                out[:, k_out] = state
                k_out += 1
            if ((j + 1) % _CHECK_EVERY == 0 or j == n_steps - 1) and not np.all(
                np.isfinite(state)
            ):
                raise IntegrationDivergedError(
                    f"non-finite hierarchy state near t = {(j + 1) * dt:g}",
                    t_fail=(j + 1) * dt,
                )
    t = dt * store_stride * np.arange(n_out)
    return {
        "t": t,
        "x0": out[0], "p0": out[1],
        "x1": out[2], "p1": out[3],
        "x2": out[4], "p2": out[5],
    }
