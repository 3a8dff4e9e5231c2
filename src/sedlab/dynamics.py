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
one real banded triangular solve over all steps instead; it agrees with the
loop to rounding (about 1e-12 relative).  The variational hierarchy
(hierarchy_terms) steps its six variables on Python floats the same way,
bit-identical to a numpy loop of the same expressions.

Every path reports a failure per member, as a record (step, kind, |x|) or
None: kind 0 an escape beyond the force's bound, kind 1 a non-finite
state.  Nothing folds a batch's records into one; integrate_trajectory and
hierarchy_terms raise their one member's record through _raise.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtbsv

from .errors import (
    ConfigurationError,
    EscapeError,
    IntegrationDivergedError,
    ResourceLimitError,
)
from .forces import ForceModel
from .zpf import PhysicalScales, ZpfRealization, _grid_synthesizer, eval_field_grid

__all__ = [
    "Trajectory",
    "GreensFunction",
    "integrate_trajectory",
    "greens_function",
    "first_order_response",
    "hierarchy_terms",
]

_MAX_DT_OMEGA_CUT = 0.35  # >= 18 steps per period of the fastest mode
_MAX_DT_OMEGA0 = 0.05
_CHECK_EVERY = 256  # finiteness check cadence of the step loop
# hard limit on the steps of one integration: its half-step drive of
# 2*MAX_STEPS + 1 float64 samples takes 1.6 GB
MAX_STEPS = 100_000_000


@dataclass(frozen=True)
class Trajectory:
    """Sampled (t, x, p, eE) series from one integration."""

    dt: float
    x: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    drive: np.ndarray = field(repr=False)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.x.size)


def _validate_step(scales: PhysicalScales, force: ForceModel, dt: float,
                   omega_cut: float | None):
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    # the force's own restoring stiffness over scales.m: its factories take
    # their own m, so omega0 alone need not be the integrated frequency
    omega = max(scales.omega0, math.sqrt(max(0.0, -float(force.coeffs[1])) / scales.m))
    if dt * omega > _MAX_DT_OMEGA0 * (1 + 1e-12):
        raise ConfigurationError(f"dt*omega = {dt * omega:g} exceeds {_MAX_DT_OMEGA0}, "
                                 f"omega = max(omega0, sqrt(-f'(0)/m))")
    if omega_cut is not None and dt * omega_cut > _MAX_DT_OMEGA_CUT * (1 + 1e-12):
        raise ConfigurationError(
            f"dt*omega_cut = {dt * omega_cut:g} exceeds {_MAX_DT_OMEGA_CUT}"
        )


def synthesize_drive(realization: ZpfRealization | None, dt: float, n_steps: int) -> np.ndarray:
    """Drive samples on the half-step grid k*dt/2, k = 0..2*n_steps.

    dt/2 must lie on the realization's comb (see eval_field_grid): for a
    comb built for these n_steps steps, 2*oversample*n_steps must be whole.
    """
    if realization is None:
        return np.zeros(2 * n_steps + 1)
    synth = _grid_synthesizer(realization.mode_set, 0.0, 0.5 * dt, 2 * n_steps + 1,
                              "drive step dt/2")
    return synth(realization)


def _n_steps(t_span: float, dt: float) -> int:
    """Number of dt steps in t_span; rejects spans that are not a whole number."""
    steps = t_span / dt  # checked on floats: a count past the limit may not fit an int
    if steps > MAX_STEPS:
        raise ResourceLimitError(
            f"step count {steps:.4g} (t_span/dt) exceeds the configured hard limit {MAX_STEPS}"
        )
    n_steps = int(round(steps))
    if n_steps < 1 or abs(n_steps * dt - t_span) > 1e-9 * max(1.0, t_span):
        raise ConfigurationError("t_span must be a whole number of steps")
    return n_steps


def _validate_stride(store_stride: int):
    if store_stride < 1:
        raise ConfigurationError(f"store_stride must be >= 1, got {store_stride}")


_last = threading.local()  # rk4_core's last integrator in each thread, and its key


def rk4_core(scales: PhysicalScales, force: ForceModel, drive_half, x0: np.ndarray,
             p0: np.ndarray, dt: float, n_steps: int, store_stride: int = 1, out=None):
    """Classical RK4 over a batch of trajectories sharing (force, dt).

    drive_half yields the members' drives, 1-D arrays of 2*n_steps+1
    half-step samples (a 2-D array yields its rows), read one at a time.
    The decimated x, p and drive fill the planes of `out` (fresh ones if
    None), of shape (batch, n_steps//store_stride + 1).  Returns (xs, ps,
    es, fails), fails holding each member's first failure (step, kind, |x|)
    or None: kind 0 an escape of |x| beyond the force model's bound, checked
    every step, kind 1 a non-finite state.  Nothing is raised: every member
    runs to its own first failure, and a failed member's rows are NaN.
    Members are independent: a member's rows and record do not depend on
    the rest of its batch.

    A linear force makes the RK4 step an affine map of the state, solved as
    one banded system (_rk4_affine); every other force steps in a loop
    (_rk4_loop) that checks finiteness every _CHECK_EVERY steps.  Each
    thread keeps the last one set up, with the banded solve's buffers (7
    drives' bytes), until a call with other arguments: a caller may pass
    one member per call, while the setup costs 2/3 of one member's solve.
    """
    _validate_stride(store_stride)
    n_out = n_steps // store_stride + 1
    xs, ps, es = np.empty((3, len(x0), n_out)) if out is None else out
    key = (scales, force, dt, n_steps, store_stride)
    if getattr(_last, "key", None) != key:
        _last.run = (_rk4_affine if force.is_linear() else _rk4_loop)(*key)
        _last.key = key
    integrate = _last.run
    need = f"drive_half must yield len(x0) = {len(x0)} drives of {2 * n_steps + 1} samples"
    fails = []
    for row, e in enumerate(drive_half):
        e = np.ascontiguousarray(e, dtype=np.float64)
        if row == len(x0) or e.shape != (2 * n_steps + 1,):
            raise ConfigurationError(f"{need}; drive {row} has shape {e.shape}")
        xs[row, 0], ps[row, 0] = x0[row], p0[row]
        es[row] = e[0 : 2 * store_stride * n_out : 2 * store_stride]
        fails.append(integrate(e, xs[row], ps[row]))
        if fails[-1] is not None:
            xs[row] = ps[row] = es[row] = np.nan
    if len(fails) < len(x0):
        raise ConfigurationError(f"{need}; got {len(fails)}")
    return xs, ps, es, fails


def _rk4_lane(fm: ForceModel, m: float, tau: float, dt: float, bound, x: float,
              p: float, e, n_steps: int, store_stride: int):
    """Classical RK4 of the order-reduced equation for one member, on floats.

    e holds the member's drive on the half-step grid, so step j uses
    e[2j-2], e[2j-1] (both midpoint stages) and e[2j].  Steps 1..n_steps
    are run up to the first failure; the state after every
    store_stride-th step is kept.
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
    for j in range(1, n_steps + 1):
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
            return xs, ps, (j, 0, abs(x))
        if j % _CHECK_EVERY == 0 or j == n_steps:
            if not (math.isfinite(x) and math.isfinite(p)):
                return xs, ps, (j, 1, math.nan)
        if j % store_stride == 0:
            xs.append(x)
            ps.append(p)
    return xs, ps, None


def _rk4_loop(scales, force, dt, n_steps, store_stride):
    """rk4_core's integration as an explicit step loop, for any force.

    Returns run(e, xs, ps), which steps one member (_rk4_lane) from xs[0],
    ps[0] over its drive e, read as Python floats through a memoryview, to
    its first failure; fills xs and ps unless it fails; and returns the
    failure record.
    """
    def run(e, xs, ps):
        xr, pr, fail = _rk4_lane(force, scales.m, scales.tau, dt, force.escape_bound,
                                 float(xs[0]), float(ps[0]), memoryview(e), n_steps,
                                 store_stride)
        if fail is None:
            xs[:], ps[:] = xr, pr
        return fail

    return run


def _raise(fail, bound, dt: float):
    """Raise one member's failure record (step, kind, |x|) at its time
    step*dt: EscapeError for kind 0, IntegrationDivergedError for kind 1.
    None raises nothing."""
    if fail is None:
        return
    step, kind, worst = fail
    t_fail = step * dt
    if kind == 0:
        raise EscapeError(f"|x| = {worst:g} beyond the confinement bound {bound:g} "
                          f"near t = {t_fail:g}", t_fail=t_fail, x=worst)
    raise IntegrationDivergedError(f"non-finite state near t = {t_fail:g}", t_fail=t_fail)


def _rk4_affine(scales, force, dt, n_steps, store_stride):
    """rk4_core's integration for a linear force, as one banded solve of the
    RK4 recurrence per member; returns run(e, xs, ps) as _rk4_loop does.

    With f linear, one step is s[j] = M s[j-1] + B u[j] + c for s = (x, p)
    and u[j] = (e0, e1/2, e1) of step j.  M, B and c are read off one
    _rk4_lane step from basis states, so this is the same discretization as
    the loop, with rounding in another order.  With the states interleaved
    as (x1, p1, x2, p2, ...), s[j] - M s[j-1] = B u[j] + c is a real unit
    lower-triangular system with three subdiagonals, solved in place by
    BLAS dtbsv; the probes, band and buffers serve every member it runs.
    """
    # probe column k sets the k-th of (x, p, e0, e1/2, e1) to one; the last
    # probe is the zero state, whose image is c.  A probe step that is not
    # finite gives NaN entries, and the solve then fails at step 1
    images = []
    for x, p, *e in np.eye(6)[:5].T.tolist():
        xr, pr, fail = _rk4_lane(force, scales.m, scales.tau, dt, None, x, p, e, 1, 1)
        images.append((math.nan, math.nan) if fail else (xr[1], pr[1]))
    images = np.array(images).T
    c = images[:, 5]
    cols = images[:, :5] - c[:, None]  # [M | B]
    step_map = cols[:, :2]
    weights = np.vstack([cols[:, 2:].T, c])  # (e0, e1/2, e1, 1) -> (x, p)
    # lower band storage, A[i, k] at band[i - k, k]: even columns multiply
    # an x, odd ones a p; the unit diagonal (row 0) is not read
    band = np.zeros((4, 2 * n_steps), order="F")
    band[2, 0::2], band[3, 0::2] = -step_map[:, 0]
    band[1, 1::2], band[2, 1::2] = -step_map[:, 1]
    # buffers reused by every member: a fresh one of this size per member
    # would be a fresh mmap, and page faults would cost more than the solve
    inputs = np.empty((n_steps, 4))
    inputs[:, 3] = 1.0
    state = np.empty((n_steps, 2))  # (x, p) after steps 1..n_steps
    bound = force.escape_bound

    def run(e, xs, ps):
        inputs[:, 0], inputs[:, 1], inputs[:, 2] = e[0:-1:2], e[1::2], e[2::2]
        np.matmul(inputs, weights, out=state)
        state[0] += step_map @ (xs[0], ps[0])
        dtbsv(3, band, state.reshape(-1), lower=1, diag=1, overwrite_x=1)
        xs[1:] = state[store_stride - 1 :: store_stride, 0]
        ps[1:] = state[store_stride - 1 :: store_stride, 1]
        return _first_failure(state, bound)

    return run


def _first_failure(state, bound):
    """One member's first failure (step, kind, |x|) in its (n_steps, 2) series
    of (x, p).

    Returns None when there is none; kind 0 is an escape and 1 a non-finite
    state, as the loop orders them at one step, and |x| is NaN for kind 1
    as on the loop.
    """
    x = state[:, 0]
    bad = ~(np.isfinite(x) & np.isfinite(state[:, 1]))
    if bound is not None:
        bad |= ~(np.abs(x) <= bound)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if bound is not None and not abs(x[i]) <= bound:
        return i + 1, 0, float(abs(x[i]))
    return i + 1, 1, math.nan


def integrate_trajectory(
    scales: PhysicalScales,
    force: ForceModel,
    realization: ZpfRealization | None,
    x0: float,
    p0: float,
    t_span: float,
    dt: float,
    store_stride: int = 1,
) -> Trajectory:
    """Integrate m x'' = f(x) + tau f'(x) x' + eE(t) with classical RK4.

    With realization None the drive term is zero.  The field is synthesized
    once on the dt/2 grid, so midpoint stages are exact.  The member's first
    failure raises EscapeError or IntegrationDivergedError (see _raise).
    The Trajectory starts at t = 0 and holds the drive at its stored times.
    """
    omega_cut = realization.mode_set.omega_cut if realization is not None else None
    _validate_step(scales, force, dt, omega_cut)
    n_steps = _n_steps(t_span, dt)
    _validate_stride(store_stride)
    xs, ps, es, (fail,) = rk4_core(scales, force, [synthesize_drive(realization, dt, n_steps)],
                                   [x0], [p0], dt, n_steps, store_stride)
    _raise(fail, force.escape_bound, dt)
    return Trajectory(dt=dt * store_stride, x=xs[0], p=ps[0], drive=es[0])


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
    n = kernel.size + src.size - 1  # no wrap-around into the first src.size
    full = np.fft.irfft(np.fft.rfft(kernel, n) * np.fft.rfft(src, n), n)[: src.size]
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
    rule on the field grid via FFT convolution.  The grid step must lie on
    the realization's comb (see eval_field_grid).
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
    _validate_step(scales, force, dt, omega_cut)
    n_steps = _n_steps(t_span, dt)
    _validate_stride(store_stride)
    drive = synthesize_drive(realization, dt, n_steps)
    start = (float(x0), float(p0), 0.0, 0.0, 0.0, 0.0)
    rows, fail = _hierarchy_lane(force, scales.m, scales.tau, dt, force.escape_bound, start,
                                 memoryview(drive), n_steps, store_stride)
    _raise(fail, force.escape_bound, dt)
    out = np.array(rows).T
    t = dt * store_stride * np.arange(out.shape[1])
    return {
        "t": t,
        "x0": out[0], "p0": out[1],
        "x1": out[2], "p1": out[3],
        "x2": out[4], "p2": out[5],
    }


def _hierarchy_lane(fm: ForceModel, m: float, tau: float, dt: float, bound,
                    state: tuple, e, n_steps: int, store_stride: int):
    """hierarchy_terms' classical RK4 over (x0, p0, x1, p1, x2, p2), on floats.

    e holds the drive on the half-step grid, as for _rk4_lane.  Returns
    (rows, fail): the state after every store_stride-th step, starting with
    `state`, and None or the first failure record, as _rk4_lane's: (step, 0,
    |x0|) for an escape of x0 beyond `bound` (None for no bound), checked
    every step, or (step, 1, nan) for a non-finite state, checked every
    _CHECK_EVERY steps and at step n_steps.

    f, f', f'' and f''' run one Horner loop, the shorter ones padded with
    zeros at the top powers, in _polyval's order of operations; x1*x1
    stands for x1**2, which Python floats raise as OverflowError where
    numpy returns inf.  The result is bit-identical to a numpy evaluation
    of the same expressions.
    """
    cs = [[float(c) for c in coeffs[::-1]] for coeffs in (fm._c0, fm._c1, fm._c2, fm._c3)]
    width = max(map(len, cs))
    (cf, cg, ch, ck), *rest = zip(*([0.0] * (width - len(c)) + c for c in cs))

    def deriv(x, p, x1, p1, x2, p2, e):
        z = x * 0
        f, g, h, k = cf + z, cg + z, ch + z, ck + z
        for a, b, c, d in rest:
            f, g, h, k = a + f * x, b + g * x, c + h * x, d + k * x
        v, v1, v2 = p / m, p1 / m, p2 / m
        sq = x1 * x1
        a0 = (f + tau * g * v) / m
        a1 = (g * x1 + tau * (h * x1 * v + g * v1) + e) / m
        a2 = (
            g * x2
            + 0.5 * h * sq
            + tau * (h * x2 * v + g * v2 + h * x1 * v1 + 0.5 * k * sq * v)
        ) / m
        return v, m * a0, v1, m * a1, v2, m * a2

    half = 0.5 * dt
    sixth = dt / 6.0
    rows = [state]
    x, p, x1, p1, x2, p2 = state
    for j in range(1, n_steps + 1):
        e0, e1, e2 = e[2 * j - 2], e[2 * j - 1], e[2 * j]
        a = deriv(x, p, x1, p1, x2, p2, e0)
        b = deriv(x + half * a[0], p + half * a[1], x1 + half * a[2],
                  p1 + half * a[3], x2 + half * a[4], p2 + half * a[5], e1)
        c = deriv(x + half * b[0], p + half * b[1], x1 + half * b[2],
                  p1 + half * b[3], x2 + half * b[4], p2 + half * b[5], e1)
        d = deriv(x + dt * c[0], p + dt * c[1], x1 + dt * c[2],
                  p1 + dt * c[3], x2 + dt * c[4], p2 + dt * c[5], e2)
        x = x + sixth * (a[0] + 2 * b[0] + 2 * c[0] + d[0])
        p = p + sixth * (a[1] + 2 * b[1] + 2 * c[1] + d[1])
        x1 = x1 + sixth * (a[2] + 2 * b[2] + 2 * c[2] + d[2])
        p1 = p1 + sixth * (a[3] + 2 * b[3] + 2 * c[3] + d[3])
        x2 = x2 + sixth * (a[4] + 2 * b[4] + 2 * c[4] + d[4])
        p2 = p2 + sixth * (a[5] + 2 * b[5] + 2 * c[5] + d[5])
        if bound is not None and not abs(x) <= bound:
            return rows, (j, 0, abs(x))
        s = (x, p, x1, p1, x2, p2)
        if j % store_stride == 0:
            rows.append(s)
        if (j % _CHECK_EVERY == 0 or j == n_steps) and not all(map(math.isfinite, s)):
            return rows, (j, 1, math.nan)
    return rows, None
