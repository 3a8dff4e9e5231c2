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
a real banded triangular solve instead, in windows of _WINDOW steps that
give the bits of one solve over all steps; it agrees with the loop to
rounding (about 1e-12 relative).  The variational hierarchy
(hierarchy_terms) steps its six variables on Python floats the same way,
bit-identical to a numpy loop of the same expressions.

Both step loops are emitted by one function (_emit_loop) as straight-line
Python and compiled once per integrator setup: the RK4 skeleton, the
failure checks and the stores are written once, each loop supplies its
state names and slope lines, and Horner's rule is unrolled over the
force's coefficients, which the compiled loop holds as values.

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
from .zpf import (
    ModeSet,
    PhysicalScales,
    ZpfRealization,
    _comb_period,
    _grid_synthesizer,
    eval_field_grid,
)

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
_WINDOW = 16_384  # steps of one banded solve (_rk4_affine)
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


def _n_steps(scales: PhysicalScales, force: ForceModel, mode_set: ModeSet | None,
             t_span: float, dt: float, store_stride: int = 1) -> int:
    """Number of dt steps in t_span, once an integration of `force` in the
    field of `mode_set` (None: none) may start: dt > 0, dt*omega <= 0.05 and
    tau*omega <= 0.1 at omega = max(omega0, sqrt(-f'(0)/m)), dt*omega_cut <=
    0.35, MAX_STEPS (ResourceLimitError), a whole number of steps,
    store_stride >= 1 and the drive step dt/2 on the comb (_comb_period)."""
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    omega = max(scales.omega0, math.sqrt(max(0.0, -float(force.coeffs[1])) / scales.m))
    if dt * omega > _MAX_DT_OMEGA0 * (1 + 1e-12):
        raise ConfigurationError(f"dt*omega = {dt * omega:g} exceeds {_MAX_DT_OMEGA0}, "
                                 f"omega = max(omega0, sqrt(-f'(0)/m))")
    if scales.tau * omega > 0.1 * (1 + 1e-12):  # the order reduction needs tau*omega << 1
        raise ConfigurationError(f"tau*omega = {scales.tau * omega:g} violates the "
                                 "narrow-resonance bound 0.1")
    if mode_set is not None and dt * mode_set.omega_cut > _MAX_DT_OMEGA_CUT * (1 + 1e-12):
        raise ConfigurationError(f"dt*omega_cut = {dt * mode_set.omega_cut:g} exceeds "
                                 f"{_MAX_DT_OMEGA_CUT}")
    steps = t_span / dt  # checked on floats: a count past the limit may not fit an int
    if steps > MAX_STEPS:
        raise ResourceLimitError(
            f"step count {steps:.4g} (t_span/dt) exceeds the configured hard limit {MAX_STEPS}"
        )
    n_steps = int(round(steps))
    if n_steps < 1 or abs(n_steps * dt - t_span) > 1e-9 * max(1.0, t_span):
        raise ConfigurationError("t_span must be a whole number of steps")
    if store_stride < 1:
        raise ConfigurationError(f"store_stride must be >= 1, got {store_stride}")
    if mode_set is not None:
        _comb_period(mode_set, 0.5 * dt, "drive step dt/2")
    return n_steps


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
    thread keeps the last one set up in its slot _last, with the banded
    solve's buffers (one window: at most 1.8 MB, whatever n_steps is), until
    a call with other arguments or until its caller clears the slot: a
    caller may pass one member per call, and the setup (the compiled probe
    step and the band) would otherwise be repeated for each.  An ensemble
    clears it once its members are done (ensemble._run_members).
    """
    if store_stride < 1:
        raise ConfigurationError(f"store_stride must be >= 1, got {store_stride}")
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


_LOOP = """\
def loop(start, e, n_steps, store_stride, *, {consts}):
    {state}, = start
    rows = list(start)
    odd, even = iter(e[1::2]), iter(e[2::2])
    e0 = e[0]
    j = 0
    while j < n_steps:
        for j, e1, e2 in zip(range(j + 1, min(j + check, n_steps) + 1), odd, even):
{body}
            if j % store_stride == 0:
                rows += {state},
            e0 = e2
        if not ({finite}):
            return rows, (j, 1, nan)
    return rows, None
"""


def _emit_loop(names, slope, scales: PhysicalScales, dt: float, bound, **polys):
    """Compile a classical RK4 step loop over the Python floats `names`.

    The loop is straight-line Python: slope(point, e, k) gives the source
    lines that set the slope names k of the state at the names `point`,
    with drive sample e, and this skeleton adds the stage points x + half
    k1, x + half k2 and x + dt k3 and the update x + sixth (k1 + 2 k2 +
    2 k3 + k4).  The lines may read m, tau, dt, half = dt/2, sixth = dt/6
    and, for each polynomial name in `polys`, its coefficient k as name_k
    (see _horner).  These enter as bound keyword defaults, never as source
    text, so every float (-0.0, subnormals, inf, nan) passes through
    unchanged.

    Returns loop(start, e, n_steps, store_stride) -> (rows, fail).  e holds
    the drive on the half-step grid, so step j uses e[2j-2], e[2j-1] (both
    midpoint stages) and e[2j]; the inner loop runs over iterators of its
    odd and even samples from one finiteness check to the next.  rows
    holds `start` and the state after every store_stride-th step, flat,
    len(names) floats per state; fail is None or the first failure (step,
    kind, |x|), x the first name: kind 0 an escape beyond `bound` (None for
    no bound), checked every step, kind 1 a non-finite state, checked every
    _CHECK_EVERY steps and at step n_steps.
    """
    body = slope(names, "e0", [f"k1_{v}" for v in names])
    for k, prev, step, e in (("k2", "k1", "half", "e1"), ("k3", "k2", "half", "e1"),
                             ("k4", "k3", "dt", "e2")):
        point = [f"{v}_{k}" for v in names]
        body += [f"{v}_{k} = {v} + {step} * {prev}_{v}" for v in names]
        body += slope(point, e, [f"{k}_{v}" for v in names])
    body += [f"{v} = {v} + sixth * (k1_{v} + 2.0 * k2_{v} + 2.0 * k3_{v} + k4_{v})"
             for v in names]
    if bound is not None:
        body += [f"if not abs({names[0]}) <= bound:",
                 f"    return rows, (j, 0, abs({names[0]}))"]
    env = {"m": scales.m, "tau": scales.tau, "dt": dt, "half": 0.5 * dt, "sixth": dt / 6.0,
           "bound": bound, "check": _CHECK_EVERY, "nan": math.nan, "isfinite": math.isfinite}
    env.update((f"{name}_{k}", float(c)) for name, cs in polys.items()
               for k, c in enumerate(cs))
    src = _LOOP.format(consts=", ".join(f"{c}={c}" for c in env), state=", ".join(names),
                       body="\n".join(" " * 12 + line for line in body),
                       finite=" and ".join(f"isfinite({v})" for v in names))
    exec(compile(src, "<sedlab step loop>", "exec"), env)
    return env["loop"]


def _horner(name, coeffs, x):
    """Source lines setting `name` to the polynomial `coeffs` at x, in the
    order of operations of np.polynomial.polynomial.polyval (acc = c[-1] +
    x*0, then acc = c[k] + acc*x), z = x*0 being set beforehand; the
    coefficients are read as name_0, name_1, ... (see _emit_loop)."""
    top = len(coeffs) - 1
    return [f"{name} = {name}_{top} + z"] + [f"{name} = {name}_{k} + {name} * {x}"
                                              for k in range(top - 1, -1, -1)]


def _rk4_lane(scales: PhysicalScales, fm: ForceModel, dt: float, bound):
    """The step loop of the order-reduced equation for one member, over
    (x, p), escaping beyond `bound` (None for no bound); see _emit_loop.

    Each slope is k_x = p/m, k_p = f + tau f' k_x + e, f and f' by Horner.
    Python floats add, multiply and divide as numpy's float64 does, and
    2.0 and 0.0 are the values Python converts 2 and 0 to, so the result is
    bit-identical to a numpy evaluation of the same expressions.
    """
    def slope(point, e, k):
        x, p = point
        return [f"z = {x} * 0.0", *_horner("f", fm._c0, x), *_horner("g", fm._c1, x),
                f"{k[0]} = {p} / m", f"{k[1]} = f + tau * g * {k[0]} + {e}"]

    return _emit_loop(("x", "p"), slope, scales, dt, bound, f=fm._c0, g=fm._c1)


def _rk4_loop(scales, force, dt, n_steps, store_stride):
    """rk4_core's integration as an explicit step loop, for any force.

    Returns run(e, xs, ps), which steps one member (_rk4_lane) from xs[0],
    ps[0] over its drive e, read as Python floats through a memoryview, to
    its first failure; fills xs and ps unless it fails; and returns the
    failure record.
    """
    loop = _rk4_lane(scales, force, dt, force.escape_bound)

    def run(e, xs, ps):
        rows, fail = loop((float(xs[0]), float(ps[0])), memoryview(e), n_steps, store_stride)
        if fail is None:
            xs[:], ps[:] = np.reshape(rows, (-1, 2)).T
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
    """rk4_core's integration for a linear force, as banded solves of the
    RK4 recurrence per member; returns run(e, xs, ps) as _rk4_loop does.

    With f linear, one step is s[j] = M s[j-1] + B u[j] + c for s = (x, p)
    and u[j] = (e0, e1/2, e1) of step j.  M, B and c are read off one
    _rk4_lane step from basis states, so this is the same discretization as
    the loop, with rounding in another order.  With the states interleaved
    as (x1, p1, x2, p2, ...), s[j] - M s[j-1] = B u[j] + c is a real unit
    lower-triangular system with three subdiagonals, solved in place by
    BLAS dtbsv.

    The system is solved in windows of _WINDOW steps (the last one takes
    up to _WINDOW + 1, so that no window but a one-step run's has one
    step: numpy hands a one-row product to gemv, which rounds otherwise
    than gemm).  A window after the first starts with two rows holding the
    previous window's last (x, p), with that state as their right-hand
    side.  An even column (an x) has no entry on the first subdiagonal, so
    nothing lies below the diagonal in those two rows, they reproduce the
    state exactly, and dtbsv computes every later row from the same
    operands, in the same order, as one solve over all steps would: the
    windows change no bit.  The probes, band and buffers, about 1.8 MB
    whatever n_steps is, serve every member it runs; each window writes its
    stored rows into xs and ps and is checked for a failure before the
    next one runs.
    """
    # probe column k sets the k-th of (x, p, e0, e1/2, e1) to one; the last
    # probe is the zero state, whose image is c.  A probe step that is not
    # finite gives NaN entries, and the solve then fails at step 1
    probe = _rk4_lane(scales, force, dt, None)
    images = []
    for x, p, *e in np.eye(6)[:5].T.tolist():
        rows, fail = probe((x, p), e, 1, 1)
        images.append((math.nan, math.nan) if fail else rows[2:])
    images = np.array(images).T
    c = images[:, 5]
    cols = images[:, :5] - c[:, None]  # [M | B]
    step_map = cols[:, :2]
    weights = np.vstack([cols[:, 2:].T, c])  # (e0, e1/2, e1, 1) -> (x, p)
    window = _WINDOW
    width = min(n_steps, window + 1)  # steps of the longest window
    # lower band storage, A[i, k] at band[i - k, k]: even columns multiply
    # an x, odd ones a p; the unit diagonal (row 0) is not read.  The first
    # two columns belong to the state before the window
    band = np.zeros((4, 2 * width + 2), order="F")
    band[2, 0::2], band[3, 0::2] = -step_map[:, 0]
    band[1, 1::2], band[2, 1::2] = -step_map[:, 1]
    # buffers reused by every member: a fresh one per member would be a
    # fresh mmap, and page faults would cost more than the solve
    inputs = np.empty((width, 4))
    inputs[:, 3] = 1.0
    state = np.empty((width + 1, 2))  # (x, p) before the window, then after its steps
    bound = force.escape_bound

    def run(e, xs, ps):
        start = 0
        while start < n_steps:
            size = n_steps - start if n_steps - start <= window + 1 else window
            if start:
                state[0] = state[window]
            rows = state[: size + 1]
            steps = e[2 * start : 2 * (start + size) + 1]
            inputs[:size, 0], inputs[:size, 1], inputs[:size, 2] = (
                steps[0:-1:2], steps[1::2], steps[2::2])
            np.matmul(inputs[:size], weights, out=rows[1:])
            # the first window starts from (xs[0], ps[0]) on its right-hand
            # side, as one solve over all steps does, not from a state row
            skip = 0 if start else 1
            if not start:
                rows[1] += step_map @ (xs[0], ps[0])
            dtbsv(3, band[:, 2 * skip : 2 * size + 2], rows[skip:].reshape(-1), lower=1,
                  diag=1, overwrite_x=1)
            # stored steps of this window: the multiples of store_stride in
            # start+1 .. start+size, at rows (step - start)
            first = (start // store_stride + 1) * store_stride
            out = slice(first // store_stride, (start + size) // store_stride + 1)
            xs[out] = rows[first - start :: store_stride, 0]
            ps[out] = rows[first - start :: store_stride, 1]
            fail = _first_failure(rows[1:], bound)
            if fail is not None:
                return fail[0] + start, *fail[1:]
            start += size
        return None

    return run


def _first_failure(state, bound):
    """One member's first failure (step, kind, |x|) in a (steps, 2) series of
    its (x, p) after steps 1, 2, ... of the series.

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
    mode_set = realization.mode_set if realization is not None else None
    n_steps = _n_steps(scales, force, mode_set, t_span, dt, store_stride)
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
        out = np.sin(w1 * u) / (self.m * w1) * np.exp(-0.5 * self.gamma * u)
        return np.where(u >= 0, out, 0.0)

    def gdot(self, u):
        u = np.asarray(u, dtype=np.float64)
        w1 = self.omega1
        env = np.exp(-0.5 * self.gamma * u)
        out = env * (np.cos(w1 * u) / self.m - 0.5 * self.gamma * np.sin(w1 * u) / (self.m * w1))
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
    rule on the field grid via FFT convolution.  The grid must be uniform,
    its step on the realization's comb (see eval_field_grid).
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size < 2:
        raise ConfigurationError("t_grid must contain at least two points")
    h = t_grid[1] - t_grid[0]
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
    n_steps = _n_steps(scales, force, realization.mode_set, t_span, dt, store_stride)
    drive = synthesize_drive(realization, dt, n_steps)
    loop = _hierarchy_lane(scales, force, dt, force.escape_bound)
    rows, fail = loop((float(x0), float(p0), 0.0, 0.0, 0.0, 0.0), memoryview(drive), n_steps,
                      store_stride)
    _raise(fail, force.escape_bound, dt)
    out = np.reshape(rows, (-1, 6)).T
    t = dt * store_stride * np.arange(out.shape[1])
    return {
        "t": t,
        "x0": out[0], "p0": out[1],
        "x1": out[2], "p1": out[3],
        "x2": out[4], "p2": out[5],
    }


def _hierarchy_lane(scales: PhysicalScales, fm: ForceModel, dt: float, bound):
    """hierarchy_terms' step loop over (x0, p0, x1, p1, x2, p2), named x, p,
    x1, p1, x2, p2, escaping when x0 leaves `bound`; see _emit_loop.

    f, f', f'' and f''' are evaluated by Horner as in _rk4_lane; x1*x1
    stands for x1**2, which Python floats raise as OverflowError where
    numpy returns inf.  The result is bit-identical to a numpy evaluation
    of the same expressions.
    """
    def slope(point, e, k):
        x, p, x1, p1, x2, p2 = point
        kx, kp, kx1, kp1, kx2, kp2 = k
        return [
            f"z = {x} * 0.0", *_horner("f", fm._c0, x), *_horner("g", fm._c1, x),
            *_horner("h", fm._c2, x), *_horner("k", fm._c3, x),
            f"{kx} = {p} / m", f"{kx1} = {p1} / m", f"{kx2} = {p2} / m",
            f"sq = {x1} * {x1}",
            f"{kp} = m * ((f + tau * g * {kx}) / m)",
            f"{kp1} = m * ((g * {x1} + tau * (h * {x1} * {kx} + g * {kx1}) + {e}) / m)",
            f"{kp2} = m * ((g * {x2} + 0.5 * h * sq + tau * (h * {x2} * {kx} + g * {kx2}"
            f" + h * {x1} * {kx1} + 0.5 * k * sq * {kx})) / m)",
        ]

    return _emit_loop(("x", "p", "x1", "p1", "x2", "p2"), slope, scales, dt, bound,
                      f=fm._c0, g=fm._c1, h=fm._c2, k=fm._c3)
