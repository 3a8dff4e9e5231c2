"""Reproducible parallel ensembles and the statistics of the transition.

Trajectory i draws its field phases from seed splitmix64(master_seed XOR i)
(pairs share a seed under common-noise pairing).  Members are independent
lanes, so for every force they are split once across forked worker
processes (sedlab.pool).  Each process synthesizes each member's drive just
before integrating it, once per pair under common-noise pairing, so while
its members run it holds the report, one integrator and two drives: the one
it integrates and the next.  The integrator is released with the last
member.  run_ensemble computes no statistic: each one (moment_curves,
stationary_moments, memory_loss, estimate_diffusion, power_spectrum) is a
function of the report it returns and reduces over the members in index
order, so every statistic is bit-identical for any worker count.  The
moment curves and the diffusion correlators read the report's rows in
place, a block of _BLOCK columns at a time (_survivor_curves), so they add a
few blocks of columns to the report, not whole planes; memory_loss's Delta
is a whole-column mean over strided views of the rows, in place but not
blocked; a stationary window is one copy of its columns.  Only a report
with a diverged member copies its survivors' rows.

Error bars: the ensemble members are independent by construction, so every
stationary estimate is formed per trajectory first (a window time-average)
and then averaged across the ensemble; the quoted standard error is the
i.i.d. standard error of that mean.  Windows shorter than 20 correlation
times of the squared-amplitude observables (T_corr = 1/(2 tau omega^2),
EnsembleConfig.omega) are refused: per-trajectory averages would mean nothing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import pool
from .dynamics import _last, _n_steps, rk4_core, synthesize_drive
from .errors import (
    ConfigurationError,
    IntegrationDivergedError,
    ResourceLimitError,
    StatisticsError,
)
from .forces import ForceModel
from .rng import derive_seed, gaussian_pair
from .zpf import ModeSet, PhysicalScales, build_mode_set, sample_realization

__all__ = [
    "FixedIC",
    "PairedIC",
    "GaussianIC",
    "EnsembleConfig",
    "EnsembleReport",
    "run_ensemble",
    "moment_curves",
    "stationary_moments",
    "memory_loss",
    "estimate_diffusion",
    "power_spectrum",
]

# hard limit on a report's x, p and drive planes, about 200 times the 86 MB
# of the 200-member reference ensemble
MAX_REPORT_BYTES = 16 * 2**30
# shortest stationary window, in correlation times of the squared-amplitude
# observables
MIN_CORR_TIMES = 20.0
# report columns per block of a curve's reduction (_mean_se_curves)
_BLOCK = 256


@dataclass(frozen=True)
class FixedIC:
    x0: float = 0.0
    p0: float = 0.0


@dataclass(frozen=True)
class PairedIC:
    """Common-noise pairing: members 2i and 2i+1 share the field realization
    of pair i and start from x0a and x0b respectively (p0 = 0)."""

    x0a: float = 1.0
    x0b: float = -1.0


@dataclass(frozen=True)
class GaussianIC:
    x0_mean: float = 0.0
    x0_sd: float = 0.0
    p0_mean: float = 0.0
    p0_sd: float = 0.0


@dataclass(frozen=True)
class EnsembleConfig:
    """One ensemble run, refused here unless it may start (run_ensemble
    refuses only a divergence above 1%).  `omega`, the force's curvature
    frequency for mass scales.m, sets every time scale: stride, decay times
    and fit lags; `n_steps` comes from dynamics._n_steps, once, and
    `mode_set` is the field's mode set, built once for the check and the
    run."""

    scales: PhysicalScales
    force: ForceModel
    omega_cut: float
    n_traj: int
    master_seed: int
    t_span: float
    dt: float
    burn_in: float
    oversample: float = 1.0
    initial_conditions: object = field(default_factory=FixedIC)
    omega: float = field(init=False, repr=False)
    n_steps: int = field(init=False, repr=False)
    mode_set: ModeSet = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n_traj < 2:
            raise ConfigurationError("n_traj must be >= 2")
        if self.burn_in < 0 or self.burn_in >= self.t_span:
            raise ConfigurationError("burn_in must lie inside [0, t_span)")
        ic = self.initial_conditions
        if not isinstance(ic, (FixedIC, PairedIC, GaussianIC)):
            raise ConfigurationError(f"unknown initial-condition spec {type(ic).__name__}")
        object.__setattr__(self, "omega", self.force.curvature_frequency(self.scales.m))
        object.__setattr__(self, "mode_set", build_mode_set(
            self.scales, self.omega_cut, total_time=self.t_span, oversample=self.oversample))
        object.__setattr__(self, "n_steps", _n_steps(self.scales, self.force, self.mode_set,
                                                     self.t_span, self.dt))
        n_times = self.n_steps // self.decimate_stride + 1
        nbytes = 8 * 3 * self.n_members * n_times
        if nbytes > MAX_REPORT_BYTES:
            raise ResourceLimitError(
                f"report of {nbytes:.4g} B (3 planes x {self.n_members} members x "
                f"{n_times} samples) exceeds the configured hard limit {MAX_REPORT_BYTES} B")

    @property
    def decimate_stride(self) -> int:
        """Moments stored every ceil(0.1/omega / dt) steps to bound report size."""
        return max(1, int(np.ceil(0.1 / (self.omega * self.dt))))

    @property
    def energy_decay_time(self) -> float:
        return 1.0 / (self.scales.tau * self.omega**2) if self.scales.tau else np.inf

    @property
    def correlation_time(self) -> float:
        """Integrated autocorrelation time of squared-amplitude observables."""
        return 0.5 * self.energy_decay_time

    @property
    def n_members(self) -> int:
        """Number of integrations (2 per pair under common-noise pairing)."""
        return 2 * self.n_traj if isinstance(self.initial_conditions, PairedIC) else self.n_traj

    def to_dict(self) -> dict:
        ic = self.initial_conditions
        ic_d = {"kind": type(ic).__name__, **ic.__dict__}
        return {
            "scales": asdict(self.scales),
            "force": self.force.to_dict(),
            "omega_cut": self.omega_cut,
            "n_traj": self.n_traj,
            "master_seed": self.master_seed,
            "t_span": self.t_span,
            "dt": self.dt,
            "burn_in": self.burn_in,
            "oversample": self.oversample,
            "initial_conditions": ic_d,
        }


@dataclass
class EnsembleReport:
    """Decimated per-trajectory series of one run, and its diverged members."""

    config: EnsembleConfig
    t: np.ndarray
    x: np.ndarray  # (n_members, n_times)
    p: np.ndarray
    drive: np.ndarray
    diverged: list

    @property
    def n_members(self) -> int:
        return self.x.shape[0]

    def summary_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "n_members": int(self.n_members),
            "n_diverged": len(self.diverged),
            "t_first": float(self.t[0]),
            "t_last": float(self.t[-1]),
            "decimate_dt": float(self.config.dt * self.config.decimate_stride),
        }


def _member_seed(config: EnsembleConfig, member: int) -> int:
    """Field seed for ensemble member `member` (pairs share the pair seed)."""
    if isinstance(config.initial_conditions, PairedIC):
        return derive_seed(config.master_seed, member // 2)
    return derive_seed(config.master_seed, member)


def _member_ic(config: EnsembleConfig, member: int) -> tuple[float, float]:
    ic = config.initial_conditions
    if isinstance(ic, FixedIC):
        return ic.x0, ic.p0
    if isinstance(ic, PairedIC):
        return (ic.x0a, 0.0) if member % 2 == 0 else (ic.x0b, 0.0)
    g1, g2 = gaussian_pair(derive_seed(config.master_seed, 1 << 32), member)  # GaussianIC
    return ic.x0_mean + ic.x0_sd * g1, ic.p0_mean + ic.p0_sd * g2


def _run_members(config: EnsembleConfig, out: np.ndarray, members: range) -> list:
    """Integrate the members in `members`, a range, over config.n_steps steps.

    Member by member, synthesizes the drive from config.mode_set (the
    second of a common-noise pair reuses the first's) and lets rk4_core
    write the decimated x, p and drive into the member's rows of out[0],
    out[1] and out[2], so at most two drives are held, the one being
    integrated and the next.  rk4_core sets up its integrator once for all
    of them and keeps it in this thread's slot (dynamics._last), which is
    cleared on return, so its buffers (7 drives' bytes for the banded
    solve) are freed before run_ensemble returns.  Synthesis and
    integration stay separate calls, each profiled alone.  A member that
    escapes or diverges gets NaN rows and is listed in the returned
    `diverged` as (member, t_fail).
    """
    n_steps = config.n_steps
    diverged = []
    last_seed = None
    try:
        for member in members:
            seed = _member_seed(config, member)
            if seed != last_seed:
                last_seed = seed
                # the last drive is freed once this one exists: freed first, it would
                # be faulted back in for every member (3x the page faults on 80 members)
                drive = synthesize_drive(sample_realization(config.mode_set, seed),
                                         config.dt, n_steps)
            x0, p0 = _member_ic(config, member)
            *_, (fail,) = rk4_core(config.scales, config.force, [drive], [x0], [p0], config.dt,
                                   n_steps, config.decimate_stride, out[:, member : member + 1])
            if fail is not None:
                diverged.append((member, fail[0] * config.dt))
    finally:
        vars(_last).clear()
    return diverged


def _shared_empty(shape: tuple) -> np.ndarray:
    """A float64 array in anonymous shared memory, which forked processes
    write into in place."""
    import mmap

    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * count), count=count).reshape(shape)


def run_ensemble(config: EnsembleConfig) -> EnsembleReport:
    """Run the configured ensemble; bit-identical for any CPU count.

    Every member writes its own rows, so the report depends only on
    (config, master_seed).  The members are split once into one contiguous
    sub-range per CPU this process may run on (`pool.cpu_count()`, which
    `taskset` limits), at most one per member, for `pool.fork_map`: this
    process integrates the first and forked worker processes the others,
    writing into shared memory.  A run on one CPU or without fork stays in
    this process.  Each process fills its rows of the report one member at
    a time and holds at most two members' drives and one integrator, which
    it releases once its members are done (_run_members).
    No worker outlives the call.  Diverged members are excluded and
    counted; more than 1% divergence fails the run, the one refusal left
    here: every other one comes when the EnsembleConfig is built.  The run
    computes no statistic: each is a function of the returned report
    (moment_curves, stationary_moments, estimate_diffusion, ...).
    """
    n_mem = config.n_members
    stride = config.decimate_stride
    shape = (3, n_mem, config.n_steps // stride + 1)
    t = config.dt * stride * np.arange(shape[2])
    parts = pool.split(range(n_mem), min(pool.cpu_count(), n_mem))
    # forked workers write their rows into shared memory
    out = _shared_empty(shape) if len(parts) > 1 else np.empty(shape)
    diverged = sum(pool.fork_map(_run_members, (config, out), parts), [])
    if len(diverged) > 0.01 * n_mem:
        raise IntegrationDivergedError(
            f"{len(diverged)} of {n_mem} members diverged (> 1%)"
        )
    x, p, drive = out
    return EnsembleReport(config=config, t=t, x=x, p=p, drive=drive, diverged=diverged)


def _finite_members(x: np.ndarray) -> np.ndarray:
    """The rows of x that are finite throughout: the members that survived."""
    return np.all(np.isfinite(x), axis=1)


def _survivors(ok: np.ndarray, *planes: np.ndarray) -> tuple:
    """The planes' rows for the members `ok` marks: the planes themselves,
    not copied, when every member survived, else copies of the survivors'
    rows."""
    return planes if ok.all() else tuple(plane[ok] for plane in planes)


def _mean_se(values: np.ndarray) -> tuple:
    """Mean over the members (axis 0) and its i.i.d. standard error."""
    return values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(len(values))


def _survivor_curves(report: EnsembleReport, terms, *planes: np.ndarray) -> dict:
    """name -> (mean, standard error) over the surviving members, per
    column, of each (name, values) that terms(*blocks) yields, where blocks
    are the survivors' rows of the report's `planes` cut to one block of
    columns (_mean_se_curves)."""
    planes = _survivors(_finite_members(report.x), *planes)
    return _mean_se_curves(len(report.t),
                           lambda cols: terms(*(plane[:, cols] for plane in planes)))


def _mean_se_curves(n_cols: int, terms) -> dict:
    """name -> (mean, standard error) over the members, per column, of each
    (name, values) that terms(cols) yields for a slice cols of the n_cols
    columns, reduced one block of _BLOCK columns at a time.

    numpy sums axis 0 one member after another in every column, so the
    blocks change no bit -- unless a block is one column wide, which numpy
    sums pairwise; a last block of one column joins the one before it.
    """
    curves = {}
    starts = range(0, max(n_cols - 1, 1), _BLOCK)
    for cols in map(slice, starts, [*starts[1:], n_cols]):
        for name, values in terms(cols):
            mean, se = curves.setdefault(name, (np.empty(n_cols), np.empty(n_cols)))
            mean[cols], se[cols] = _mean_se(values)
    return curves


def moment_curves(report: EnsembleReport) -> dict:
    """Ensemble moment curves over the stored times: name -> (mean, standard
    error) for x, p, x2, p2 and H, over the members with finite rows."""
    m, force = report.config.scales.m, report.config.force

    def terms(x, p):
        yield "x", x
        yield "p", p
        yield "x2", x**2
        yield "p2", p**2
        yield "H", p**2 / (2 * m) + force.potential(x)

    return _survivor_curves(report, terms, report.x, report.p)


def _stationary(report: EnsembleReport, window: tuple[float, float] | None,
                *planes: np.ndarray) -> tuple:
    """The stationary window and each plane's finite members within it.

    `window` defaults to (burn_in, t_span).  It must end after it starts
    and lie inside the simulated span after the burn-in
    (ConfigurationError), start after 5 energy-decay times and last
    MIN_CORR_TIMES correlation times (StatisticsError).  Returns ((lo, hi),
    the times in the window, [each plane's rows for the members with
    finite x, cut to the window]).

    Each window is one copy, in Fortran order: a member's consecutive
    samples lie the member count apart.  The order sets the summation
    order of every per-member time average (stationary_moments,
    balance.measure_balance): numpy sums axis 1 of an F-ordered window one
    sample after another, and that of a C-ordered one pairwise, which
    moves the last bits.
    """
    cfg = report.config
    lo, hi = (cfg.burn_in, cfg.t_span) if window is None else window
    if lo < cfg.burn_in - 1e-9:
        raise ConfigurationError(
            f"window start {lo:g} precedes the burn-in {cfg.burn_in:g}"
        )
    if hi <= lo:
        raise ConfigurationError(f"window end {hi:g} must come after its start {lo:g}")
    if hi > cfg.t_span + 1e-9:
        raise ConfigurationError("window must lie inside the simulated span")
    settle = 5.0 * cfg.energy_decay_time
    if lo < settle * (1 - 1e-9):
        raise StatisticsError(
            f"stationary window must start after 5 energy-decay times "
            f"({settle:g}); got {lo:g}"
        )
    needed = MIN_CORR_TIMES * cfg.correlation_time
    if hi - lo < needed:
        raise StatisticsError(
            f"window of length {hi - lo:g} is shorter than {MIN_CORR_TIMES:g} "
            f"correlation times ({needed:g}); estimate refused"
        )
    sl = (report.t >= lo - 1e-12) & (report.t <= hi + 1e-12)
    ok = _finite_members(report.x)
    cut = sl if ok.all() else np.ix_(sl, ok)
    return (lo, hi), report.t[sl], [plane.T[cut].T for plane in planes]


def stationary_moments(report: EnsembleReport, window: tuple[float, float] | None = None) -> dict:
    """Window time-averages per trajectory, then ensemble mean +/- standard error.

    Returns {'x2', 'p2', 'H', 'dxdp', 'x', 'p'} -> (value, stderr).  The
    uncertainty product uses per-trajectory centered variances.
    """
    _, _, (x, p) = _stationary(report, window, report.x, report.p)
    cfg = report.config
    h_i = (p**2 / (2 * cfg.scales.m) + cfg.force.potential(x)).mean(axis=1)
    per = {
        "x": x.mean(axis=1),
        "p": p.mean(axis=1),
        "x2": (x**2).mean(axis=1),
        "p2": (p**2).mean(axis=1),
        "H": h_i,
        "dxdp": np.sqrt(x.var(axis=1) * p.var(axis=1)),
    }
    return {k: tuple(map(float, _mean_se(v))) for k, v in per.items()}


@dataclass(frozen=True)
class MemoryLossResult:
    t: np.ndarray
    delta: np.ndarray
    fitted_rate: float
    fitted_amplitude: float
    expected_rate: float | None

    def envelope(self, t) -> np.ndarray:
        return self.fitted_amplitude * np.exp(-self.fitted_rate * np.asarray(t))


def memory_loss(report: EnsembleReport) -> MemoryLossResult:
    """Divergence of common-noise paired sub-ensembles, Delta(t) = |<x>_A - <x>_B|.

    Under common noise the drive cancels in the difference, so for a linear
    force f = c0 + c1*x the envelope decays at the homogeneous amplitude
    rate tau*(-c1)/(2m), tau*omega0^2/2 for the oscillator: the expected
    rate.  A nonlinear force has no such prediction, and its expected rate
    is None.  The rate is fitted by linear regression of log of the |Delta|
    peaks.
    """
    cfg = report.config
    if not isinstance(cfg.initial_conditions, PairedIC):
        raise ConfigurationError("memory_loss requires common-noise paired initial conditions")
    xa, xb = report.x[0::2], report.x[1::2]
    xa, xb = _survivors(_finite_members(xa) & _finite_members(xb), xa, xb)
    delta = np.abs(xa.mean(axis=0) - xb.mean(axis=0))
    t = report.t
    if cfg.force.is_linear():
        expected = cfg.scales.tau * -cfg.force.coeffs[1] / (2 * cfg.scales.m)
    else:
        expected = None
    # peaks of |Delta|, skipping the first quarter period
    fit = _peak_fit(t, delta, t > 0.5 * np.pi / cfg.omega)
    if fit is None or delta.max() < 1e-12:
        return MemoryLossResult(t=t, delta=delta, fitted_rate=0.0,
                                fitted_amplitude=0.0, expected_rate=expected)
    slope, intercept = fit
    return MemoryLossResult(t=t, delta=delta, fitted_rate=float(-slope),
                            fitted_amplitude=float(np.exp(intercept)),
                            expected_rate=expected)


def estimate_diffusion(report: EnsembleReport) -> dict:
    """Field-particle correlators D_px(t) = e<x E> and D_pp(t) = e<p E>.

    Pure ensemble averages at each stored time over the members with finite
    rows, with i.i.d. standard errors, reduced a block of columns at a time
    (_survivor_curves).
    """
    def terms(x, p, e):
        yield "dpx", x * e
        yield "dpp", p * e

    curves = _survivor_curves(report, terms, report.x, report.p, report.drive)
    (dpx, dpx_se), (dpp, dpp_se) = curves["dpx"], curves["dpp"]
    return {"t": report.t, "dpx": dpx, "dpx_se": dpx_se, "dpp": dpp, "dpp_se": dpp_se}


@dataclass(frozen=True)
class SpectrumResult:
    omega: np.ndarray
    psd: np.ndarray
    psd_se: np.ndarray
    peak_omega: float
    fwhm: float
    fwhm_halfmax: float
    integral: float
    resolution: float


def power_spectrum(report: EnsembleReport, window: tuple[float, float] | None = None) -> SpectrumResult:
    """Averaged-periodogram PSD of x over the stationary window.

    The PSD is one-sided in angular frequency and normalized so the bin sum
    times the bin width equals the window-averaged <x^2> (Parseval).  Two
    linewidth figures are reported: `fwhm_halfmax` is the raw half-maximum
    crossing of the averaged periodogram, which carries the spectral-window
    broadening of the finite record; `fwhm` is the window-bias-free estimate
    from the decay rate of the ensemble-averaged autocorrelation envelope
    (twice the fitted envelope rate), which is the figure to compare with a
    predicted line width.
    """
    _, _, (x,) = _stationary(report, window, report.x)
    L = x.shape[1]
    if L < 64:
        raise StatisticsError("window too short for the requested spectral resolution")
    dts = report.t[1] - report.t[0]
    spec = np.fft.rfft(x, axis=1)
    per = (np.abs(spec) ** 2) * (dts / (2 * np.pi * L))
    # one-sided: every bin but DC is doubled; an even L's Nyquist bin, which
    # is unique like DC, is halved back
    per[:, 1:] *= 2.0
    if L % 2 == 0:
        per[:, -1] /= 2.0
    omega = 2 * np.pi * np.fft.rfftfreq(L, d=dts)
    psd, psd_se = _mean_se(per)
    d_omega = omega[1] - omega[0]
    k = int(np.argmax(psd))
    if not psd[k] > 0:
        raise StatisticsError("periodogram is zero; no spectral line to measure")
    # raw half-max crossings; the line must fall to half its peak on both
    # sides, which also refuses a peak at the DC or the top bin
    half = psd[k] / 2.0
    i = k
    while i > 0 and psd[i] > half:
        i -= 1
    j = k
    while j < psd.size - 1 and psd[j] > half:
        j += 1
    if psd[i] > half or psd[j] > half:
        raise StatisticsError(
            f"periodogram peak at omega = {omega[k]:g} does not fall to half its "
            "height on both sides; no resolved spectral line"
        )
    left = omega[i] + (half - psd[i]) * d_omega / (psd[i + 1] - psd[i])
    right = omega[j - 1] + (half - psd[j - 1]) * d_omega / (psd[j] - psd[j - 1])
    # parabolic interpolation of the peak position
    y0, y1, y2 = np.log(psd[k - 1 : k + 2])
    denom = y0 - 2 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
    peak = omega[k] + shift * d_omega
    fwhm_raw = right - left

    fwhm_fit = 2.0 * _envelope_rate(x, dts, report.config)
    integral = float(psd.sum() * d_omega)
    return SpectrumResult(
        omega=omega, psd=psd, psd_se=psd_se, peak_omega=float(peak),
        fwhm=float(fwhm_fit), fwhm_halfmax=float(fwhm_raw),
        integral=integral, resolution=float(d_omega),
    )


def _envelope_rate(x: np.ndarray, dts: float, cfg: EnsembleConfig) -> float:
    """Amplitude decay rate of the ensemble-averaged autocorrelation of x.

    For the stationary driven oscillator the autocorrelation envelope decays
    as exp(-rate*u); the fitted rate equals half the Lorentzian FWHM.  The
    fit runs over lags from one period 2 pi/omega, past the lag-0 broadband
    spike, to 4 energy-decay times (at most 0.8 of the window).
    """
    n, L = x.shape
    nfft = 1 << int(np.ceil(np.log2(2 * L)))
    spec = np.fft.rfft(x, nfft, axis=1)
    ac = np.fft.irfft((np.abs(spec) ** 2).mean(axis=0), nfft)[:L] / L
    u = dts * np.arange(L)
    # remove the triangular bias of the fixed-denominator autocovariance,
    # (L-k)/L, which would otherwise inflate the fitted decay rate by ~1/T
    ac = ac / (1.0 - np.arange(L) / L)
    u_lo = 2 * np.pi / cfg.omega
    u_hi = min(4.0 * cfg.energy_decay_time, 0.8 * u[-1])
    fit = _peak_fit(u, ac, (u >= u_lo) & (u <= u_hi))
    if fit is None:
        raise StatisticsError("window too short to fit the autocorrelation envelope")
    return float(-fit[0])


def _peak_fit(t: np.ndarray, y: np.ndarray, inside: np.ndarray):
    """Line (slope, intercept) fitted to log|y| over the interior maxima of
    |y| > 0 where `inside` holds; None for fewer than four."""
    y = np.abs(y)
    idx = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])) + 1
    idx = idx[inside[idx] & (y[idx] > 0)]
    if idx.size < 4:
        return None
    return np.polyfit(t[idx], np.log(y[idx]), 1)
