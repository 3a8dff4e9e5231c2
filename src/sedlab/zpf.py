"""Discrete realizations of the zero-point field's electric force component.

The field enters the particle's equation of motion only through the force
eE(t).  In the long-wavelength, one-component reduction the force is a
random-phase cosine sum

    eE(t) = sum_alpha A_alpha cos(omega_alpha t + phi_alpha),

with omega_alpha = alpha*dw on a uniform frequency comb and amplitudes fixed
by the cubic force spectral density

    A_alpha^2 / 2 = (m tau hbar / pi) * omega_alpha^3 * dw,

so that the discrete sum is the Riemann discretization of the continuum
force correlation

    e^2 phi(u) = (m tau hbar / pi) * int_0^omega_cut w^3 cos(w u) dw.

The comb spacing is tied to the simulated window, dw = 2 pi/(oversample*T),
so a realization has no recurrence inside the window.  A realization is
synthesized only on a uniform grid whose step h lies on the comb,
dw*h = 2 pi/K for a whole number K: there the sum is periodic with period K
samples, one inverse real FFT of length K.  A grid off the comb is refused.
The correlation estimator splits its realizations across one process per
CPU (sedlab.pool); each process draws and synthesizes its own.
All charge/light-speed constants are folded into tau; only
(hbar, m, omega0, tau, omega_cut) appear.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import pool
from .errors import ConfigurationError, ResourceLimitError, StatisticsError
from .rng import derive_seed, mode_phases

__all__ = [
    "PhysicalScales",
    "ModeSet",
    "ZpfRealization",
    "REF",
    "build_mode_set",
    "sample_realization",
    "eval_field_grid",
    "eval_field_direct",
    "theoretical_force_correlation",
    "empirical_correlation",
]


@dataclass(frozen=True)
class PhysicalScales:
    """Scaled units of the problem: hbar, mass, binding frequency, damping time.

    tau is the radiation-reaction time; the fluctuation-dissipation link
    requires tau*omega0 << 1 (narrow resonance).  We reject tau*omega0 > 0.1
    and warn above 0.05.
    """

    hbar: float = 1.0
    m: float = 1.0
    omega0: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        if self.hbar <= 0 or self.m <= 0 or self.omega0 <= 0:
            raise ConfigurationError("hbar, m and omega0 must be positive")
        if self.tau < 0:
            raise ConfigurationError("tau must be non-negative")
        if self.tau * self.omega0 > 0.1:
            raise ConfigurationError(
                f"tau*omega0 = {self.tau * self.omega0:g} violates the narrow-resonance "
                "bound 0.1; the order-reduced damping is not meaningful there"
            )
        if self.tau * self.omega0 > 0.05:
            warnings.warn(
                f"tau*omega0 = {self.tau * self.omega0:g} > 0.05: narrow-resonance "
                "corrections may be visible",
                stacklevel=2,
            )

    @property
    def force_psd_coeff(self) -> float:
        """Prefactor of the cubic force spectral density, m*tau*hbar/pi."""
        return self.m * self.tau * self.hbar / np.pi


#: Reference configuration used throughout the test bench.
REF = PhysicalScales(hbar=1.0, m=1.0, omega0=1.0, tau=1e-2)

# hard limit on the samples per realization in empirical_correlation: each
# buffer of that many float64 samples takes 128 MB
MAX_CORRELATION_SAMPLES = 16_000_000
# hard limit on the phases drawn over a correlation run (realizations x
# modes).  One realization per process is resident at a time, so it bounds
# the run's work, not its memory: every phase is drawn and synthesized once
MAX_CORRELATION_PHASES = 250_000_000
# hard limit on the comb period K of a synthesized grid: its spectrum and
# period take 16*K bytes, 6.4 GB here, the drive grid of MAX_STEPS steps at
# oversample 2
MAX_COMB_PERIOD = 400_000_000
# hard limit on the modes of one comb: its frequencies, amplitudes and each
# realization's phases take 16 MB apiece here
MAX_MODES = 2_000_000

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ModeSet:
    """Frequency comb omega_alpha = alpha*dw (alpha = 1..N) with amplitudes."""

    scales: PhysicalScales
    omega_cut: float
    delta_omega: float
    oversample: float
    omegas: np.ndarray = field(repr=False, default=None)
    amplitudes: np.ndarray = field(repr=False, default=None)

    @property
    def n_modes(self) -> int:
        return int(self.omegas.size)

    @property
    def recurrence_time(self) -> float:
        """Period of the quasi-periodic sum, 2 pi / delta_omega."""
        return 2 * np.pi / self.delta_omega


@dataclass(frozen=True)
class ZpfRealization:
    """One member of the statistical ensemble: a mode set plus one phase draw."""

    mode_set: ModeSet
    seed: int
    phases: np.ndarray = field(repr=False, default=None)


def build_mode_set(
    scales: PhysicalScales,
    omega_cut: float,
    total_time: float,
    oversample: float = 1.0,
) -> ModeSet:
    """Construct the frequency comb for a simulation window of `total_time`.

    dw = 2 pi / (oversample * total_time) guarantees no recurrence of the
    quasi-periodic field inside the window.  Raises ResourceLimitError if the
    comb would exceed MAX_MODES.
    """
    if omega_cut <= scales.omega0:
        raise ConfigurationError(
            f"omega_cut = {omega_cut:g} must exceed the binding frequency omega0 = "
            f"{scales.omega0:g}"
        )
    if total_time <= 0:
        raise ConfigurationError("total_time must be positive")
    if oversample < 1:
        raise ConfigurationError("oversample must be >= 1")
    dw = 2 * np.pi / (oversample * total_time)
    # counted on floats: dw underflows to 0 for a huge window, and a count
    # of modes past the limit may not fit an int
    n = np.floor(omega_cut / dw + 1e-12) if dw > 0 else np.inf
    if not n <= MAX_MODES:
        raise ResourceLimitError(
            f"mode count {n:.4g} exceeds the configured hard limit {MAX_MODES}"
        )
    n = int(n)
    omegas = dw * np.arange(1, n + 1)
    amplitudes = np.sqrt(2.0 * scales.force_psd_coeff * omegas**3 * dw)
    omegas.setflags(write=False)
    amplitudes.setflags(write=False)
    return ModeSet(
        scales=scales,
        omega_cut=omega_cut,
        delta_omega=dw,
        oversample=oversample,
        omegas=omegas,
        amplitudes=amplitudes,
    )


def sample_realization(mode_set: ModeSet, seed: int) -> ZpfRealization:
    """Draw phases i.i.d. uniform on (-pi, pi] from the counter-based generator."""
    phases = mode_phases(seed, mode_set.n_modes)
    phases.setflags(write=False)
    return ZpfRealization(mode_set=mode_set, seed=int(seed), phases=phases)


# ---------------------------------------------------------------------------
# synthesis
#
# On the grid t0 + j*h with dw*h = 2 pi/K the cosine sum is periodic in j
# with period K, an O(K log K) inverse real FFT.  Every grid sedlab builds
# itself lies on the comb: the half-step drive grid has
# K = 2*oversample*n_steps, and the default correlation grid is snapped to it.
# ---------------------------------------------------------------------------


def _comb_period(ms: ModeSet, h: float, name: str = "grid step",
                 rtol: float = 4 * _EPS) -> int:
    """The comb period K of a grid step h, dw*h = 2 pi/K; 0 for no modes.

    Checks, before anything is allocated, that h resolves the cutoff
    (Nyquist: h*omega_cut <= pi), that K is within MAX_COMB_PERIOD
    (ResourceLimitError) and that h lies on the comb: K whole to `rtol`
    relative (ConfigurationError naming `name` and the nearest comb step).
    """
    if h * ms.omega_cut > np.pi * (1 + 1e-12):
        raise ConfigurationError(
            f"{name} {h:g} violates the Nyquist bound pi/omega_cut = "
            f"{np.pi / ms.omega_cut:g}"
        )
    if ms.n_modes == 0:
        return 0
    k = 2 * np.pi / (ms.delta_omega * h)
    # checked on floats: a period past the limit may not fit an int
    if not k <= MAX_COMB_PERIOD:
        raise ResourceLimitError(
            f"{name} {h:g} gives a comb period of {k:.4g} samples, over the "
            f"configured hard limit {MAX_COMB_PERIOD}"
        )
    K = round(k)
    if abs(k - K) > rtol * k:
        raise ConfigurationError(
            f"{name} {float(h)!r} lies off the field's frequency comb (2 pi/(dw*h) = "
            f"{float(k)!r} is not whole); the nearest comb step is "
            f"{2 * np.pi / (ms.delta_omega * K)!r}"
        )
    return K


def _grid_synthesizer(ms: ModeSet, t0: float, h: float, m_samples: int,
                      name: str = "grid step", rtol: float = 4 * _EPS):
    """Check the grid t0 + j*h, j < m_samples, once (see _comb_period).

    Returns synth(realization) -> eE on that grid, for realizations of
    `ms`: sum_a A_a cos(a*dw*t0 + 2 pi a j/K + phi_a) over the comb indices
    a = 1..N, all <= K/2 (the Nyquist bound).  A grid of at most K samples
    reuses one period buffer, overwritten by the next call; a longer grid
    gets its own array, its first period repeated in place.
    """
    K = _comb_period(ms, h, name, rtol)
    if K == 0:
        return lambda r: np.zeros(m_samples)
    n = ms.n_modes
    scaled = (K / 2) * ms.amplitudes
    shift = np.arange(1, n + 1) * (ms.delta_omega * t0)
    spec = np.zeros(K // 2 + 1, dtype=complex)  # zero off the comb, always
    period = np.empty(K) if m_samples <= K else None

    def synth(r):
        spec[1 : n + 1] = scaled * np.exp(1j * (shift + r.phases))
        if K % 2 == 0:
            spec[-1] *= 2.0  # irfft counts the Nyquist bin once, the others twice
        out = np.empty(m_samples) if period is None else period
        np.fft.irfft(spec, K, out=out[:K])
        for lo in range(K, m_samples, K):
            out[lo : lo + K] = out[: min(K, m_samples - lo)]
        return out[:m_samples]

    return synth


def eval_field_grid(realization: ZpfRealization, t_grid: np.ndarray) -> np.ndarray:
    """Force samples eE(t_j) on a uniform time grid on the comb.

    The grid step must resolve the cutoff (Nyquist: h*omega_cut <= pi) and
    lie on the comb, dw*h = 2 pi/K for a whole number K to 4 eps relative
    plus the rounding of the grid's end points; a step off the comb raises
    ConfigurationError naming the nearest comb step, and K above
    MAX_COMB_PERIOD raises ResourceLimitError.  The
    samples are one inverse real FFT of length K, repeated with period K.
    Measured against `eval_field_direct` at omega_cut = 20, they agree to
    1e-12 relative for t <= 400 and to 3.4e-12 for t <= 2000, the size of
    the direct sum's own rounding, omega*t*eps.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size == 0:
        return np.zeros(0)
    if t_grid.size == 1:
        return eval_field_direct(realization, t_grid)
    steps = np.diff(t_grid)
    if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ConfigurationError("t_grid must be uniform and increasing")
    # the mean step, unlike steps[0], carries no rounding of a large t0, but
    # the end points' rounding, eps*|t|/span relative: a grid built from a
    # comb step stays on the comb, and the samples are as exact as its times
    t0, t1 = t_grid[0], t_grid[-1]
    h = (t1 - t0) / (t_grid.size - 1)
    rtol = _EPS * (4 + max(abs(t0), abs(t1)) / (t1 - t0))
    return _grid_synthesizer(realization.mode_set, t0, h, t_grid.size, rtol=rtol)(realization)


def eval_field_direct(realization: ZpfRealization, t_grid: np.ndarray) -> np.ndarray:
    """Reference O(N*M) evaluation of the cosine sum (test oracle; slow)."""
    ms = realization.mode_set
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    out = np.zeros(t_grid.size)
    if ms.n_modes == 0:
        return out
    chunk = max(1, int(2_000_000 // max(ms.n_modes, 1)))
    for lo in range(0, t_grid.size, chunk):
        sl = slice(lo, min(lo + chunk, t_grid.size))
        arg = np.outer(ms.omegas, t_grid[sl]) + realization.phases[:, None]
        out[sl] = (ms.amplitudes[:, None] * np.cos(arg)).sum(axis=0)
    return out


def theoretical_force_correlation(
    delta_t, scales: PhysicalScales, omega_cut: float
) -> np.ndarray | float:
    """Closed-form continuum force correlation with sharp cutoff.

    e^2 phi(u) = (m tau hbar/pi) * int_0^W w^3 cos(w u) dw, evaluated from the
    antiderivative; at u = 0 this is (m tau hbar/pi) W^4/4.
    """
    if omega_cut <= 0:
        raise ConfigurationError("omega_cut must be positive")
    u = np.asarray(delta_t, dtype=np.float64)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    w = omega_cut
    out = np.empty_like(u)
    small = np.abs(u) * w < 1e-3
    us = u[small]
    # Taylor expansion around u = 0 keeps the small-lag branch stable
    out[small] = w**4 / 4 - us**2 * w**6 / 12 + us**4 * w**8 / 192
    ub = u[~small]
    out[~small] = (
        (w**3 / ub) * np.sin(w * ub)
        + (3 * w**2 / ub**2) * np.cos(w * ub)
        - (6 * w / ub**3) * np.sin(w * ub)
        - (6 / ub**4) * np.cos(w * ub)
        + 6 / ub**4
    )
    out *= scales.force_psd_coeff
    return float(out[0]) if scalar else out


def _correlation_rows(ms: ModeSet, seed: int, synth, n_base: int, strides: np.ndarray,
                      part: range) -> np.ndarray:
    """Rows `part` of empirical_correlation: realization i's lagged means."""
    rows = np.empty((len(part), strides.size))
    for row, i in enumerate(part):
        e = synth(sample_realization(ms, derive_seed(seed, i)))
        base = e[:n_base]
        rows[row] = [np.mean(base * e[s : s + n_base]) for s in strides]
    return rows


def empirical_correlation(
    mode_set: ModeSet,
    seed: int,
    n_realizations: int,
    lags: np.ndarray,
    sample_dt: float | None = None,
    window: tuple[float, float] | None = None,
):
    """Ensemble-and-time averaged <eE(t) eE(t+lag)> with jackknife errors.

    Realization i is sample_realization(mode_set, derive_seed(seed, i)),
    i < n_realizations.  Each is synthesized on a uniform grid of step
    `sample_dt` over `window` (default: the simulated span,
    recurrence_time/oversample).  The step must lie on the comb (see
    eval_field_grid); by default it is the largest comb step 2 pi/(K*dw),
    K whole, that is at most an eighth of the cutoff period.  Averaging
    over the full recurrence period would make the estimate
    phase-independent and its error bar degenerate, so explicit windows near
    the full period are for diagnostics only.  Lags are snapped to the
    sample grid; the snapped lags actually used are returned.

    The realizations are split into contiguous ranges, one per CPU this
    process may run on (`pool.fork_map`); each process draws and
    synthesizes its own, one at a time.  The mean and the delete-one
    jackknife run over the rows in index order, so the result is
    bit-identical for any worker count.

    Returns (lags_used, estimates, stderr).  Refuses with StatisticsError for
    fewer than two realizations (no error bar is computable), and with
    ResourceLimitError for more than MAX_CORRELATION_PHASES phases
    (realizations x modes) before any is drawn.
    """
    ms = mode_set
    if n_realizations < 2:
        raise StatisticsError("empirical_correlation needs >= 2 realizations for an error bar")
    n_phases = n_realizations * ms.n_modes
    if n_phases > MAX_CORRELATION_PHASES:
        raise ResourceLimitError(
            f"{n_phases:.4g} field phases (n_realizations x {ms.n_modes} modes) "
            f"exceed the configured hard limit {MAX_CORRELATION_PHASES}"
        )
    if sample_dt is None:
        # at most an eighth of the cutoff period, on the comb's own grid
        sample_dt = 2 * np.pi / (ms.delta_omega * np.ceil(8 * ms.omega_cut / ms.delta_omega))
    if not sample_dt > 0:
        raise ConfigurationError(f"sample_dt must be positive, got {sample_dt}")
    if window is None:
        window = (0.0, ms.recurrence_time / ms.oversample)
    t_lo, t_hi = window
    if t_hi <= t_lo:
        raise ConfigurationError("window must have positive length")
    lags = np.atleast_1d(np.asarray(lags, dtype=np.float64))
    steps = np.round(lags / sample_dt)
    if not np.all(steps >= 0):
        raise ConfigurationError("lags must be non-negative")
    n_samp = np.floor((t_hi - t_lo) / sample_dt) + 1
    if not n_samp <= MAX_CORRELATION_SAMPLES:
        raise ResourceLimitError(
            f"sample count {n_samp:.4g} per realization (sample_dt = {sample_dt:g}) "
            f"exceeds the configured hard limit {MAX_CORRELATION_SAMPLES}"
        )
    n_samp = int(n_samp)
    # checked on floats: a stride too large for the window may not fit an int
    if n_samp - steps.max() < 16:
        raise StatisticsError("window too short for the requested lags")
    strides = steps.astype(int)
    lags_used = strides * sample_dt

    synth = _grid_synthesizer(ms, t_lo, sample_dt, n_samp, "sample_dt")
    parts = pool.split(range(n_realizations), min(pool.cpu_count(), n_realizations))
    state = (ms, seed, synth, n_samp - int(strides.max()), strides)
    per_real = np.vstack(pool.fork_map(_correlation_rows, state, parts))
    est = per_real.mean(axis=0)
    # delete-one jackknife over realizations
    n = per_real.shape[0]
    loo = (est * n - per_real) / (n - 1)
    se = np.sqrt((n - 1) / n * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    return lags_used, est, se
