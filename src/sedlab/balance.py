"""Energy-flow ledger: measured radiated/absorbed power, decay predictions,
and the diffusion traces of the stationary regime.

Measurements come from ensemble reports (time-and-ensemble averages over a
stationary window); predictions come from the transition-matrix layer.  All
charge factors are expressed through tau, so the emission coefficient reads

    A_{n->k} = (2 m tau / hbar) * omega^3 * |x_nk|^2,   omega = (E_n - E_k)/hbar > 0,

which gives tau*omega0^2 for the oscillator's 1->0 line.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ensemble import _MEMBER_BLOCK, EnsembleReport, _blocks, _mean_se, _stationary
from .errors import ConfigurationError
from .matrices import TransitionMatrix, _check_trusted
from .zpf import PhysicalScales

__all__ = [
    "BalanceReport",
    "DecayPrediction",
    "measure_balance",
    "predict_decay",
    "trace_dpp",
    "trace_dpx",
]


@dataclass(frozen=True)
class BalanceReport:
    """Stationary energy flows with standard errors."""

    radiated: float
    radiated_se: float
    absorbed: float
    absorbed_se: float
    net_drift: float
    net_drift_se: float
    window: tuple[float, float]

    def balanced_within(self, n_sigma: float = 3.0) -> bool:
        total = self.radiated + self.absorbed
        se = np.hypot(self.radiated_se, self.absorbed_se)
        return abs(total) <= n_sigma * se


@dataclass(frozen=True)
class DecayPrediction:
    """Spontaneous-emission ledger for one stationary state."""

    state: int
    transitions: list  # (k, omega, a_coeff, power) per downward transition
    total_energy_rate: float  # d<H>/dt, non-positive

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "transitions": [
                {"to": k, "omega": w, "a_coeff": a, "power": pw}
                for k, w, a, pw in self.transitions
            ],
            "total_energy_rate": self.total_energy_rate,
        }


def measure_balance(report: EnsembleReport, window: tuple[float, float] | None = None) -> BalanceReport:
    """Measured energy flows over a stationary window.

    radiated = <(tau/m) f'(x) p xdot>  (order-reduced radiation-reaction power)
    absorbed = (1/m) <p eE>            (the D_pp estimate over m)
    net_drift = per-trajectory linear fit of H(t), then ensemble mean.

    For the order-reduced equation radiated + absorbed integrates to dH/dt
    exactly, so at stationarity the two cancel within error.

    The per-trajectory values are computed a block of _MEMBER_BLOCK members
    at a time, in member order, over row slices of the window
    (ensemble._blocks); each member's time average sums its samples in the
    window's order, so the blocks change no bit.
    """
    window, t, (x, p, e) = _stationary(report, window, report.x, report.p, report.drive)
    cfg = report.config
    m = cfg.scales.m
    tau = cfg.scales.tau

    tc = t - t.mean()
    tc2 = (tc**2).sum()
    per = np.empty((3, len(x)))  # radiated, absorbed and drift per trajectory
    for rows in _blocks(len(x), _MEMBER_BLOCK):
        xb, pb = x[rows], p[rows]
        per[0, rows] = (tau / m * cfg.force.fp(xb) * pb * (pb / m)).mean(axis=1)
        per[1, rows] = (pb * e[rows]).mean(axis=1) / m
        h_series = pb**2 / (2 * m) + cfg.force.potential(xb)
        per[2, rows] = (h_series * tc).sum(axis=1) / tc2

    (rad, rad_se), (ab, ab_se), (dr, dr_se) = (map(float, _mean_se(v)) for v in per)
    return BalanceReport(
        radiated=rad, radiated_se=rad_se, absorbed=ab, absorbed_se=ab_se,
        net_drift=dr, net_drift_se=dr_se, window=window,
    )


def predict_decay(tm: TransitionMatrix, scales: PhysicalScales, n: int) -> DecayPrediction:
    """Einstein coefficients for the downward transitions of state n.

    The ground state has no downward transitions: empty ledger, zero rate.
    """
    _check_trusted(tm, n, "predict_decay")
    hbar, m, tau = scales.hbar, scales.m, scales.tau
    transitions = []
    total = 0.0
    for k in range(tm.n_states):
        omega = (tm.energies[n] - tm.energies[k]) / hbar
        if omega <= 0:
            continue
        x2 = float(np.abs(tm.x_elems[n, k]) ** 2)
        if x2 == 0.0:
            continue
        a = 2 * m * tau * omega**3 * x2 / hbar
        power = hbar * omega * a
        transitions.append((k, float(omega), float(a), float(power)))
        total += power
    return DecayPrediction(state=n, transitions=transitions, total_energy_rate=-total)


def trace_dpp(tm: TransitionMatrix, scales: PhysicalScales, n: int, omega_cut: float) -> float:
    """Stationary momentum-diffusion trace from the matrix layer.

    The delta-function reduction of the field correlation leaves

        D_pp(n) = m^2 tau sum_k |x_nk|^2 omega_kn |omega_kn|^3,

    independent of the cutoff once omega_cut exceeds every contributing
    |omega_kn|; transitions beyond the cutoff are dropped with a warning.
    For the oscillator ground state this is m tau hbar omega0^3 / 2.
    """
    _check_trusted(tm, n, "trace_dpp")
    m, tau = scales.m, scales.tau
    omegas = tm.omegas[n]
    x2 = np.abs(tm.x_elems[n]) ** 2
    keep = np.abs(omegas) <= omega_cut
    dropped = (~keep) & (x2 > 1e-14)
    if np.any(dropped):
        warnings.warn(
            f"trace_dpp: dropped {int(dropped.sum())} transition(s) beyond the cutoff",
            stacklevel=2,
        )
    return float(m**2 * tau * np.sum(x2[keep] * omegas[keep] * np.abs(omegas[keep]) ** 3))


def trace_dpx(
    tm: TransitionMatrix,
    scales: PhysicalScales,
    n: int,
    omega_cut: float,
    subtract_free_particle: bool = True,
) -> float:
    """Cutoff-dependent position-diffusion trace (radiative level-shift trace).

    Reduces to the principal-value frequency integral

        D_px(n; W) = (2 m tau / pi) sum_k |x_nk|^2 omega_kn
                       PV int_0^W [ w^3/(omega_kn^2 - w^2) + w ] dw,

    where the +w counter-term removes the state-independent free-particle
    contribution (the sum rule makes that term the same for every state), so
    what remains is the state-dependent, logarithmically growing part.  With
    subtract_free_particle=False the counter-term is omitted; that raw value
    grows like -tau hbar W^2/(2 pi) and is what the simulated stationary
    e<x E> correlator measures.  The integrand is a^2 w/(a^2 - w^2) with
    a = |omega_kn|, whose principal value is -(a^2/2) ln(|W^2 - a^2|/a^2), so

        D_px(n; W) = -(m tau / pi) sum_k |x_nk|^2 omega_kn^3
                       ln(|W^2 - omega_kn^2| / omega_kn^2),

    Bethe's logarithm (H. A. Bethe, Phys. Rev. 72, 339 (1947)).  A line
    above the cutoff has no pole in [0, W] and the same term; a line at the
    cutoff, or a cutoff below every line, is refused.  The result is an
    explicit function of the cutoff and must be reported with it.
    """
    _check_trusted(tm, n, "trace_dpx")
    m, tau = scales.m, scales.tau
    omegas = tm.omegas[n]
    x2 = np.abs(tm.x_elems[n]) ** 2
    lines = (x2 > 1e-14) & (np.abs(omegas) > 1e-12)
    w_kn = omegas[lines]
    a = np.abs(w_kn)
    if a.size and (omega_cut <= a.min() or np.any(a == omega_cut)):
        raise ConfigurationError(
            f"omega_cut = {omega_cut:g} must exceed the lowest contributing "
            f"|omega_kn| ({a.min():g}) and equal none of them"
        )
    if tau == 0.0:
        return 0.0

    bethe_log = np.log(np.abs((omega_cut - a) * (omega_cut + a)) / a**2)
    value = float(-(m * tau / np.pi) * np.sum(x2[lines] * w_kn**3 * bethe_log))
    if not subtract_free_particle:
        # undo the counter-term using the matrix's own sum rule value
        # (equal to hbar/2m for trusted states)
        rule = float(np.sum(x2 * omegas))
        value -= float(2 * m * tau / np.pi * rule * omega_cut**2 / 2.0)
    return value
