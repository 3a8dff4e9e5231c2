"""Binding force models.

All supported forces are polynomials in x, stored by ascending coefficients,
so f, f' and the potential V = -int f dx are exact.  The potential constant
is fixed by V(equilibrium) = 0; only energy differences matter.  The
coefficients of f'' and f''' are cached too (_c2, _c3).  The step loops that
dynamics emits (dynamics._rk4_lane over _c0 and _c1, dynamics._hierarchy_lane
over all four) unroll Horner's rule over them, holding each coefficient as a
value.  The coefficients of -int_0^x f, the potential before its constant,
are derived once too (_v), for ForceModel.potential and the matrix layer's
Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = ["ForceModel", "harmonic", "quartic", "polynomial"]


def _polyval(coeffs: tuple, x):
    """Horner evaluation, bit-identical to np.polynomial.polynomial.polyval.

    The steps are numpy's own (acc = c[-1] + x*0, then acc = c[k] + acc*x),
    without its per-call coefficient conversion.  `coeffs` holds np.float64
    scalars, so a float x returns np.float64 as polyval does.
    """
    if isinstance(x, (tuple, list)):
        x = np.asarray(x)
    acc = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * x
    return acc


def _polyder(coeffs: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyder(coeffs)


@dataclass(frozen=True)
class ForceModel:
    """Polynomial binding force with exact derivatives and potential.

    escape_bound, when set, marks the trust region: an integrator finding
    |x| beyond it raises EscapeError.  Confining models leave it None.
    """

    kind: str
    coeffs: tuple  # force coefficients, ascending powers of x
    params: dict = field(default_factory=dict)
    escape_bound: float | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.size < 2 or not np.any(c[1:] != 0):
            raise ConfigurationError("force must depend on x")
        # coefficients of f and f' (hot in the integrator loops) and of f''
        # and f''' (for the hierarchy's loop), as tuples of np.float64
        object.__setattr__(self, "_c0", tuple(c))
        object.__setattr__(self, "_c1", tuple(_polyder(c)))
        object.__setattr__(self, "_c2", tuple(_polyder(_polyder(c))))
        object.__setattr__(self, "_c3", tuple(_polyder(_polyder(_polyder(c)))))
        # coefficients of -int_0^x f, the potential before its constant
        object.__setattr__(self, "_v", tuple(-np.polynomial.polynomial.polyint(c)))

    @property
    def _c(self) -> np.ndarray:
        return np.asarray(self._c0)

    def f(self, x):
        return _polyval(self._c0, x)

    def fp(self, x):
        return _polyval(self._c1, x)

    def potential(self, x):
        """V(x) = -int_0^x f + const, with V(equilibrium) = 0."""
        return _polyval(self._v, x) - _polyval(self._v, self.equilibrium())

    def equilibrium(self) -> float:
        """Unique stable zero of f (f = 0, f' < 0); rejects multi-well models."""
        roots = np.polynomial.polynomial.polyroots(self._c)
        real = roots[np.abs(roots.imag) < 1e-9].real
        stable = [r for r in real if self.fp(r) < 0]
        # collapse numerically duplicated roots
        uniq: list[float] = []
        for r in sorted(stable):
            if not uniq or abs(r - uniq[-1]) > 1e-8:
                uniq.append(float(r))
        if len(uniq) != 1:
            raise ConfigurationError(
                f"force model '{self.kind}' has {len(uniq)} stable equilibria; need exactly one"
            )
        return uniq[0]

    def curvature_frequency(self, m: float) -> float:
        """Small-oscillation frequency about the equilibrium, sqrt(-f'(x*)/m)."""
        x_eq = self.equilibrium()
        k = -self.fp(x_eq)
        if k <= 0:
            raise ConfigurationError("equilibrium is not stable")
        return float(np.sqrt(k / m))

    def is_linear(self) -> bool:
        """True when f is affine in x: no coefficient past the linear one."""
        return not np.any(self._c[2:])

    def is_confining(self) -> bool:
        """True when V grows without bound on both sides (leading V term even, positive)."""
        c = self._c
        deg = int(np.max(np.nonzero(c)))
        lead = c[deg]
        return deg % 2 == 1 and lead < 0

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "coeffs": list(self.coeffs), "params": dict(self.params)}
        if self.escape_bound is not None:
            d["escape_bound"] = self.escape_bound
        return d


def harmonic(omega0: float, m: float = 1.0) -> ForceModel:
    """f(x) = -m omega0^2 x."""
    if omega0 <= 0 or m <= 0:
        raise ConfigurationError("omega0 and m must be positive")
    return ForceModel(kind="harmonic", coeffs=(0.0, -m * omega0**2),
                      params={"omega0": omega0, "m": m})


def quartic(omega0: float, lam: float, m: float = 1.0) -> ForceModel:
    """f(x) = -m omega0^2 x - lam x^3, i.e. V = m omega0^2 x^2/2 + lam x^4/4."""
    if omega0 <= 0 or m <= 0:
        raise ConfigurationError("omega0 and m must be positive")
    if lam < 0:
        raise ConfigurationError("lam must be non-negative (confining)")
    return ForceModel(kind="quartic", coeffs=(0.0, -m * omega0**2, 0.0, -lam),
                      params={"omega0": omega0, "lam": lam, "m": m})


def polynomial(coeffs, escape_bound: float | None = None) -> ForceModel:
    """Force from ascending polynomial coefficients, f(x) = sum c_k x^k."""
    return ForceModel(kind="polynomial", coeffs=tuple(float(c) for c in coeffs),
                      params={}, escape_bound=escape_bound)
