"""Transition matrices and the algebraic identities the simulation must meet.

The stationary regime is predicted by matrices x_nk, p_nk of dipolar response
amplitudes organized over stationary states, with p_nk = -i m omega_kn x_nk
and omega_kn = (E_k - E_n)/hbar.  Finite truncation corrupts the outermost
rows/columns (most visibly the commutator corner), so identities are only
asserted on an inner "trusted" block; the default margin is n_states/5.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import eigh

from .errors import ConfigurationError, ConvergenceError, NumericsError, ResourceLimitError
from .forces import ForceModel
from .zpf import PhysicalScales

__all__ = [
    "TransitionMatrix",
    "oscillator_matrices",
    "diagonalize_potential",
    "commutator_matrix",
    "trk_sum",
    "heisenberg_product",
]

# hard limit on a basis (basis_size, or the oscillator's n_states): one
# complex matrix of that order takes 256 MB
MAX_BASIS_SIZE = 4000


def _check_basis(name: str, size: int) -> None:
    if size > MAX_BASIS_SIZE:
        raise ResourceLimitError(
            f"{name} = {size} exceeds the configured hard limit {MAX_BASIS_SIZE}"
        )


@dataclass(frozen=True)
class TransitionMatrix:
    """Energies, x and p matrix elements, and transition frequencies."""

    scales: PhysicalScales
    energies: np.ndarray = field(repr=False)
    x_elems: np.ndarray = field(repr=False)
    p_elems: np.ndarray = field(repr=False)
    trusted_margin: int = 0

    def __post_init__(self):
        n = self.energies.size
        if self.x_elems.shape != (n, n) or self.p_elems.shape != (n, n):
            raise ConfigurationError("matrix shapes must match the number of states")
        if np.any(np.diff(self.energies) < -1e-12):
            raise ConfigurationError("energies must be ascending")

    @property
    def n_states(self) -> int:
        return int(self.energies.size)

    @property
    def n_trusted(self) -> int:
        return self.n_states - self.trusted_margin

    @property
    def omegas(self) -> np.ndarray:
        """omega_kn[n, k] = (E_k - E_n)/hbar."""
        e = self.energies
        return (e[None, :] - e[:, None]) / self.scales.hbar

    def to_dict(self) -> dict:
        def c2pairs(mat):
            return [[[float(v.real), float(v.imag)] for v in row] for row in mat]

        return {
            "scales": asdict(self.scales),
            "energies": [float(e) for e in self.energies],
            "x_elems": c2pairs(self.x_elems),
            "p_elems": c2pairs(self.p_elems),
            "trusted_margin": self.trusted_margin,
        }


def oscillator_matrices(scales: PhysicalScales, n_states: int) -> TransitionMatrix:
    """Analytic harmonic-oscillator matrices: x couples n <-> n+1 only,
    |x_{n,n+1}|^2 = hbar (n+1) / (2 m omega0), E_n = hbar omega0 (n + 1/2)."""
    if n_states < 2:
        raise ConfigurationError("n_states must be >= 2")
    _check_basis("n_states", n_states)
    hbar, m, w0 = scales.hbar, scales.m, scales.omega0
    n = np.arange(n_states)
    energies = hbar * w0 * (n + 0.5)
    x = np.zeros((n_states, n_states), dtype=complex)
    off = np.sqrt(hbar * (n[:-1] + 1) / (2 * m * w0))
    x[n[:-1], n[:-1] + 1] = off
    x[n[:-1] + 1, n[:-1]] = off
    omega_kn = (energies[None, :] - energies[:, None]) / hbar
    p = -1j * m * omega_kn * x
    return TransitionMatrix(
        scales=scales, energies=energies, x_elems=x, p_elems=p,
        trusted_margin=max(1, n_states // 5),
    )


def _ladder_ops(basis_size: int, m: float, omega_b: float, hbar: float):
    n = np.arange(basis_size)
    a = np.zeros((basis_size, basis_size))
    a[n[:-1], n[:-1] + 1] = np.sqrt(n[1:])
    x = np.sqrt(hbar / (2 * m * omega_b)) * (a + a.T)
    p = 1j * np.sqrt(hbar * m * omega_b / 2) * (a.T - a)
    return x, p


def _hamiltonian(scales: PhysicalScales, force: ForceModel, basis_size: int):
    """H = p^2/2m + V(x), x and p in a harmonic-oscillator basis of basis_size.

    The basis is centered on the potential minimum with the local curvature
    frequency.  Operators are built in a working basis padded by the potential
    degree so the retained block of H is free of matrix-power edge artifacts.
    """
    hbar, m = scales.hbar, scales.m
    x_eq = force.equilibrium()
    omega_b = force.curvature_frequency(m)
    v_coeffs = np.array(force._v)
    v_coeffs[0] -= np.polynomial.polynomial.polyval(x_eq, v_coeffs)  # V(x_eq) = 0
    deg = len(v_coeffs) - 1
    work = basis_size + deg + 2
    xi, p = _ladder_ops(work, m, omega_b, hbar)
    x = x_eq * np.eye(work) + xi
    h = (p @ p).real / (2 * m)
    xpow = np.eye(work)
    for c in v_coeffs:
        if c:
            h = h + c * xpow
        xpow = xpow @ x
    return tuple(a[:basis_size, :basis_size] for a in (h, x, p))


def diagonalize_potential(
    scales: PhysicalScales, force: ForceModel, basis_size: int
) -> TransitionMatrix:
    """Numerical states for a confining polynomial potential.

    Keeps the lowest n_states = basis_size // 4 states (truncation margin for
    variational convergence) and transforms x and p to the eigenbasis.
    Raises ConvergenceError when E_0 still shifts by more than 1e-8 under a
    basis_size -> basis_size + 20 refinement.
    """
    if basis_size < 8:
        raise ConfigurationError("basis_size must be >= 8")
    _check_basis("basis_size", basis_size)
    if not force.is_confining():
        raise ConfigurationError("potential is not confining; diagonalization refused")
    h, x, p = _hamiltonian(scales, force, basis_size)
    energies, u = eigh(h)
    e_check = np.linalg.eigvalsh(_hamiltonian(scales, force, basis_size + 20)[0])
    if abs(e_check[0] - energies[0]) > 1e-8:
        raise ConvergenceError(
            f"ground state not converged: E0 shifts by {abs(e_check[0] - energies[0]):.3e} "
            f"for basis {basis_size} -> {basis_size + 20}"
        )
    n_states = basis_size // 4
    uk = u[:, :n_states]
    x_e = uk.T @ x @ uk
    p_e = uk.conj().T @ p @ uk
    return TransitionMatrix(
        scales=scales,
        energies=energies[:n_states],
        x_elems=x_e.astype(complex),
        p_elems=p_e,
        trusted_margin=max(1, n_states // 5),
    )


def commutator_matrix(tm: TransitionMatrix) -> np.ndarray:
    """x p - p x.  The inner trusted block should equal i hbar * identity;
    the truncation corner compensates the diag so the trace is exactly zero."""
    return tm.x_elems @ tm.p_elems - tm.p_elems @ tm.x_elems


def _check_trusted(tm: TransitionMatrix, n: int, op: str):
    if not 0 <= n < tm.n_states:
        raise ConfigurationError(f"state {n} outside the matrix")
    if n >= tm.n_trusted:
        warnings.warn(
            f"{op}: state {n} lies in the truncation margin "
            f"(trusted block is 0..{tm.n_trusted - 1}); value may be corrupted",
            stacklevel=3,
        )


def trk_sum(tm: TransitionMatrix, n: int) -> float:
    """sum_k omega_kn |x_nk|^2; equals hbar/2m for every state of every
    confining potential (state- and potential-independent)."""
    _check_trusted(tm, n, "trk_sum")
    return float(np.sum(tm.omegas[n] * np.abs(tm.x_elems[n]) ** 2))


def heisenberg_product(tm: TransitionMatrix, n: int) -> dict:
    """Response-coefficient sums (Dx)^2 = sum_{k!=n} |x_nk|^2 and likewise
    for p; their product is bounded below by (hbar/2)^2."""
    _check_trusted(tm, n, "heisenberg_product")
    mask = np.arange(tm.n_states) != n
    dx2 = float(np.sum(np.abs(tm.x_elems[n, mask]) ** 2))
    dp2 = float(np.sum(np.abs(tm.p_elems[n, mask]) ** 2))
    product = dx2 * dp2
    bound = (tm.scales.hbar / 2) ** 2
    if product < bound - 1e-10:
        raise NumericsError(
            f"uncertainty product {product:.12g} fell below the bound {bound:.12g} "
            f"for state {n}; matrix is corrupted"
        )
    return {"dx2": dx2, "dp2": dp2, "product": product, "bound": bound}
