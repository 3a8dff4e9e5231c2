import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sedlab as sl

from oracles import grid_ground_state_richardson


class TestOscillatorMatrices:
    def test_ladder_elements(self, oscillator_tm):
        tm = oscillator_tm
        assert abs(tm.x_elems[0, 1]) == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert abs(tm.x_elems[0, 1]) == pytest.approx(0.70711, rel=1e-4)
        # selection rule: only n <-> n+1 couple
        assert tm.x_elems[0, 2] == 0.0
        assert tm.x_elems[1, 3] == 0.0

    def test_energies(self, oscillator_tm):
        np.testing.assert_allclose(oscillator_tm.energies,
                                   np.arange(8) + 0.5, rtol=1e-15)
        assert oscillator_tm.energies[0] == pytest.approx(0.5)

    def test_hermiticity_and_kinematics(self, oscillator_tm):
        tm = oscillator_tm
        np.testing.assert_allclose(tm.x_elems, tm.x_elems.conj().T, atol=1e-15)
        np.testing.assert_allclose(tm.p_elems, tm.p_elems.conj().T, atol=1e-15)
        rebuilt = -1j * sl.REF.m * tm.omegas * tm.x_elems
        np.testing.assert_allclose(rebuilt, tm.p_elems, atol=1e-14)


class TestCommutator:
    def test_oscillator_diagonal_and_corner(self, oscillator_tm):
        c = sl.commutator_matrix(oscillator_tm)
        diag = np.diag(c)
        np.testing.assert_allclose(diag[:7], 1j * np.ones(7), atol=1e-12)
        assert diag[7] == pytest.approx(-7j, abs=1e-12)
        off = c - np.diag(diag)
        assert np.max(np.abs(off)) < 1e-12

    @pytest.mark.parametrize("n_states", [4, 8, 16])
    def test_trace_exactly_zero(self, n_states):
        tm = sl.oscillator_matrices(sl.REF, n_states)
        c = sl.commutator_matrix(tm)
        assert abs(np.trace(c)) < 1e-12

    def test_quartic_inner_block(self, quartic_tm):
        c = sl.commutator_matrix(quartic_tm)
        inner = c[:40, :40]
        assert np.max(np.abs(inner - 1j * np.eye(40))) < 1e-6


class TestDiagonalization:
    def test_harmonic_reproduces_analytic(self):
        tm_num = sl.diagonalize_potential(sl.REF, sl.harmonic(1.0), 64)
        tm_ana = sl.oscillator_matrices(sl.REF, tm_num.n_states)
        np.testing.assert_allclose(tm_num.energies, tm_ana.energies, atol=1e-10)
        np.testing.assert_allclose(np.abs(tm_num.x_elems), np.abs(tm_ana.x_elems),
                                   atol=1e-10)

    def test_quartic_ground_state_vs_grid_oracle(self, quartic_tm):
        lam = 0.1
        grid = grid_ground_state_richardson(
            lambda x: 0.5 * x**2 + lam * x**4 / 4.0, hbar=1.0, m=1.0, x_max=9.0
        )
        assert abs(quartic_tm.energies[0] - grid[0]) < 1e-6
        assert quartic_tm.energies[0] == pytest.approx(0.5173648, abs=2e-6)

    def test_parity_selection_rule(self, quartic_tm):
        # states of an even potential have definite parity; x couples only
        # opposite parities, so |x_nk| vanishes when n,k share parity
        x = np.abs(quartic_tm.x_elems)
        n = np.arange(quartic_tm.n_states)
        same_parity = (n[:, None] % 2) == (n[None, :] % 2)
        assert np.max(x[same_parity]) < 1e-10

    def test_kinematic_consistency(self, quartic_tm):
        tm = quartic_tm
        nt = tm.n_trusted
        rebuilt = -1j * sl.REF.m * tm.omegas * tm.x_elems
        assert np.max(np.abs((rebuilt - tm.p_elems)[:nt, :nt])) < 1e-8

    def test_nonconfining_rejected(self):
        with pytest.raises(sl.ConfigurationError):
            sl.diagonalize_potential(sl.REF, sl.polynomial([0.0, 1.0]), 64)

    def test_convergence_error_for_tiny_basis(self):
        with pytest.raises(sl.ConvergenceError):
            sl.diagonalize_potential(sl.REF, sl.quartic(1.0, 0.5), 8)

    def test_state_count_policy(self, quartic_tm):
        assert quartic_tm.n_states == 50
        assert quartic_tm.trusted_margin == 10
        assert quartic_tm.n_trusted == 40


class TestSumRules:
    def test_trk_oscillator_exact(self, oscillator_tm):
        assert sl.trk_sum(oscillator_tm, 0) == pytest.approx(0.5, abs=1e-12)
        assert sl.trk_sum(oscillator_tm, 3) == pytest.approx(0.5, abs=1e-12)

    def test_trk_quartic_all_trusted(self, quartic_tm):
        for n in range(quartic_tm.n_trusted):
            assert sl.trk_sum(quartic_tm, n) == pytest.approx(0.5, abs=1e-6)

    def test_trk_potential_independence(self):
        # a softer and a stiffer confining polynomial both satisfy the rule
        for force in (sl.quartic(1.3, 0.05), sl.polynomial([0.0, -1.0, 0.0, -0.2, 0.0, -0.02])):
            tm = sl.diagonalize_potential(sl.REF, force, 160)
            for n in range(0, tm.n_trusted, 7):
                assert sl.trk_sum(tm, n) == pytest.approx(0.5, abs=1e-6)

    def test_margin_state_warns(self, oscillator_tm):
        with pytest.warns(UserWarning):
            sl.trk_sum(oscillator_tm, oscillator_tm.n_states - 1)


class TestHeisenberg:
    def test_oscillator_ground_state_saturates(self, oscillator_tm):
        h = sl.heisenberg_product(oscillator_tm, 0)
        assert h["product"] == pytest.approx(0.25, abs=1e-12)
        assert h["bound"] == 0.25

    def test_oscillator_excited(self, oscillator_tm):
        h = sl.heisenberg_product(oscillator_tm, 2)
        assert h["dx2"] == pytest.approx(2.5, abs=1e-12)
        assert h["dp2"] == pytest.approx(2.5, abs=1e-12)
        assert h["product"] == pytest.approx(6.25, abs=1e-11)

    def test_quartic_ground_state_above_bound(self, quartic_tm):
        h = sl.heisenberg_product(quartic_tm, 0)
        assert h["product"] > 0.25
        assert h["product"] == pytest.approx(0.2501358, rel=1e-4)


_DIAGONALIZE = """
import sys
import sedlab as sl
tm = sl.diagonalize_potential(sl.REF, sl.quartic(1.0, 0.1), 200)
for a in (tm.energies, tm.x_elems, tm.p_elems):
    sys.stdout.buffer.write(a.tobytes())
"""


def test_diagonalization_bits_do_not_depend_on_blas_threads():
    # OpenBLAS splits its work by its thread count, which moved the last
    # bits of this basis between one thread and two
    src = str(Path(sl.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _DIAGONALIZE], env=env,
                              capture_output=True, timeout=120, check=True)
        out.append(proc.stdout)
    assert len(out[0]) == 50 * 8 + 2 * 50 * 50 * 16
    assert out[0] == out[1]


def test_one_blas_thread_restores_each_count():
    # every loaded OpenBLAS runs the body on one thread and gets its own
    # count back afterwards, also when the body raises
    import ctypes

    from sedlab.matrices import _BLAS_THREAD_FUNCTIONS, _one_blas_thread

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    counters = []
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        names = [pair for pair in _BLAS_THREAD_FUNCTIONS if hasattr(lib, pair[0])]
        if names:
            counters.append((getattr(lib, names[0][0]), getattr(lib, names[0][1])))
    assert counters  # numpy's and scipy's, in the wheels
    before = [get() for get, _ in counters]
    try:
        for _, put in counters:
            put(2)
        with pytest.raises(sl.ConvergenceError):
            with _one_blas_thread():
                assert [get() for get, _ in counters] == [1] * len(counters)
                raise sl.ConvergenceError("body failed")
        assert [get() for get, _ in counters] == [2] * len(counters)
    finally:
        for (_, put), count in zip(counters, before):
            put(count)
