import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sedlab as sl
from sedlab import forces

from oracles import fd_check


class TestForceModels:
    def test_harmonic_values(self):
        f = sl.harmonic(2.0, m=1.5)
        assert f.f(0.3) == pytest.approx(-1.5 * 4.0 * 0.3)
        assert f.fp(0.3) == pytest.approx(-6.0)
        assert f.potential(1.0) == pytest.approx(0.5 * 1.5 * 4.0)

    def test_quartic_values(self):
        f = sl.quartic(1.0, 0.1)
        x = 0.7
        assert f.f(x) == pytest.approx(-x - 0.1 * x**3)
        assert f.potential(x) == pytest.approx(0.5 * x**2 + 0.025 * x**4)

    def test_derivative_consistency_fd(self):
        points = [-2.0, -0.5, 0.0, 0.3, 1.7]
        for force in (sl.harmonic(1.0), sl.quartic(1.0, 0.1),
                      sl.polynomial([0.0, -1.0, 0.2, -0.3])):
            assert fd_check(force.f, force.fp, points) < 1e-6

    @given(c1=st.floats(-5.0, -0.1), c2=st.floats(-1.0, 1.0), c3=st.floats(-1.0, 0.0))
    @settings(max_examples=40, deadline=None)
    def test_derivative_consistency_random_polynomials(self, c1, c2, c3):
        force = sl.polynomial([0.0, c1, c2, c3])
        points = [-1.5, -0.4, 0.2, 1.1]
        assert fd_check(force.f, force.fp, points) < 1e-6

    def test_equilibrium_unique(self):
        assert sl.harmonic(1.0).equilibrium() == pytest.approx(0.0)
        assert sl.quartic(1.0, 0.1).equilibrium() == pytest.approx(0.0)
        shifted = sl.polynomial([1.0, -1.0])  # f = 1 - x, equilibrium at x = 1
        assert shifted.equilibrium() == pytest.approx(1.0)
        assert shifted.potential(1.0) == pytest.approx(0.0)

    def test_double_well_rejected(self):
        double = sl.polynomial([0.0, 1.0, 0.0, -1.0])  # f = x - x^3
        with pytest.raises(sl.ConfigurationError):
            double.equilibrium()

    def test_confining_classification(self):
        assert sl.harmonic(1.0).is_confining()
        assert sl.quartic(1.0, 0.1).is_confining()
        assert not sl.polynomial([0.0, 1.0]).is_confining()  # f = +x, repulsive

    def test_must_depend_on_x(self):
        with pytest.raises(sl.ConfigurationError):
            sl.polynomial([1.0])


class TestHornerEvaluation:
    @pytest.mark.parametrize("force", [
        sl.harmonic(1.0), sl.quartic(1.0, 0.1),
        sl.polynomial([0.3, -1.0, 0.2, -0.3, 0.01]),
    ], ids=lambda f: f.kind)
    def test_bit_identical_to_numpy_polyval(self, force):
        P = np.polynomial.polynomial
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 0.3, -1.7])
        c = np.asarray(force.coeffs, dtype=float)
        for cached in (force._c0, force._c1, force._c2, force._c3):
            assert np.array_equal(cached, c)
            with np.errstate(all="ignore"):
                assert forces._polyval(cached, x).tobytes() == P.polyval(x, c).tobytes()
            scalar = forces._polyval(cached, 0.7)
            assert type(scalar) is np.float64
            assert scalar == P.polyval(0.7, c)
            c = P.polyder(c)  # one order at a time, as the model caches them


class TestScalesValidation:
    def test_positivity(self):
        with pytest.raises(sl.ConfigurationError):
            sl.PhysicalScales(hbar=-1.0)
        with pytest.raises(sl.ConfigurationError):
            sl.PhysicalScales(tau=-1e-3)

    def test_narrow_resonance_guard(self):
        with pytest.raises(sl.ConfigurationError):
            sl.PhysicalScales(tau=0.2)  # tau*omega0 = 0.2 > 0.1
        with pytest.warns(UserWarning):
            sl.PhysicalScales(tau=0.08)  # warning band (0.05, 0.1]
