import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates.modes import (
    CavityGeometry,
    ModeAmplitudes,
    ModeIndex,
    mode_amplitudes,
    wave_vector,
)
from casimir_plates.stress import (
    sigma_zz_direct,
    sigma_zz_from_boundary_averages,
    sigma_zz_mode,
    stress_tensor,
)
from casimir_plates.units import NATURAL, SI

geometries = st.builds(
    CavityGeometry,
    a=st.floats(min_value=0.2, max_value=4.0),
    L=st.floats(min_value=0.2, max_value=4.0),
)
mode_indices = st.builds(
    ModeIndex,
    n_x=st.integers(1, 6), n_y=st.integers(1, 6), n_z=st.integers(1, 6),
)


class TestStressTensor:
    def test_pure_normal_electric_field(self):
        # E along z pulls along z and presses sideways
        m = stress_tensor([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], NATURAL)
        assert m[2, 2] == pytest.approx(2.0)
        assert m[0, 0] == pytest.approx(-2.0)
        assert m[1, 1] == pytest.approx(-2.0)
        assert np.count_nonzero(m - np.diag(np.diag(m))) == 0

    def test_pure_tangential_magnetic_field(self):
        m = stress_tensor([0.0, 0.0, 0.0], [0.0, 3.0, 0.0], NATURAL)
        assert m[2, 2] == pytest.approx(-4.5)

    def test_off_diagonal_terms(self):
        m = stress_tensor([1.0, 2.0, 0.0], [0.0, 0.0, 0.0], NATURAL)
        assert m[0, 1] == pytest.approx(2.0)
        assert m[1, 0] == pytest.approx(2.0)

    def test_batch_shape(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(4, 5, 3))
        b = rng.normal(size=(4, 5, 3))
        out = stress_tensor(e, b, NATURAL)
        assert out.shape == (4, 5, 3, 3)
        single = stress_tensor(e[1, 2], b[1, 2], NATURAL)
        assert np.allclose(out[1, 2], single)

    def test_symmetry_and_trace(self):
        rng = np.random.default_rng(11)
        e = rng.normal(size=(10, 3))
        b = rng.normal(size=(10, 3))
        m = stress_tensor(e, b, NATURAL)
        assert np.allclose(m, np.swapaxes(m, -1, -2), rtol=0, atol=0)
        # trace = -(eps0 E^2 + B^2/mu0)/2 in any units
        expected = -0.5 * (np.sum(e * e, -1) + np.sum(b * b, -1))
        assert np.allclose(np.trace(m, axis1=-2, axis2=-1), expected)

    def test_si_units_scale(self):
        e_field = [0.0, 0.0, 1.0]
        out = stress_tensor(e_field, [0.0, 0.0, 0.0], SI)
        assert out[2, 2] == pytest.approx(SI.epsilon_0 / 2.0, rel=1e-15)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            stress_tensor([1.0, 2.0], [0.0, 0.0, 0.0], NATURAL)


class TestModeStressClosedForm:
    def test_frozen_fundamental_value(self):
        # -(1/4) k_z^2 / k at unit geometry: -pi / (4 sqrt(3))
        geom = CavityGeometry(a=1.0, L=1.0)
        got = sigma_zz_mode(ModeIndex(1, 1, 1), geom, NATURAL)
        assert got == pytest.approx(-0.45344984105855446, rel=1e-15)
        assert wave_vector(ModeIndex(1, 1, 1), geom).kappa == pytest.approx(
            math.sqrt(2.0) * math.pi, rel=1e-15)

    def test_small_kappa_limit(self):
        # for kappa << k_z the stress approaches -k_z hbar c / (4 L^2 a)
        geom = CavityGeometry(a=1.0, L=1e6)
        got = sigma_zz_mode(ModeIndex(1, 1, 1), geom, NATURAL)
        assert got * geom.L**2 == pytest.approx(-math.pi / 4.0,
                                                         rel=1e-9)

    @given(mode=mode_indices, geom=geometries)
    def test_always_negative(self, mode, geom):
        assert sigma_zz_mode(mode, geom, NATURAL) < 0.0

    @given(mode=mode_indices, geom=geometries)
    def test_monotone_in_n_z(self, mode, geom):
        # more plate-normal structure presses harder
        heavier = ModeIndex(mode.n_x, mode.n_y, mode.n_z + 1)
        assert (sigma_zz_mode(heavier, geom, NATURAL)
                < sigma_zz_mode(mode, geom, NATURAL))


class TestDirectQuadrature:
    @pytest.mark.parametrize("geom", [CavityGeometry(a=1.0, L=1.0),
                                      CavityGeometry(a=0.7, L=2.0)])
    @pytest.mark.parametrize("mode", [ModeIndex(1, 1, 1), ModeIndex(2, 1, 3)])
    def test_matches_closed_form(self, geom, mode):
        want = sigma_zz_mode(mode, geom, NATURAL)
        got = sigma_zz_direct(mode, geom, NATURAL, tol=1e-12)
        assert got == pytest.approx(want, rel=1e-10)

    def test_polarization_independence(self):
        geom = CavityGeometry(a=0.7, L=2.0)
        mode = ModeIndex(2, 1, 3)
        values = [sigma_zz_direct(mode, geom, NATURAL, tol=1e-12,
                                  polarization_angle=ang)
                  for ang in (0.0, 0.6, math.pi / 2.0)]
        assert max(values) - min(values) <= 1e-12 * abs(values[0])

    def test_top_plate_equals_bottom(self):
        geom = CavityGeometry(a=1.0, L=1.0)
        mode = ModeIndex(1, 2, 2)
        bottom = sigma_zz_direct(mode, geom, NATURAL, tol=1e-12)
        top = sigma_zz_direct(mode, geom, NATURAL, tol=1e-12,
                              plate="top")
        assert top == pytest.approx(bottom, rel=1e-12)

    def test_rejects_unknown_plate(self):
        with pytest.raises(ValueError):
            sigma_zz_direct(ModeIndex(1, 1, 1), CavityGeometry(a=1.0, L=1.0),
                            NATURAL, plate="side")


class TestBoundaryAverageAssembly:
    def test_matches_closed_form_and_cancels_a_z(self):
        geom = CavityGeometry(a=1.0, L=1.0)
        mode = ModeIndex(1, 1, 2)
        wv = wave_vector(mode, geom)
        want = sigma_zz_mode(mode, geom, NATURAL)
        values = []
        for angle in (0.0, 0.3, math.pi / 2.0):
            amp = mode_amplitudes(mode, geom, NATURAL, angle)
            values.append(sigma_zz_from_boundary_averages(wv, amp, NATURAL))
        for value in values:
            assert value == pytest.approx(want, rel=1e-13)

    @settings(deadline=None)
    @given(mode=mode_indices, geom=geometries,
           angle=st.floats(0.0, 2.0 * math.pi))
    def test_agrees_with_closed_form_everywhere(self, mode, geom, angle):
        wv = wave_vector(mode, geom)
        amp = mode_amplitudes(mode, geom, NATURAL, angle)
        got = sigma_zz_from_boundary_averages(wv, amp, NATURAL)
        want = sigma_zz_mode(mode, geom, NATURAL)
        assert got == pytest.approx(want, rel=1e-12)
