import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates.modes import (
    CavityGeometry,
    ModeAmplitudes,
    ModeIndex,
    electric_square_on_grid,
    magnetic_square_on_grid,
    mode_amplitudes,
    wave_vector,
)
from casimir_plates.numerics import mean_over_box
from casimir_plates.stress import (
    sigma_zz_direct,
    sigma_zz_from_boundary_averages,
    sigma_zz_mode,
    stress_tensor,
)

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
        m = stress_tensor([0.0, 0.0, 2.0], [0.0, 0.0, 0.0])
        assert m[2, 2] == pytest.approx(2.0)
        assert m[0, 0] == pytest.approx(-2.0)
        assert m[1, 1] == pytest.approx(-2.0)
        assert np.count_nonzero(m - np.diag(np.diag(m))) == 0

    def test_pure_tangential_magnetic_field(self):
        m = stress_tensor([0.0, 0.0, 0.0], [0.0, 3.0, 0.0])
        assert m[2, 2] == pytest.approx(-4.5)

    def test_off_diagonal_terms(self):
        m = stress_tensor([1.0, 2.0, 0.0], [0.0, 0.0, 0.0])
        assert m[0, 1] == pytest.approx(2.0)
        assert m[1, 0] == pytest.approx(2.0)

    def test_batch_shape(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(4, 5, 3))
        b = rng.normal(size=(4, 5, 3))
        out = stress_tensor(e, b)
        assert out.shape == (4, 5, 3, 3)
        single = stress_tensor(e[1, 2], b[1, 2])
        assert np.allclose(out[1, 2], single)

    def test_symmetry_and_trace(self):
        rng = np.random.default_rng(11)
        e = rng.normal(size=(10, 3))
        b = rng.normal(size=(10, 3))
        m = stress_tensor(e, b)
        assert np.allclose(m, np.swapaxes(m, -1, -2), rtol=0, atol=0)
        # trace = -(E^2 + B^2)/2
        expected = -0.5 * (np.sum(e * e, -1) + np.sum(b * b, -1))
        assert np.allclose(np.trace(m, axis1=-2, axis2=-1), expected)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            stress_tensor([1.0, 2.0], [0.0, 0.0, 0.0])


class TestModeStressClosedForm:
    def test_frozen_fundamental_value(self):
        # -(1/2) k_z^2 / k at unit geometry: -pi / (2 sqrt(3))
        geom = CavityGeometry(a=1.0, L=1.0)
        got = sigma_zz_mode(ModeIndex(1, 1, 1), geom)
        assert got == pytest.approx(-0.9068996821171089, rel=1e-15)
        assert wave_vector(ModeIndex(1, 1, 1), geom).kappa == pytest.approx(
            math.sqrt(2.0) * math.pi, rel=1e-15)

    def test_mode_energy_and_pressure_fix_the_normalization(self):
        # One polarization of one mode holds the zero-point energy omega/2:
        # the box mean of (|E|^2 + |B|^2) / 2 times the volume is k / 2, and
        # sigma_zz is minus the outward pressure -(1/L^2) d(omega/2)/da,
        # here a central difference in a
        a, big_l, h = 1.0, 1.3, 1e-6
        geom = CavityGeometry(a=a, L=big_l)
        for n in ((1, 1, 1), (2, 3, 1), (1, 2, 3)):
            mode = ModeIndex(*n)
            wv = wave_vector(mode, geom)
            amp = mode_amplitudes(mode, geom, 0.6)
            e2, b2 = (mean_over_box(
                lambda *xyz, square=square: square(*xyz, wv, amp),
                big_l, big_l, a, max(n)).value
                for square in (electric_square_on_grid,
                               magnetic_square_on_grid))
            energy = (e2 + b2) / 2.0 * big_l**2 * a
            assert energy / (wv.k / 2.0) == pytest.approx(1.0, abs=1e-14), n
            k_up, k_down = (wave_vector(mode, CavityGeometry(a=a + d,
                                                              L=big_l)).k
                            for d in (h, -h))
            pressure = -(k_up - k_down) / (2.0 * h) / 2.0 / big_l**2
            assert sigma_zz_mode(mode, geom) / pressure == pytest.approx(
                -1.0, abs=1e-8), n

    def test_small_kappa_limit(self):
        # for kappa << k_z the stress approaches -k_z hbar c / (2 L^2 a)
        geom = CavityGeometry(a=1.0, L=1e6)
        got = sigma_zz_mode(ModeIndex(1, 1, 1), geom)
        assert got * geom.L**2 == pytest.approx(-math.pi / 2.0,
                                                         rel=1e-9)

    @given(mode=mode_indices, geom=geometries)
    def test_always_negative(self, mode, geom):
        assert sigma_zz_mode(mode, geom) < 0.0

    @given(mode=mode_indices, geom=geometries)
    def test_monotone_in_n_z(self, mode, geom):
        # more plate-normal structure presses harder
        heavier = ModeIndex(mode.n_x, mode.n_y, mode.n_z + 1)
        assert (sigma_zz_mode(heavier, geom)
                < sigma_zz_mode(mode, geom))


class TestDirectQuadrature:
    @pytest.mark.parametrize("geom", [CavityGeometry(a=1.0, L=1.0),
                                      CavityGeometry(a=0.7, L=2.0)])
    @pytest.mark.parametrize("mode", [ModeIndex(1, 1, 1), ModeIndex(2, 1, 3)])
    def test_matches_closed_form(self, geom, mode):
        want = sigma_zz_mode(mode, geom)
        got = sigma_zz_direct(mode, geom)
        assert got == pytest.approx(want, rel=1e-10)

    def test_polarization_independence(self):
        geom = CavityGeometry(a=0.7, L=2.0)
        mode = ModeIndex(2, 1, 3)
        values = [sigma_zz_direct(mode, geom, polarization_angle=ang)
                  for ang in (0.0, 0.6, math.pi / 2.0)]
        assert max(values) - min(values) <= 1e-12 * abs(values[0])

    def test_top_plate_equals_bottom(self):
        geom = CavityGeometry(a=1.0, L=1.0)
        mode = ModeIndex(1, 2, 2)
        bottom = sigma_zz_direct(mode, geom)
        top = sigma_zz_direct(mode, geom, plate="top")
        assert top == pytest.approx(bottom, rel=1e-12)

    def test_rejects_unknown_plate(self):
        with pytest.raises(ValueError):
            sigma_zz_direct(ModeIndex(1, 1, 1), CavityGeometry(a=1.0, L=1.0),
                            plate="side")


class TestBoundaryAverageAssembly:
    def test_matches_closed_form_and_cancels_a_z(self):
        geom = CavityGeometry(a=1.0, L=1.0)
        mode = ModeIndex(1, 1, 2)
        wv = wave_vector(mode, geom)
        want = sigma_zz_mode(mode, geom)
        values = []
        for angle in (0.0, 0.3, math.pi / 2.0):
            amp = mode_amplitudes(mode, geom, angle)
            values.append(sigma_zz_from_boundary_averages(wv, amp))
        for value in values:
            assert value == pytest.approx(want, rel=1e-13)

    @settings(deadline=None)
    @given(mode=mode_indices, geom=geometries,
           angle=st.floats(0.0, 2.0 * math.pi))
    def test_agrees_with_closed_form_everywhere(self, mode, geom, angle):
        wv = wave_vector(mode, geom)
        amp = mode_amplitudes(mode, geom, angle)
        got = sigma_zz_from_boundary_averages(wv, amp)
        want = sigma_zz_mode(mode, geom)
        assert got == pytest.approx(want, rel=1e-12)
