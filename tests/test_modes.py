import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates.modes import (
    CavityGeometry,
    ModeAmplitudes,
    ModeIndex,
    amplitude_norm_squared,
    divergence_residual,
    electric_mode_at,
    electric_mode_on_grid,
    electric_square_on_grid,
    magnetic_mode_at,
    magnetic_mode_on_grid,
    magnetic_square_on_grid,
    mean_square_B_boundary,
    mean_square_E,
    mode_amplitudes,
    transversality_residual,
    wave_vector,
)
from casimir_plates import modes
from casimir_plates.errors import TransversalityError
from casimir_plates.numerics import _midpoints, jacobian_fd

geometries = st.builds(
    CavityGeometry,
    a=st.floats(min_value=0.2, max_value=4.0),
    L=st.floats(min_value=0.2, max_value=4.0),
)
mode_indices = st.builds(
    ModeIndex,
    n_x=st.integers(1, 4), n_y=st.integers(1, 4), n_z=st.integers(1, 4),
)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)


class TestTypes:
    def test_mode_index_rejects_zero(self):
        with pytest.raises(ValueError):
            ModeIndex(0, 1, 1)

    def test_mode_index_rejects_negative(self):
        with pytest.raises(ValueError):
            ModeIndex(1, -2, 1)

    def test_mode_index_rejects_non_integer(self):
        with pytest.raises(ValueError):
            ModeIndex(1, 1.5, 1)

    @pytest.mark.parametrize("n", [2, np.int32(2), np.int64(2)])
    def test_mode_index_accepts_integers(self, n):
        assert ModeIndex(1, n, 1).n_y == 2

    @pytest.mark.parametrize("n", [True, np.bool_(True), 1.0, np.float64(1)])
    def test_mode_index_rejects_bools_and_floats(self, n):
        with pytest.raises(ValueError) as info:
            ModeIndex(1, n, 1)
        assert str(info.value) == f"n_y must be an integer, got {n!r}"

    @pytest.mark.parametrize("a,L", [(0.0, 1.0), (-1.0, 1.0), (1.0, math.inf),
                                     (math.nan, 1.0)])
    def test_geometry_rejects_bad_lengths(self, a, L):
        with pytest.raises(ValueError):
            CavityGeometry(a=a, L=L)

    def test_wave_vector_components(self):
        wv = wave_vector(ModeIndex(1, 2, 3), CavityGeometry(a=0.5, L=2.0))
        assert wv.k_x == pytest.approx(math.pi / 2.0)
        assert wv.k_y == pytest.approx(math.pi)
        assert wv.k_z == pytest.approx(6.0 * math.pi)
        assert wv.kappa == pytest.approx(math.hypot(wv.k_x, wv.k_y))
        assert wv.k == pytest.approx(math.sqrt(wv.kappa**2 + wv.k_z**2))

    def test_amplitude_norm(self):
        amp = ModeAmplitudes(1.0, 1.0, -2.0)
        assert amp.norm_squared == 6.0


class TestFieldEvaluation:
    def test_electric_center_value(self):
        # cubic unit cavity, fundamental mode, z-only amplitude: at the
        # quarter point E_z = sin^2(pi/4) cos(pi/4) = sqrt(2)/4
        wv = wave_vector(ModeIndex(1, 1, 1), CavityGeometry(a=1.0, L=1.0))
        amp = ModeAmplitudes(0.0, 0.0, 1.0)
        e = electric_mode_at((0.25, 0.25, 0.25), wv, amp)
        assert e[0] == 0.0 and e[1] == 0.0
        assert e[2] == pytest.approx(0.3535533905932738, rel=1e-15)

    def test_electric_separable_structure(self):
        geom = CavityGeometry(a=0.7, L=1.3)
        wv = wave_vector(ModeIndex(2, 1, 3), geom)
        amp = ModeAmplitudes(0.4, -1.1, 0.9)
        x, y, z = 0.31, 0.77, 0.52
        e = electric_mode_at((x, y, z), wv, amp)
        sx, cx = math.sin(wv.k_x * x), math.cos(wv.k_x * x)
        sy, cy = math.sin(wv.k_y * y), math.cos(wv.k_y * y)
        sz, cz = math.sin(wv.k_z * z), math.cos(wv.k_z * z)
        assert e[0] == pytest.approx(0.4 * cx * sy * sz, rel=1e-12)
        assert e[1] == pytest.approx(-1.1 * sx * cy * sz, rel=1e-12)
        assert e[2] == pytest.approx(0.9 * sx * sy * cz, rel=1e-12)

    def test_batched_points(self):
        geom = CavityGeometry(a=1.0, L=1.0)
        wv = wave_vector(ModeIndex(1, 2, 1), geom)
        amp = mode_amplitudes(ModeIndex(1, 2, 1), geom, 0.3)
        pts = np.random.default_rng(7).uniform(0.1, 0.9, size=(4, 5, 3))
        batch = electric_mode_at(pts, wv, amp)
        assert batch.shape == (4, 5, 3)
        single = electric_mode_at(pts[2, 3], wv, amp)
        assert np.array_equal(batch[2, 3], single)

    def test_magnetic_matches_fd_curl(self):
        geom = CavityGeometry(a=0.9, L=1.3)
        mode = ModeIndex(1, 2, 2)
        wv = wave_vector(mode, geom)
        amp = mode_amplitudes(mode, geom, 0.7)
        omega = wv.k  # natural units, c = 1
        point = np.array([0.4, 0.33, 0.21])
        h = 1e-5
        jac = jacobian_fd(lambda p: electric_mode_at(p, wv, amp), point, h)
        b_fd = np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0],
                         jac[1, 0] - jac[0, 1]]) / omega
        b = magnetic_mode_at(point, wv, amp)
        assert np.allclose(b_fd, b, atol=5e-9)

    @settings(max_examples=60, deadline=None)
    @given(mode=mode_indices, geom=geometries, angle=angles,
           fractions=st.tuples(*[st.floats(0.05, 0.95)] * 3),
           step=st.floats(1e-6, 1e-2))
    def test_jacobian_is_the_two_sided_difference(self, mode, geom, angle,
                                                  fractions, step):
        wv = wave_vector(mode, geom)
        amp = mode_amplitudes(mode, geom, angle)
        point = np.array(fractions) * np.array([geom.L, geom.L, geom.a])
        calls = []

        def field(p):
            calls.append(p)
            return electric_mode_at(p, wv, amp)

        jac = jacobian_fd(field, point, step)
        assert len(calls) == 6
        want = np.empty((3, 3))
        for j in range(3):
            offset = np.zeros(3)
            offset[j] = step
            for i in range(3):
                plus = electric_mode_at(point + offset, wv, amp)[i]
                minus = electric_mode_at(point - offset, wv, amp)[i]
                want[i, j] = (plus - minus) / (2.0 * step)
        assert np.array_equal(jac, want)

    @given(mode=mode_indices, geom=geometries, angle=angles,
           xf=st.floats(0.0, 1.0), yf=st.floats(0.0, 1.0),
           top=st.booleans())
    def test_boundary_zeros_are_exact(self, mode, geom, angle, xf, yf, top):
        wv = wave_vector(mode, geom)
        amp = mode_amplitudes(mode, geom, angle)
        z = geom.a if top else 0.0
        point = (xf * geom.L, yf * geom.L, z)
        e = electric_mode_at(point, wv, amp)
        b = magnetic_mode_at(point, wv, amp)
        assert e[0] == 0.0
        assert e[1] == 0.0
        assert b[2] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(mode=mode_indices, geom=geometries, angle=angles,
           xf=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           yf=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           zf=st.lists(st.floats(0.0, 1.0), max_size=3))
    def test_grid_matches_points_bit_for_bit(self, mode, geom, angle,
                                             xf, yf, zf):
        wv = wave_vector(mode, geom)
        amp = mode_amplitudes(mode, geom, angle)
        # the last two z values are the plates z = 0 and z = a
        x = np.array(xf) * geom.L
        y = np.array(yf) * geom.L
        z = np.array(zf + [0.0, 1.0]) * geom.a
        points = np.stack(np.meshgrid(x, y, z, indexing="ij"), axis=-1)
        axes = (x[:, None, None], y[None, :, None], z[None, None, :])
        e = electric_mode_on_grid(*axes, wv, amp)
        b = magnetic_mode_on_grid(*axes, wv, amp)
        assert e.shape == b.shape == points.shape
        assert np.array_equal(e, electric_mode_at(points, wv, amp))
        assert np.array_equal(b, magnetic_mode_at(points, wv, amp))
        assert np.all(e[:, :, -2:, :2] == 0.0)
        assert np.all(b[:, :, -2:, 2] == 0.0)


class TestSquareEvaluators:
    """The square evaluators equal the sum over the stacked field's last
    axis byte for byte, on the midpoint grids the mean checks use."""

    MODES = (ModeIndex(1, 1, 1), ModeIndex(2, 3, 1), ModeIndex(3, 1, 2))
    ANGLES = (0.0, 0.6, 2.3)
    # natural-unit lengths, and the micrometre lengths an SI run passes in
    GEOMS = {"natural": (CavityGeometry(a=1.0, L=1.0),
                         CavityGeometry(a=0.7, L=2.0)),
             "si": (CavityGeometry(a=1e-6, L=2e-6),
                    CavityGeometry(a=0.7, L=2.0))}

    @staticmethod
    def _assert_same_bytes(x, y, z, wv, amp):
        e = electric_square_on_grid(x, y, z, wv, amp)
        want_e = np.sum(electric_mode_on_grid(x, y, z, wv, amp)**2, axis=-1)
        b = magnetic_square_on_grid(x, y, z, wv, amp)
        want_b = np.sum(magnetic_mode_on_grid(x, y, z, wv, amp)**2,
                        axis=-1)
        assert e.shape == want_e.shape and e.tobytes() == want_e.tobytes()
        assert b.shape == want_b.shape and b.tobytes() == want_b.tobytes()

    @pytest.mark.parametrize("scale", ["natural", "si"])
    def test_box_grids(self, scale):
        for geom in self.GEOMS[scale]:
            for mode in self.MODES:
                wv = wave_vector(mode, geom)
                for angle in self.ANGLES:
                    amp = mode_amplitudes(mode, geom, angle)
                    # max(mode) + 1 and + 2 points per axis
                    for n in (2, 3, 4, 5):
                        x, y, z = np.ix_(_midpoints(n, geom.L),
                                         _midpoints(n, geom.L),
                                         _midpoints(n, geom.a))
                        self._assert_same_bytes(x, y, z, wv, amp)
        # two large grids, one geometry each
        for geom, mode, n in zip(self.GEOMS[scale], self.MODES[1:], (128, 64)):
            amp = mode_amplitudes(mode, geom, 0.6)
            x, y, z = np.ix_(_midpoints(n, geom.L), _midpoints(n, geom.L),
                             _midpoints(n, geom.a))
            self._assert_same_bytes(x, y, z, wave_vector(mode, geom), amp)

    @pytest.mark.parametrize("scale", ["natural", "si"])
    def test_plate_grids(self, scale):
        for geom in self.GEOMS[scale]:
            for mode in self.MODES:
                wv = wave_vector(mode, geom)
                for angle in self.ANGLES:
                    amp = mode_amplitudes(mode, geom, angle)
                    # max(mode) + 1 and + 2 points, and one large grid
                    for n in (2, 3, 4, 5, 128):
                        x, y = np.ix_(_midpoints(n, geom.L),
                                      _midpoints(n, geom.L))
                        for z in (0.0, geom.a):
                            self._assert_same_bytes(x, y, z, wv, amp)

    def test_single_point(self):
        geom = CavityGeometry(a=0.7, L=2.0)
        wv = wave_vector(ModeIndex(2, 1, 3), geom)
        amp = mode_amplitudes(ModeIndex(2, 1, 3), geom, 0.6)
        self._assert_same_bytes(0.3, 1.1, 0.2, wv, amp)


class TestSinpi:
    def test_no_cast_warning_at_huge_or_nan_phases(self):
        t = np.array([np.nan, 2.0**63, -2.0**63, 1e300, -1e300, 2.0**53 - 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modes._sinpi(t)
        assert np.isnan(got[0])
        assert np.all(got[1:] == 0.0)

    def test_same_values_as_integer_parity(self):
        rng = np.random.default_rng(2100)
        t = np.concatenate([rng.uniform(-1e6, 1e6, 700),
                            rng.uniform(-3.0, 3.0, 700),
                            np.arange(-175.0, 175.0, 0.5)])
        nearest = np.round(t)
        sign = np.where(nearest.astype(np.int64) % 2 == 0, 1.0, -1.0)
        want = sign * np.sin(np.pi * (t - nearest))
        assert modes._sinpi(t).tobytes() == want.tobytes()


    @pytest.mark.parametrize("shapes", [((5, 1, 1), (1, 7, 1), (1, 1, 3)),
                                        ((), (), ()), ((4, 5), (4, 5), (4, 5)),
                                        ((8, 1), (1, 8), ())])
    def test_one_pass_matches_separate_calls(self, shapes):
        rng = np.random.default_rng(len(shapes[0]))
        ts = [rng.uniform(-4.0, 4.0, shape) for shape in shapes]
        ts[0].flat[0] = 0.5  # a half-integer phase, where cos is exactly 0
        got = modes._sin_cos_pi(*ts)
        want = ([modes._sinpi(t) for t in ts]
                + [modes._sinpi(0.5 - t) for t in ts])
        for g, w in zip(got, want):
            assert g.shape == np.shape(w)
            assert g.tobytes() == np.asarray(w).tobytes()
        assert got[3].flat[0] == 0.0


class TestAmplitudes:
    def test_generator_matches_array_formula_bit_for_bit(self):
        for geom in (CavityGeometry(a=1.0, L=1.0), CavityGeometry(a=0.7, L=2.0),
                     CavityGeometry(a=1e-6, L=2e-6)):
            for n in ((1, 1, 1), (2, 3, 1), (3, 1, 2), (1, 4, 3)):
                mode = ModeIndex(*n)
                for angle in (0.0, 0.6, 0.8, 2.3, 4.0):
                    wv = wave_vector(mode, geom)
                    kap, k = wv.kappa, wv.k
                    e1 = np.array([wv.k_y, -wv.k_x, 0.0]) / kap
                    e2 = (np.array([wv.k_x * wv.k_z, wv.k_y * wv.k_z, -kap * kap])
                          / (kap * k))
                    direction = math.cos(angle) * e1 + math.sin(angle) * e2
                    want = (math.sqrt(amplitude_norm_squared(mode, geom))
                            * direction)
                    amp = mode_amplitudes(mode, geom, angle)
                    got = np.array([amp.a_x, amp.a_y, amp.a_z])
                    assert got.tobytes() == want.tobytes()

    def test_norm_squared_frozen_value(self):
        # 4 hbar c k / (eps0 L^2 a) with k = sqrt(3) pi: equals 4 sqrt(3) pi
        got = amplitude_norm_squared(ModeIndex(1, 1, 1),
                                     CavityGeometry(a=1.0, L=1.0))
        assert got == pytest.approx(21.765592370810612, rel=1e-15)

    def test_norm_squared_scales_with_geometry(self):
        mode = ModeIndex(1, 1, 1)
        small = amplitude_norm_squared(mode, CavityGeometry(a=1.0, L=1.0))
        big = amplitude_norm_squared(mode, CavityGeometry(a=2.0, L=2.0))
        # k halves and the volume grows eightfold
        assert big == pytest.approx(small / 16.0, rel=1e-14)

    def test_generator_matches_norm(self):
        mode, geom = ModeIndex(2, 1, 3), CavityGeometry(a=0.7, L=2.0)
        amp = mode_amplitudes(mode, geom, 1.1)
        assert amp.norm_squared == pytest.approx(
            amplitude_norm_squared(mode, geom), rel=1e-13)

    def test_polarization_angle_moves_a_z(self):
        mode, geom = ModeIndex(1, 1, 1), CavityGeometry(a=1.0, L=1.0)
        in_plane = mode_amplitudes(mode, geom, 0.0)
        tilted = mode_amplitudes(mode, geom, math.pi / 2.0)
        assert in_plane.a_z == 0.0
        assert tilted.a_z != 0.0

    @given(mode=mode_indices, geom=geometries, angle=angles)
    def test_generator_transversality(self, mode, geom, angle):
        wv = wave_vector(mode, geom)
        amp = mode_amplitudes(mode, geom, angle)
        assert transversality_residual(amp, wv) <= 1e-12

    def test_residual_of_longitudinal_vector(self):
        wv = wave_vector(ModeIndex(1, 1, 1), CavityGeometry(a=1.0, L=1.0))
        got = transversality_residual(ModeAmplitudes(1.0, 0.0, 0.0), wv)
        assert got == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)

    def test_residual_of_orthogonal_vector(self):
        wv = wave_vector(ModeIndex(1, 1, 1), CavityGeometry(a=1.0, L=1.0))
        assert transversality_residual(ModeAmplitudes(1.0, 1.0, -2.0), wv) == 0.0


class TestDivergence:
    def test_transverse_mode_has_tiny_residual(self):
        geom = CavityGeometry(a=1.0, L=1.0)
        mode = ModeIndex(1, 1, 1)
        wv = wave_vector(mode, geom)
        amp = mode_amplitudes(mode, geom, 0.4)
        res = divergence_residual((0.23, 0.17, 0.31), wv, amp, step=1e-4)
        assert abs(res) <= 1e-8 * math.sqrt(amp.norm_squared) * wv.k

    def test_longitudinal_amplitude_detected(self):
        geom = CavityGeometry(a=1.0, L=1.0)
        mode = ModeIndex(1, 2, 1)
        wv = wave_vector(mode, geom)
        amp = ModeAmplitudes(1.0, 0.0, 0.0)
        x, y, z = 0.23, 0.17, 0.31
        expected = -wv.k_x * (math.sin(wv.k_x * x) * math.sin(wv.k_y * y)
                              * math.sin(wv.k_z * z))
        got = divergence_residual((x, y, z), wv, amp, step=1e-5)
        assert got == pytest.approx(expected, rel=1e-7)

    def test_rejects_nonpositive_step(self):
        geom = CavityGeometry(a=1.0, L=1.0)
        wv = wave_vector(ModeIndex(1, 1, 1), geom)
        amp = mode_amplitudes(ModeIndex(1, 1, 1), geom)
        with pytest.raises(ValueError):
            divergence_residual((0.5, 0.5, 0.5), wv, amp, step=-1e-4)


class TestMeanSquares:
    def test_bulk_mean(self):
        amp = ModeAmplitudes(1.0, 1.0, -2.0)
        assert mean_square_E(amp, "bulk") == pytest.approx(6.0 / 8.0)

    def test_boundary_mean(self):
        amp = ModeAmplitudes(1.0, 1.0, -2.0)
        assert mean_square_E(amp, "boundary") == pytest.approx(1.0)

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            mean_square_E(ModeAmplitudes(1.0, 1.0, -2.0), "edge")

    def test_boundary_b_mean_frozen_value(self):
        # (A_z^2 + A^2 k_z^2 / k^2) / 4 = (4 + 6/3) / 4 in natural units
        wv = wave_vector(ModeIndex(1, 1, 1), CavityGeometry(a=1.0, L=1.0))
        amp = ModeAmplitudes(1.0, 1.0, -2.0)
        got = mean_square_B_boundary(wv, amp)
        assert got == pytest.approx(1.5, rel=1e-15)

    def test_boundary_b_mean_without_a_z(self):
        geom = CavityGeometry(a=1.0, L=1.0)
        mode = ModeIndex(1, 1, 1)
        wv = wave_vector(mode, geom)
        amp = mode_amplitudes(mode, geom, 0.0)
        got = mean_square_B_boundary(wv, amp)
        expected = amp.norm_squared * wv.k_z**2 / wv.k**2 / 4.0
        assert got == pytest.approx(expected, rel=1e-14)

    def test_boundary_b_mean_rejects_longitudinal(self):
        wv = wave_vector(ModeIndex(1, 1, 1), CavityGeometry(a=1.0, L=1.0))
        with pytest.raises(TransversalityError):
            mean_square_B_boundary(wv, ModeAmplitudes(1.0, 0.0, 0.0))

    @settings(deadline=None)
    @given(mode=mode_indices, geom=geometries, angle=angles)
    def test_bulk_mean_scales_with_generator_norm(self, mode, geom, angle):
        amp = mode_amplitudes(mode, geom, angle)
        bulk = mean_square_E(amp, "bulk")
        assert bulk > 0.0
        assert bulk == pytest.approx(
            amplitude_norm_squared(mode, geom) / 8.0, rel=1e-13)
