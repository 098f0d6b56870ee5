"""Standing-wave electromagnetic modes of a conducting box cavity.

The cavity is a box of transverse side L with plates at z = 0 and z = a.
Mode (n_x, n_y, n_z), all indices >= 1, has wave vector
k = (pi n_x / L, pi n_y / L, pi n_z / a) and electric field pattern

    E_x = A_x cos(k_x x) sin(k_y y) sin(k_z z)
    E_y = A_y sin(k_x x) cos(k_y y) sin(k_z z)
    E_z = A_z sin(k_x x) sin(k_y y) cos(k_z z)

The tangential electric components vanish on both plates by construction,
and the interior is charge free exactly when the amplitude vector is
orthogonal to k.  Units are natural (hbar = c = eps0 = 1), so a mode's
frequency is omega = |k|.  The magnetic evaluator returns the amplitude
profile curl(E)/omega; the field actually oscillates a quarter period out
of phase with E, but only squares of B enter the stress and energy
averages, so the phase factor is documented here rather than carried in
code.

Trigonometric factors are computed through reduced phases t = n * (x / L)
with sin(pi t) evaluated after subtracting the nearest integer.  Where the
physics says a field component vanishes on a plate, the evaluator then
returns exactly 0.0 rather than sin(n pi) of order machine epsilon, which
keeps boundary statements in downstream checks exact.

fields_on_grid returns E and B on a grid of broadcasting coordinates from
one trig pass for both.  electric_square_on_grid and magnetic_square_on_grid
return |E|^2 and |B|^2 on a grid without building the stacked (..., 3)
field.  They square the components in place and add them x + y + z, so
their values are bit for bit np.sum(E**2, axis=-1) and np.sum(B**2,
axis=-1) of fields_on_grid's fields.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, NamedTuple

from .errors import TransversalityError, check_positive_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ModeIndex",
    "CavityGeometry",
    "WaveVector",
    "ModeAmplitudes",
    "wave_vector",
    "mode_amplitudes",
    "electric_mode_at",
    "magnetic_mode_at",
    "fields_on_grid",
    "electric_square_on_grid",
    "magnetic_square_on_grid",
    "transversality_residual",
    "divergence_residual",
    "amplitude_norm_squared",
    "mean_square_E",
    "mean_square_B_boundary",
]


def _sinpi(t):
    """sin(pi * t) with exact zeros at integer t; the parity is taken in
    floating point, so no t (huge or NaN) is cast to an integer."""
    import numpy as np
    t = np.asarray(t, dtype=float)
    nearest = np.round(t)
    sign = np.where(np.remainder(nearest, 2.0) == 0.0, 1.0, -1.0)
    return sign * np.sin(np.pi * (t - nearest))


def _sin_cos_pi(tx, ty, tz):
    """sin(pi t) of each phase array, then cos(pi t) = sin(pi (1/2 - t)),
    which is exactly 0.0 at half-integer t.  One _sinpi pass over all six;
    it acts elementwise, so each value is what a separate call gives."""
    import numpy as np
    ts = [np.asarray(t, dtype=float) for t in (tx, ty, tz)]
    flat = np.concatenate([t.ravel() for t in ts])
    values = _sinpi(np.concatenate((flat, 0.5 - flat)))
    out, start = [], 0
    for t in ts + ts:
        out.append(values[start:start + t.size].reshape(t.shape))
        start += t.size
    return out


# A NamedTuple body may not define __new__, so a record that validates its
# fields does so in a subclass of its field tuple.
class _ModeIndexFields(NamedTuple):
    n_x: int
    n_y: int
    n_z: int


class ModeIndex(_ModeIndexFields):
    """Positive integer mode numbers along x, y, z."""

    __slots__ = ()

    def __new__(cls, n_x: int, n_y: int, n_z: int):
        for label, n in (("n_x", n_x), ("n_y", n_y), ("n_z", n_z)):
            if not isinstance(n, numbers.Integral) or isinstance(n, bool):
                raise ValueError(f"{label} must be an integer, got {n!r}")
            if n < 1:
                raise ValueError(f"{label} must be >= 1, got {n}")
        return super().__new__(cls, n_x, n_y, n_z)


class _CavityGeometryFields(NamedTuple):
    a: float
    L: float


class CavityGeometry(_CavityGeometryFields):
    """Plate separation a (plates at z = 0 and z = a) and transverse side L."""

    __slots__ = ()

    def __new__(cls, a: float, L: float):
        check_positive_finite("a", a)
        check_positive_finite("L", L)
        return super().__new__(cls, a, L)


class WaveVector(NamedTuple):
    """Cartesian wave vector of a cavity mode, carrying the mode and geometry.

    Phase arguments are formed from the exact rationals n * (coordinate /
    length), which is what makes the boundary zeros of the field evaluators
    exact.
    """

    k_x: float
    k_y: float
    k_z: float
    mode: ModeIndex
    geom: CavityGeometry

    @property
    def kappa(self) -> float:
        """Transverse wave number sqrt(k_x^2 + k_y^2)."""
        return math.hypot(self.k_x, self.k_y)

    @property
    def k(self) -> float:
        """Total wave number |k| = sqrt(kappa^2 + k_z^2)."""
        return math.sqrt(self.k_x**2 + self.k_y**2 + self.k_z**2)

    def phases(self, x, y, z):
        """Return (t_x, t_y, t_z) such that k_i * coord = pi * t_i."""
        import numpy as np
        x, y, z = (np.asarray(c, dtype=float) for c in (x, y, z))
        return (self.mode.n_x * (x / self.geom.L),
                self.mode.n_y * (y / self.geom.L),
                self.mode.n_z * (z / self.geom.a))


class ModeAmplitudes(NamedTuple):
    """Electric amplitude vector (A_x, A_y, A_z)."""

    a_x: float
    a_y: float
    a_z: float

    @property
    def norm_squared(self) -> float:
        return self.a_x**2 + self.a_y**2 + self.a_z**2


def wave_vector(mode: ModeIndex, geom: CavityGeometry) -> WaveVector:
    """Wave vector (pi n_x / L, pi n_y / L, pi n_z / a) of a cavity mode."""
    return WaveVector(
        k_x=math.pi * mode.n_x / geom.L,
        k_y=math.pi * mode.n_y / geom.L,
        k_z=math.pi * mode.n_z / geom.a,
        mode=mode,
        geom=geom,
    )


def amplitude_norm_squared(mode: ModeIndex, geom: CavityGeometry) -> float:
    """Squared amplitude A^2 = 4 hbar omega / (eps0 L^2 a) = 4 k / (L^2 a).

    The vacuum field scale of one mode: the box mean of (|E|^2 + |B|^2) / 2
    times L^2 a is then the zero-point energy k / 2.  Every average and
    stress formula downstream is linear in it and uses the same
    profile-square convention (see the module docstring of stress.py).
    """
    k = wave_vector(mode, geom).k
    return 4.0 * k / (geom.L**2 * geom.a)


def mode_amplitudes(mode: ModeIndex, geom: CavityGeometry,
                    polarization_angle: float = 0.0) -> ModeAmplitudes:
    """Construct a transverse amplitude vector of the correct magnitude.

    The two-dimensional polarization space orthogonal to k is spanned by

        e1 = (k_y, -k_x, 0) / kappa          (no z component)
        e2 = (k_x k_z, k_y k_z, -kappa^2) / (kappa k)

    and ``polarization_angle`` selects cos(angle) e1 + sin(angle) e2.  The
    returned vector satisfies A . k = 0 identically and |A|^2 equals
    amplitude_norm_squared.
    """
    wv = wave_vector(mode, geom)
    kap, k = wv.kappa, wv.k
    e1 = (wv.k_y / kap, -wv.k_x / kap, 0.0)
    e2 = (wv.k_x * wv.k_z / (kap * k), wv.k_y * wv.k_z / (kap * k),
          -kap * kap / (kap * k))
    c, s = math.cos(polarization_angle), math.sin(polarization_angle)
    norm = math.sqrt(amplitude_norm_squared(mode, geom))
    return ModeAmplitudes(*(norm * (c * u + s * v) for u, v in zip(e1, e2)))


def _trig(wv: WaveVector, x, y, z):
    """sin and cos of the three phases of the mode at broadcasting x, y, z:
    the one trig pass that every field evaluator here builds on."""
    return _sin_cos_pi(*wv.phases(x, y, z))


def _electric_components(trig, amp: ModeAmplitudes):
    """Yield E_x, E_y, E_z from one _trig pass; each component has the full
    broadcast shape."""
    sx, sy, sz, cx, cy, cz = trig
    yield amp.a_x * cx * sy * sz
    yield amp.a_y * sx * cy * sz
    yield amp.a_z * sx * sy * cz


def _magnetic_components(trig, wv: WaveVector, amp: ModeAmplitudes):
    """Yield B_x, B_y, B_z of curl(E)/omega; see _electric_components."""
    sx, sy, sz, cx, cy, cz = trig
    omega = wv.k
    yield (amp.a_z * wv.k_y - amp.a_y * wv.k_z) * sx * cy * cz / omega
    yield -(amp.a_z * wv.k_x - amp.a_x * wv.k_z) * cx * sy * cz / omega
    yield (amp.a_y * wv.k_x - amp.a_x * wv.k_y) * cx * cy * sz / omega


def _square_sum(components) -> np.ndarray:
    """x^2 + y^2 + z^2 in the first buffer, squared in place and added in
    the order of np.sum(stacked**2, axis=-1); two buffers at a time."""
    total = next(components)
    total *= total
    for c in components:
        c *= c
        total += c
        del c
    return total


def electric_mode_at(point, wv: WaveVector, amp: ModeAmplitudes) -> np.ndarray:
    """Electric field of the mode at one point or a batch of points.

    ``point`` is an array-like of shape (..., 3) with coordinates inside the
    closed box [0, L]^2 x [0, a]; the result has the same shape.  Tangential
    components are exactly 0.0 on the plates z = 0 and z = a.
    """
    import numpy as np
    trig = _trig(wv, *np.moveaxis(np.asarray(point, dtype=float), -1, 0))
    return np.stack(tuple(_electric_components(trig, amp)), axis=-1)


def magnetic_mode_at(point, wv: WaveVector, amp: ModeAmplitudes) -> np.ndarray:
    """Magnetic amplitude profile curl(E)/omega at one point or a batch.

    omega = |k| is the mode's frequency.  The normal component B_z is
    exactly 0.0 on both plates.  See the module docstring for the
    dropped quarter-period phase.
    """
    import numpy as np
    trig = _trig(wv, *np.moveaxis(np.asarray(point, dtype=float), -1, 0))
    return np.stack(tuple(_magnetic_components(trig, wv, amp)), axis=-1)


def fields_on_grid(x, y, z, wv: WaveVector, amp: ModeAmplitudes
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(E, B) on the grid of broadcasting x, y, z, each of shape (..., 3)
    and bit for bit electric_mode_at and magnetic_mode_at at the grid's
    points, from one trig pass for both fields."""
    import numpy as np
    trig = _trig(wv, x, y, z)
    return (np.stack(tuple(_electric_components(trig, amp)), axis=-1),
            np.stack(tuple(_magnetic_components(trig, wv, amp)), axis=-1))


def electric_square_on_grid(x, y, z, wv: WaveVector,
                            amp: ModeAmplitudes) -> np.ndarray:
    """|E|^2 on the grid, bit for bit np.sum(E**2, axis=-1) of
    fields_on_grid's E, without the stacked (..., 3) field."""
    return _square_sum(_electric_components(_trig(wv, x, y, z), amp))


def magnetic_square_on_grid(x, y, z, wv: WaveVector,
                            amp: ModeAmplitudes) -> np.ndarray:
    """|B|^2 on the grid; see electric_square_on_grid."""
    return _square_sum(_magnetic_components(_trig(wv, x, y, z), wv, amp))


def transversality_residual(amp: ModeAmplitudes, wv: WaveVector) -> float:
    """|A . k| / (|A| |k|), zero for a physical (charge-free) mode."""
    dot = amp.a_x * wv.k_x + amp.a_y * wv.k_y + amp.a_z * wv.k_z
    norm = math.sqrt(amp.norm_squared) * wv.k
    if norm == 0.0:
        raise ValueError("amplitude and wave vector must be nonzero")
    return abs(dot) / norm


def divergence_residual(point, wv: WaveVector, amp: ModeAmplitudes,
                        step: float) -> float:
    """Central-finite-difference estimate of div E at a point.

    The trace of jacobian_fd's Jacobian, added left to right.  Vanishes to
    O(step^2) for transverse amplitudes.
    """
    from .numerics import jacobian_fd
    jac = jacobian_fd(lambda p: electric_mode_at(p, wv, amp), point, step)
    return float(jac[0, 0]) + float(jac[1, 1]) + float(jac[2, 2])


def mean_square_E(amp: ModeAmplitudes, region: str) -> float:
    """Spatial mean of |E|^2, over the box bulk or over a plate.

    Each separable trig factor averages to 1/2 over a whole number of half
    periods, so the bulk mean is A^2/8.  On a plate only E_z survives and
    its cos(k_z z) factor is 1 there, leaving A_z^2/4.
    """
    if region == "bulk":
        return amp.norm_squared / 8.0
    if region == "boundary":
        return amp.a_z**2 / 4.0
    raise ValueError(f"region must be 'bulk' or 'boundary', got {region!r}")


_TRANSVERSALITY_TOL = 1e-9


def mean_square_B_boundary(wv: WaveVector, amp: ModeAmplitudes) -> float:
    """Plate-averaged |B|^2, reduced to amplitudes via transversality.

    On a plate the two tangential components contribute

        <B^2> = (A_z^2 + A^2 k_z^2 / k^2) / 4,

    a closed form that uses A . k = 0 to eliminate the cross terms.  Since
    that assumption is load-bearing, amplitudes violating it beyond
    _TRANSVERSALITY_TOL are rejected with TransversalityError.
    """
    residual = transversality_residual(amp, wv)
    if residual > _TRANSVERSALITY_TOL:
        raise TransversalityError(
            f"relative transversality residual {residual:.3e} exceeds "
            f"{_TRANSVERSALITY_TOL:.1e}")
    k = wv.k
    return (amp.a_z**2 + amp.norm_squared * wv.k_z**2 / k**2) / 4.0
