"""Maxwell stress tensor of cavity modes and the plate-averaged normal stress.

Averages here are spatial means of squared standing-wave profiles; the
amplitude normalization in modes.py is defined for exactly this convention.
Under it the zz component of the stress tensor, averaged over a plate,
collapses to the closed form

    sigma_zz = -(1/4) (hbar c / (L^2 a)) k_z^2 / k

independent of how the mode's amplitude is distributed between the two
polarizations.  Two other evaluation routes are kept alongside the closed
form: direct quadrature of the tensor over the plate (sigma_zz_direct) and
assembly from the reduced plate averages of E^2 and B^2
(sigma_zz_from_boundary_averages).  They exist to check the closed form and
each other, so none of them shares intermediate results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .modes import (
    CavityGeometry,
    ModeAmplitudes,
    ModeIndex,
    WaveVector,
    electric_mode_on_grid,
    magnetic_mode_on_grid,
    mean_square_B_boundary,
    mean_square_E,
    mode_amplitudes,
    wave_vector,
)
from .units import UnitSystem

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "stress_tensor",
    "sigma_zz_mode",
    "sigma_zz_direct",
    "sigma_zz_from_boundary_averages",
]


def stress_tensor(E, B, units: UnitSystem) -> np.ndarray:
    """Maxwell stress tensor from field values.

    ``E`` and ``B`` are array-likes of shape (..., 3); the result is
    eps0 E_i E_j + B_i B_j / mu0 - delta_ij (eps0 E^2 + B^2/mu0) / 2 with
    shape (..., 3, 3).  Symmetric by construction.  Sign convention:
    sigma_zz < 0 means the field pulls the plate toward the cavity interior.
    """
    import numpy as np
    e = np.asarray(E, dtype=float)
    b = np.asarray(B, dtype=float)
    if e.shape[-1] != 3 or b.shape[-1] != 3:
        raise ValueError("E and B must have a trailing axis of length 3")
    eps0 = units.epsilon_0
    inv_mu0 = 1.0 / units.mu_0
    outer_e = e[..., :, None] * e[..., None, :]
    outer_b = b[..., :, None] * b[..., None, :]
    trace_half = 0.5 * (eps0 * np.sum(e * e, axis=-1)
                        + inv_mu0 * np.sum(b * b, axis=-1))
    return (eps0 * outer_e + inv_mu0 * outer_b
            - trace_half[..., None, None] * np.eye(3))


def sigma_zz_mode(mode: ModeIndex, geom: CavityGeometry,
                  units: UnitSystem) -> float:
    """Closed-form averaged normal stress of one mode, negative for all."""
    wv = wave_vector(mode, geom)
    return -0.25 * units.hbar_c / (geom.L**2 * geom.a) * wv.k_z**2 / wv.k


def sigma_zz_direct(mode: ModeIndex, geom: CavityGeometry, units: UnitSystem,
                    tol: float = 1e-10, *, polarization_angle: float = 0.0,
                    plate: str = "bottom") -> float:
    """Averaged normal stress by quadrature of the full tensor over a plate.

    Builds the mode fields from scratch (generator amplitudes at the given
    polarization angle), evaluates the stress tensor on a Gauss-Legendre
    grid over the chosen plate, and averages.  Independent of the algebra
    behind sigma_zz_mode, which is the point.

    Non-convergent quadrature raises QuadratureError carrying the achieved
    error estimate.
    """
    from .numerics import mean_over_rectangle
    if plate not in ("bottom", "top"):
        raise ValueError(f"plate must be 'bottom' or 'top', got {plate!r}")
    wv = wave_vector(mode, geom)
    amp = mode_amplitudes(mode, geom, units, polarization_angle)
    z_plane = 0.0 if plate == "bottom" else geom.a

    def plane_zz(xs, ys):
        e = electric_mode_on_grid(xs, ys, z_plane, wv, amp)
        b = magnetic_mode_on_grid(xs, ys, z_plane, wv, amp, units)
        return stress_tensor(e, b, units)[..., 2, 2]

    return mean_over_rectangle(plane_zz, geom.L, geom.L, tol).value


def sigma_zz_from_boundary_averages(wv: WaveVector, amp: ModeAmplitudes,
                                    units: UnitSystem) -> float:
    """Averaged normal stress assembled from reduced plate averages.

    On a plate the tangential E components and B_z vanish, so the tensor's
    zz entry reduces to eps0 E_z^2 / 2 - B^2 / (2 mu0).  Substituting the
    plate means of E_z^2 and B^2 makes the A_z^2 contributions cancel and
    leaves the closed form of sigma_zz_mode; this function performs the
    substitution without doing the cancellation, as an algebraic
    cross-check.
    """
    mean_ez2 = mean_square_E(amp, "boundary")
    mean_b2 = mean_square_B_boundary(wv, amp, units)
    return 0.5 * (units.epsilon_0 * mean_ez2 - mean_b2 / units.mu_0)

