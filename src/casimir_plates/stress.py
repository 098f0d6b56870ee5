"""Maxwell stress tensor of cavity modes and the plate-averaged normal stress.

Averages here are spatial means of squared standing-wave profiles; the
amplitude normalization in modes.py is defined for exactly this convention.
Units are natural (hbar = c = eps0 = mu0 = 1).  Under this convention the
zz component of the stress tensor, averaged over a plate, collapses to the
closed form

    sigma_zz = -(1/2) (hbar c / (L^2 a)) k_z^2 / k = (1/L^2) d(omega/2)/da

independent of how the mode's amplitude is distributed between the two
polarizations.  Two other evaluation routes are kept alongside the closed
form: a midpoint-grid mean of the tensor over the plate, exact up to
rounding for the one-mode fields it averages (sigma_zz_direct), and
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

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "stress_tensor",
    "sigma_zz_mode",
    "sigma_zz_direct",
    "sigma_zz_from_boundary_averages",
]


def stress_tensor(E, B) -> np.ndarray:
    """Maxwell stress tensor from field values.

    ``E`` and ``B`` are array-likes of shape (..., 3); the result is
    E_i E_j + B_i B_j - delta_ij (E^2 + B^2) / 2 with shape (..., 3, 3).
    Symmetric by construction.  Sign convention: sigma_zz < 0 means the
    field pulls the plate toward the cavity interior.
    """
    import numpy as np
    e = np.asarray(E, dtype=float)
    b = np.asarray(B, dtype=float)
    if e.shape[-1] != 3 or b.shape[-1] != 3:
        raise ValueError("E and B must have a trailing axis of length 3")
    outer_e = e[..., :, None] * e[..., None, :]
    outer_b = b[..., :, None] * b[..., None, :]
    trace_half = 0.5 * (np.sum(e * e, axis=-1) + np.sum(b * b, axis=-1))
    return outer_e + outer_b - trace_half[..., None, None] * np.eye(3)


def sigma_zz_mode(mode: ModeIndex, geom: CavityGeometry) -> float:
    """Closed-form averaged normal stress of one mode, negative for all."""
    wv = wave_vector(mode, geom)
    return -0.5 / (geom.L**2 * geom.a) * wv.k_z**2 / wv.k


def sigma_zz_direct(mode: ModeIndex, geom: CavityGeometry, *,
                    polarization_angle: float = 0.0,
                    plate: str = "bottom") -> float:
    """Averaged normal stress by quadrature of the full tensor over a plate.

    Builds the mode fields from scratch (generator amplitudes at the given
    polarization angle), evaluates the stress tensor on the cell midpoints
    of the plate and averages.  The tensor is quadratic in one mode's
    fields, so along each axis it is a trigonometric polynomial of order at
    most max(mode), whose mean numerics.mean_over_rectangle takes exactly
    up to rounding.  Independent of the algebra behind sigma_zz_mode, which
    is the point.
    """
    from .numerics import mean_over_rectangle
    if plate not in ("bottom", "top"):
        raise ValueError(f"plate must be 'bottom' or 'top', got {plate!r}")
    wv = wave_vector(mode, geom)
    amp = mode_amplitudes(mode, geom, polarization_angle)
    z_plane = 0.0 if plate == "bottom" else geom.a

    def plane_zz(xs, ys):
        e = electric_mode_on_grid(xs, ys, z_plane, wv, amp)
        b = magnetic_mode_on_grid(xs, ys, z_plane, wv, amp)
        return stress_tensor(e, b)[..., 2, 2]

    return mean_over_rectangle(plane_zz, geom.L, geom.L, max(mode)).value


def sigma_zz_from_boundary_averages(wv: WaveVector,
                                    amp: ModeAmplitudes) -> float:
    """Averaged normal stress assembled from reduced plate averages.

    On a plate the tangential E components and B_z vanish, so the tensor's
    zz entry reduces to E_z^2 / 2 - B^2 / 2.  Substituting the
    plate means of E_z^2 and B^2 makes the A_z^2 contributions cancel and
    leaves the closed form of sigma_zz_mode; this function performs the
    substitution without doing the cancellation, as an algebraic
    cross-check.
    """
    mean_ez2 = mean_square_E(amp, "boundary")
    mean_b2 = mean_square_B_boundary(wv, amp)
    return 0.5 * (mean_ez2 - mean_b2)

