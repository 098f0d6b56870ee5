"""Casimir force between parallel conducting plates via Maxwell stress.

The attraction emerges in three layers, each exposed on its own:

  modes    standing-wave cavity fields with exact boundary zeros,
  stress   the Maxwell stress tensor and the per-mode plate stress,
  regsum   cutoff-regularized mode sums and the finite force
           pi^2 hbar c / (240 a^4).

numerics holds the shared kernels (quadrature, tail-bounded sums, basis
fits), verify the cross-layer self-checks, and cli the command line.

Every function that works on arrays imports numpy itself, so importing the
package, and the closed-form, series and mode-table paths, never load it.
"""

from .modes import (
    CavityGeometry,
    ModeAmplitudes,
    ModeIndex,
    WaveVector,
    amplitude_norm_squared,
    electric_mode_at,
    magnetic_mode_at,
    mode_amplitudes,
    wave_vector,
)
from .regsum import (
    Regulator,
    RegularizedForce,
    asymptotic_parts,
    bernoulli_numbers,
    casimir_closed_form,
    extract_finite_part,
    force_closed_form,
    force_per_n_sum,
    force_sum_numeric,
    series_terms,
)
from .stress import sigma_zz_direct, sigma_zz_mode, stress_tensor
from .units import NATURAL, SI, UnitSystem, get_units

__version__ = "0.1.0"

__all__ = [
    "CavityGeometry",
    "ModeAmplitudes",
    "ModeIndex",
    "NATURAL",
    "Regulator",
    "RegularizedForce",
    "SI",
    "UnitSystem",
    "WaveVector",
    "amplitude_norm_squared",
    "asymptotic_parts",
    "bernoulli_numbers",
    "casimir_closed_form",
    "electric_mode_at",
    "extract_finite_part",
    "force_closed_form",
    "force_per_n_sum",
    "force_sum_numeric",
    "get_units",
    "magnetic_mode_at",
    "mode_amplitudes",
    "series_terms",
    "sigma_zz_direct",
    "sigma_zz_mode",
    "stress_tensor",
    "wave_vector",
    "__version__",
]
