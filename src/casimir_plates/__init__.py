"""Casimir force between parallel conducting plates via Maxwell stress.

The attraction emerges in three layers, each exposed on its own:

  modes    standing-wave cavity fields with exact boundary zeros,
  stress   the Maxwell stress tensor and the per-mode plate stress,
  regsum   cutoff-regularized mode sums and the finite force
           pi^2 hbar c / (240 a^4).

numerics holds the shared kernels (quadrature, tail-bounded sums, basis
fits), errors the error types and the shared input check, verify the
cross-layer self-checks, and cli the command line.  Every layer computes
in natural units (hbar = c = eps0 = 1); the command line alone turns a
printed pressure into pascals, by the factor cli.HBAR_C_SI.

The package loads each layer on first use: importing it runs no layer, and
a public name below imports its layer when it is first looked up.  Every
function that works on arrays imports numpy itself, and every function
that runs a kernel imports it from numerics, so the closed-form, series and
mode-table paths load neither numpy nor numerics, and verify compiles every
layer it checks before numpy loads.  The exact tables of regsum are reduced integer
(numerator, denominator) pairs, computed and returned in plain ints.
"""

import importlib

#: The layer that defines each public name.
_LAYER_OF = {name: layer for layer, names in {
    "modes": ("CavityGeometry", "ModeAmplitudes", "ModeIndex", "WaveVector",
              "amplitude_norm_squared", "electric_mode_at",
              "magnetic_mode_at", "mode_amplitudes", "wave_vector"),
    "regsum": ("Regulator", "RegularizedForce", "asymptotic_parts",
               "bernoulli_numbers", "casimir_closed_form",
               "extract_finite_part", "force_closed_form", "force_per_n_sum",
               "force_sum_numeric", "series_terms"),
    "stress": ("sigma_zz_direct", "sigma_zz_mode", "stress_tensor"),
}.items() for name in names}

#: Layers reachable as attributes of the package without an import.
_LAYERS = ("modes", "numerics", "regsum", "stress")

__version__ = "0.1.0"

__all__ = [*sorted(_LAYER_OF), "__version__"]


def __getattr__(name: str):
    """Import the layer behind a public name on first lookup (PEP 562)."""
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER_OF, *_LAYERS})
