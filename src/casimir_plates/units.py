"""Unit systems for the cavity-mode calculations.

All internal computation happens in natural units (hbar = c = eps0 = 1),
where a force per unit area carries dimension 1/length^4.  The SI system is
a presentation layer: every force expression here is linear in hbar*c, so
switching systems only rescales results, with lengths in metres and
pressures in pascals.
"""

from __future__ import annotations

from typing import NamedTuple

HBAR_C_SI = 3.1615e-26          # J m
EPSILON_0_SI = 8.8541878128e-12  # F / m
C_SI = 299792458.0              # m / s


class UnitSystem(NamedTuple):
    """Bundle of physical constants threaded through field and force code."""

    name: str
    hbar_c: float
    epsilon_0: float
    c: float

    @property
    def mu_0(self) -> float:
        # fixed by eps0 mu0 = 1/c^2
        return 1.0 / (self.epsilon_0 * self.c**2)

    def omega(self, k: float) -> float:
        """Angular frequency of a mode with wave number k (dispersion w = c|k|)."""
        return self.c * k


NATURAL = UnitSystem("natural", hbar_c=1.0, epsilon_0=1.0, c=1.0)
SI = UnitSystem("si", hbar_c=HBAR_C_SI, epsilon_0=EPSILON_0_SI, c=C_SI)

_BY_NAME = {"natural": NATURAL, "si": SI}


def get_units(name: str) -> UnitSystem:
    """Look up a unit system by name ('natural' or 'si')."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown unit system {name!r}; expected 'natural' or 'si'"
        ) from None
