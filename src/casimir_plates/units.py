"""Unit systems of the printed results.

Every layer computes in natural units (hbar = c = eps0 = 1), where a force
per unit area carries dimension 1/length^4.  Every pressure the command
line prints is linear in hbar*c, so SI output is the natural value times
hbar_c, with lengths in metres and pressures in pascals; lengths and wave
numbers are the same numbers in both systems.
"""

from __future__ import annotations

from typing import NamedTuple

HBAR_C_SI = 3.1615e-26          # J m


class UnitSystem(NamedTuple):
    """A unit system's name and the factor hbar*c that scales a pressure."""

    name: str
    hbar_c: float


NATURAL = UnitSystem("natural", hbar_c=1.0)
SI = UnitSystem("si", hbar_c=HBAR_C_SI)

_BY_NAME = {"natural": NATURAL, "si": SI}


def get_units(name: str) -> UnitSystem:
    """Look up a unit system by name ('natural' or 'si')."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown unit system {name!r}; expected 'natural' or 'si'"
        ) from None
