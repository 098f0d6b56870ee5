"""Error types of the package and its one shared input check.

The kernels in numerics raise NumericsError and its subclasses, the force
routes PrecisionLossError, and modes TransversalityError.  They live here,
apart from the kernels, so that a command can catch them, and a layer can
validate its inputs, without compiling the kernels it does not run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NumericsError",
    "QuadratureError",
    "TailBoundError",
    "IllConditionedFitError",
    "PrecisionLossError",
    "TransversalityError",
    "check_positive_finite",
]


class NumericsError(Exception):
    """Base class for failures of the numerical kernels."""


class QuadratureError(NumericsError):
    """Quadrature did not reach the requested tolerance.

    Carries the best value obtained and its achieved error estimate so
    callers can decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, value: float | np.ndarray,
                 error_estimate: float | np.ndarray, evaluations: int):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations


class TailBoundError(NumericsError):
    """A truncated sum's tail bound never dropped below tolerance."""

    def __init__(self, message: str, partial_sum: float, bound: float):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.bound = bound


class IllConditionedFitError(NumericsError):
    """Least-squares design matrix too ill-conditioned to trust."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class PrecisionLossError(ValueError):
    """A value lost to cancellation, or a result out of double range."""


class TransversalityError(ValueError):
    """Amplitude vector not orthogonal to the wave vector."""


def check_positive_finite(name: str, value: float) -> None:
    """Reject a length, cutoff or tolerance that is not positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
