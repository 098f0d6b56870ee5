"""Shared numerical kernels: quadrature, tail-bounded sums, basis fits, stencils.

Every routine here is deterministic (same inputs give bit-identical outputs)
and reports an explicit error measure, either in its result type or in the
exception it raises.  The only state kept is a cache of Gauss-Legendre nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "QuadratureError",
    "TailBoundError",
    "IllConditionedFitError",
    "QuadratureResult",
    "FitResult",
    "check_positive_finite",
    "integrate_semi_infinite",
    "sum_until_tail_bound",
    "fit_linear_basis",
    "central_difference",
    "curl_fd",
    "mean_over_rectangle",
    "mean_over_box",
]

#: Absolute error floor for quadrature convergence tests.  Relative tolerances
#: are meaningless when the true value is zero; below this magnitude an
#: integral is accepted as converged.
ABS_FLOOR = 1e-30


class NumericsError(Exception):
    """Base class for failures of the numerical kernels."""


class QuadratureError(NumericsError):
    """Quadrature did not reach the requested tolerance.

    Carries the best value obtained and its achieved error estimate so
    callers can decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, value: float, error_estimate: float,
                 evaluations: int):
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


def check_positive_finite(name: str, value: float) -> None:
    """Reject a length, cutoff or tolerance that is not positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class QuadratureResult:
    """An integral, or a row of integrals, with its error estimate."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int


@dataclass(frozen=True)
class FitResult:
    coefficients: np.ndarray
    residual_norm: float
    condition_estimate: float


#: Exp-sinh rule: trapezoid nodes t = k h on |t| <= _DE_T_MAX, starting from
#: step _DE_H0.  At |t| = 4 the map below reaches x = s exp(+-42.9), so the
#: dropped ends lie at x/s ~ 2e-19 and ~4e18.
_DE_T_MAX = 4.0
_DE_H0 = 0.5
#: Rounding allowance of the error estimate, in units of eps * h * sum |g|.
_DE_ROUNDING = 4.0 * np.finfo(float).eps
#: Absolute floor of the convergence test: the smallest normal float.
#: Below it values are subnormal and lose relative precision, so a
#: relative test need not pass however fine the step.
_DE_FLOOR = np.finfo(float).tiny


def integrate_semi_infinite(
    integrand: Callable[[np.ndarray], np.ndarray],
    tol: float,
    *,
    scale: float | np.ndarray = 1.0,
    limit: int = 8,
) -> QuadratureResult:
    """Integrate continuous, decaying functions over [0, infinity).

    Double-exponential (exp-sinh) rule of Takahasi and Mori, Publ. RIMS 9
    (1974) 721: the substitution x = s exp(pi/2 sinh t) maps the real t
    line onto the half line, and the transformed integrand
    g(t) = f(x) dx/dt decays doubly exponentially as t -> -infinity and,
    for any f with an exponential factor, as t -> +infinity, so the
    trapezoid rule in t converges geometrically in 1/h.  The step starts
    at 0.5 on |t| <= 4 and is halved, reusing every earlier node, until two
    successive levels differ by at most ``tol`` times the integral of |f|
    (the integral itself when f keeps one sign) or by the smallest normal
    float, whichever is larger, so the relative test holds for integrals
    above tiny / tol and integrals in the subnormal range still converge;
    at most ``limit`` levels are computed.  ``scale`` (s) should sit near where f carries its mass.

    ``integrand`` receives an array of abscissae and returns f elementwise.
    With a scalar ``scale`` the abscissae have shape (k,) and the result
    holds floats.  With a column of scales, shape (m, 1), the abscissae
    have shape (m, k), row i scaled by scale[i], so ``integrand`` can
    broadcast per-row parameters of shape (m, 1) against them; the m
    integrals come back as arrays of shape (m,), each row taken from the
    level at which that row converged.  ``evaluations`` counts integrand
    values over all rows.

    The error estimate of a row is the difference between its last two
    levels, which bounds the error of the finer one while the rule
    converges, plus the truncated end terms at |t| = 4, a rounding
    allowance and the smallest normal float.  Raises QuadratureError, carrying the last values and
    estimates, if a row does not converge within ``limit`` levels or its
    end terms exceed the tolerance.
    """
    check_positive_finite("tol", tol)
    if limit < 1:
        raise ValueError("limit must be at least 1")
    s = np.asarray(scale, dtype=float)

    def transformed(t: np.ndarray) -> np.ndarray:
        x = s * np.exp(0.5 * math.pi * np.sinh(t))
        return integrand(x) * (x * (0.5 * math.pi * np.cosh(t)))

    half_width = round(_DE_T_MAX / _DE_H0)
    h = _DE_H0
    g = transformed(h * np.arange(-half_width, half_width + 1))
    evaluations = g.size
    ends = np.abs(g[..., 0]) + np.abs(g[..., -1])
    total = g.sum(axis=-1)
    magnitude = np.abs(g).sum(axis=-1)
    value = h * total
    value_at = np.full(value.shape, math.nan)
    estimate = estimate_at = np.full(value.shape, math.inf)
    pending = np.ones(value.shape, dtype=bool)
    for level in range(1, limit):
        h *= 0.5
        odd = 2 * half_width << (level - 1)
        g = transformed(h * np.arange(1 - odd, odd, 2))
        evaluations += g.size
        total = total + g.sum(axis=-1)
        magnitude = magnitude + np.abs(g).sum(axis=-1)
        finer = h * total
        change = np.abs(finer - value)
        value = finer
        estimate = (change + h * ends + _DE_ROUNDING * h * magnitude
                    + _DE_FLOOR)
        bound = np.maximum(tol * h * magnitude, _DE_FLOOR)
        done = pending & (change <= bound)
        value_at = np.where(done, value, value_at)
        estimate_at = np.where(done, estimate, estimate_at)
        if np.any(done & (h * ends > bound)):
            raise QuadratureError(
                "exp-sinh quadrature: integrand not negligible at the ends "
                f"of |t| <= {_DE_T_MAX:g}; adjust scale",
                value=_unwrap(value), error_estimate=_unwrap(estimate),
                evaluations=evaluations)
        pending &= ~done
        if not pending.any():
            break
    if pending.any():
        raise QuadratureError(
            f"exp-sinh quadrature did not converge within {limit} levels "
            f"(tol={tol:g})",
            value=_unwrap(np.where(pending, value, value_at)),
            error_estimate=_unwrap(np.where(pending, estimate, estimate_at)),
            evaluations=evaluations)
    return QuadratureResult(value=_unwrap(value_at),
                            error_estimate=_unwrap(estimate_at),
                            evaluations=evaluations)


def _unwrap(values: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a float, a row of results unchanged."""
    return float(values) if values.ndim == 0 else values


def sum_until_tail_bound(
    term: Callable[[int], float],
    tail_bound: Callable[[int], float],
    tol: float,
    *,
    max_terms: int = 200_000,
) -> float:
    """Sum term(1) + term(2) + ... until the tail is provably negligible.

    ``tail_bound(n)`` must bound abs(sum of term(m) for m > n); supplying a
    valid bound is the caller's contract.  Terms are added in increasing n
    until tail_bound(n) <= tol * abs(partial sum), so the returned value
    differs from the full sum by at most that amount.

    Raises TailBoundError (carrying the partial sum and last bound) if
    ``max_terms`` terms never satisfy the criterion.
    """
    check_positive_finite("tol", tol)
    total = 0.0
    bound = math.inf
    for n in range(1, max_terms + 1):
        total += term(n)
        bound = tail_bound(n)
        if bound <= tol * abs(total):
            return total
    raise TailBoundError(
        f"tail bound {bound:.3e} still above tol*|sum| after {max_terms} terms",
        partial_sum=total, bound=bound)


_COND_MAX = 1e6


def fit_linear_basis(samples: Iterable[tuple[float, float]],
                     basis_exponents: Sequence[float]) -> FitResult:
    """Least-squares fit of y ~ sum_i c_i * x**e_i over (x, y) samples.

    The design matrix is column-equilibrated (each column scaled to unit
    norm) before the SVD solve, so the reported condition number measures
    genuine collinearity of the basis functions on the sample points rather
    than raw column scale; with exponents like -4 the unscaled matrix is
    numerically useless.  Coefficients are mapped back to the original
    scale before returning.

    Raises IllConditionedFitError when the equilibrated condition number
    exceeds _COND_MAX (1e6) or the matrix is rank deficient.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("samples must be (x, y) pairs")
    exps = np.asarray(basis_exponents, dtype=float)
    if exps.size == 0:
        raise ValueError("need at least one basis exponent")
    x, y = pts[:, 0], pts[:, 1]
    if x.size < exps.size:
        raise ValueError("need at least as many samples as basis functions")
    if np.any(exps < 0) and np.any(x <= 0.0):
        raise ValueError("negative exponents require strictly positive x")

    design = np.power.outer(x, exps)
    scale = np.linalg.norm(design, axis=0)
    if not np.all(np.isfinite(scale)) or np.any(scale == 0.0):
        raise IllConditionedFitError(
            "degenerate design column", condition_estimate=math.inf)
    scaled = design / scale
    coeffs_scaled, _, rank, singular = np.linalg.lstsq(scaled, y, rcond=None)
    if singular[-1] <= 0.0 or rank < exps.size:
        raise IllConditionedFitError(
            "rank-deficient design matrix", condition_estimate=math.inf)
    cond = float(singular[0] / singular[-1])
    if cond > _COND_MAX:
        raise IllConditionedFitError(
            f"condition estimate {cond:.3e} exceeds limit {_COND_MAX:.3e}",
            condition_estimate=cond)
    coefficients = coeffs_scaled / scale
    residual_norm = float(np.linalg.norm(y - design @ coefficients))
    return FitResult(coefficients=coefficients, residual_norm=residual_norm,
                     condition_estimate=cond)


def central_difference(
    f: Callable[[np.ndarray], float],
    point: Sequence[float],
    axis: int,
    step: float,
) -> float:
    """Two-sided first derivative of a scalar field along one axis.

    Second-order accurate: the truncation error is (step**2 / 6) times the
    third derivative along ``axis``.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    p = np.asarray(point, dtype=float)
    offset = np.zeros_like(p)
    offset[axis] = step
    return (f(p + offset) - f(p - offset)) / (2.0 * step)


def curl_fd(
    field: Callable[[np.ndarray], np.ndarray],
    point: Sequence[float],
    step: float,
) -> np.ndarray:
    """Finite-difference curl of a 3-vector field, error O(step^2)."""

    def component(i: int) -> Callable[[np.ndarray], float]:
        return lambda p: float(field(p)[i])

    d = lambda i, axis: central_difference(component(i), point, axis, step)
    return np.array([
        d(2, 1) - d(1, 2),
        d(0, 2) - d(2, 0),
        d(1, 0) - d(0, 1),
    ])


_GL_LEVELS = (8, 16, 32, 64, 128, 256)


@functools.lru_cache(maxsize=len(_GL_LEVELS))
def _gl_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _grid_mean(f: Callable[..., np.ndarray], lengths: tuple[float, ...],
               tol: float) -> QuadratureResult:
    """Mean of f over [0, lengths[0]] x ... by node-doubling Gauss-Legendre.

    ``f`` receives one node array per axis, shaped to broadcast against the
    others ((n, 1) and (1, n) on a rectangle), and returns the values on the
    grid.  Levels double while the grid holds at most 128^3 points: up to 256
    nodes per axis on a rectangle, 128 on a box.  Converged when successive
    levels agree to ``tol`` relatively (or both fall below the absolute
    floor); the error estimate is the last inter-level difference.
    """
    dims = len(lengths)
    axes = "ijklmn"[:dims]
    subscripts = ",".join(axes) + "," + axes + "->"
    prev = None
    evaluations = 0
    estimate = math.inf
    for n in _GL_LEVELS:
        if n**dims > 128**3:
            break
        x, w = _gl_reference(n)
        # map [-1, 1] -> [0, length] on each axis
        vals = f(*np.ix_(*(0.5 * length * (x + 1.0) for length in lengths)))
        weights = [0.5 * length * w for length in lengths]
        integral = float(np.einsum(subscripts, *weights, vals))
        mean = integral / math.prod(lengths)
        evaluations += n**dims
        if prev is not None:
            estimate = abs(mean - prev)
            if estimate <= max(tol * abs(mean), ABS_FLOOR):
                return QuadratureResult(mean, estimate, evaluations)
        prev = mean
    raise QuadratureError(
        f"{dims}-D Gauss-Legendre mean did not converge below tol={tol:g}",
        value=prev, error_estimate=estimate, evaluations=evaluations)


def mean_over_rectangle(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        lx: float, ly: float, tol: float) -> QuadratureResult:
    """Mean of f(x, y) over [0,lx] x [0,ly]; see _grid_mean."""
    return _grid_mean(f, (lx, ly), tol)


def mean_over_box(f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                  lx: float, ly: float, lz: float, tol: float) -> QuadratureResult:
    """Mean of f(x, y, z) over [0,lx] x [0,ly] x [0,lz]; see _grid_mean."""
    return _grid_mean(f, (lx, ly, lz), tol)
