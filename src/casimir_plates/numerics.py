"""Shared numerical kernels: quadrature, tail-bounded sums, fits, FD Jacobian.

Every routine here is deterministic (same inputs give bit-identical outputs)
and reports an explicit error measure, either in its result type or in the
exception it raises.  The only state kept is the read-only quadrature nodes,
cached per exp-sinh level and per Gauss-Legendre order.

The exp-sinh kernel has one calling convention: it integrates a block of
rows, one integral per row scale, at most 8 levels deep, and returns arrays
of shape (m,); a scalar scale is a block of one row.  The Gauss-Legendre
means integrate one function and return floats.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NumericsError",
    "QuadratureError",
    "TailBoundError",
    "IllConditionedFitError",
    "PrecisionLossError",
    "QuadratureResult",
    "check_positive_finite",
    "integrate_semi_infinite",
    "sum_until_tail_bound",
    "fit_linear_basis",
    "jacobian_fd",
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


def check_positive_finite(name: str, value: float) -> None:
    """Reject a length, cutoff or tolerance that is not positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class QuadratureResult(NamedTuple):
    """An integral, or a block of integrals, with its error estimate."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int


#: Exp-sinh rule: trapezoid nodes t = k h on |t| <= _DE_T_MAX, starting from
#: step _DE_H0.  At |t| = 4 the map below reaches x = s exp(+-42.9), so the
#: dropped ends lie at x/s ~ 2e-19 and ~4e18.
_DE_T_MAX = 4.0
_DE_H0 = 0.5
#: Rounding allowance of the error estimate, in units of eps * h * sum |g|.
_DE_ROUNDING = 4.0 * sys.float_info.epsilon
#: Absolute floor of the convergence test: the smallest normal float.
#: Below it values are subnormal and lose relative precision, so a
#: relative test need not pass however fine the step.
_DE_FLOOR = sys.float_info.min
#: Number of exp-sinh levels, from step _DE_H0 down to _DE_H0 / 2**7.
_DE_LEVELS = 8


@functools.lru_cache(maxsize=16)
def _de_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(pi/2 sinh t) and pi/2 cosh t on the new nodes of a level, read-only.

    Level 0 holds t = k h0 on |t| <= _DE_T_MAX; level l >= 1 holds the odd
    multiples of h0 / 2**l there, the nodes that halving the step adds.
    """
    import numpy as np
    half_width = round(_DE_T_MAX / _DE_H0)
    if level == 0:
        t = _DE_H0 * np.arange(-half_width, half_width + 1)
    else:
        odd = 2 * half_width << (level - 1)
        t = _DE_H0 * 0.5**level * np.arange(1 - odd, odd, 2)
    exp_sinh = np.exp(0.5 * math.pi * np.sinh(t))
    jacobian = 0.5 * math.pi * np.cosh(t)
    exp_sinh.flags.writeable = jacobian.flags.writeable = False
    return exp_sinh, jacobian


def integrate_semi_infinite(
    integrand: Callable[..., np.ndarray],
    tol: float,
    *,
    scale: float | np.ndarray = 1.0,
    params: Sequence[np.ndarray] = (),
) -> QuadratureResult:
    """Integrate a block of continuous, decaying functions over [0, infinity).

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
    at most _DE_LEVELS (8) levels are computed.

    The integrals come in a block of m rows.  ``scale`` is the column of
    row scales s, shape (m, 1), each near where its f carries its mass; a
    scalar is a block of one row.  Each entry of ``params`` is a column of
    per-row parameters of the same shape.  ``integrand(x, *params)``
    returns f elementwise on abscissae x of shape (p, k) for the p rows
    still pending, each scaled by its own scale, together with those rows
    of every parameter column, so f must depend on a row only through its
    abscissae and parameters.  A row stops being evaluated at the level
    where it converges.  Values and error estimates come back as arrays of
    shape (m,), and ``evaluations`` counts integrand values over all rows,
    so a block costs what its rows cost one at a time.

    The error estimate of a row is the difference between its last two
    levels, which bounds the error of the finer one while the rule
    converges, plus the truncated end terms at |t| = 4, a rounding
    allowance and the smallest normal float.  Raises QuadratureError,
    carrying the last values and estimates of every row, if a row does not
    converge within _DE_LEVELS levels or its end terms exceed the
    tolerance.
    """
    import numpy as np
    check_positive_finite("tol", tol)
    column = np.asarray(scale, dtype=float).reshape(-1, 1)
    rows = np.arange(column.shape[0])

    def transformed(level: int) -> np.ndarray:
        """g on the nodes of ``level`` for the pending rows, shape (p, k)."""
        exp_sinh, jacobian = _de_nodes(level)
        x = column[rows] * exp_sinh
        f = integrand(x, *(p[rows] for p in params))
        weighted = x * jacobian
        return np.multiply(f, weighted, out=weighted)

    # per-row state, full size; each level updates the pending rows only
    h = _DE_H0
    g = transformed(0)
    evaluations = g.size
    ends = np.abs(g[:, 0]) + np.abs(g[:, -1])
    total = g.sum(axis=-1)
    magnitude = np.abs(g).sum(axis=-1)
    value = h * total
    estimate = np.full(value.shape, math.inf)
    for level in range(1, _DE_LEVELS):
        h *= 0.5
        g = transformed(level)
        evaluations += g.size
        total[rows] += g.sum(axis=-1)
        magnitude[rows] += np.abs(g).sum(axis=-1)
        finer = h * total[rows]
        change = np.abs(finer - value[rows])
        value[rows] = finer
        estimate[rows] = (change + h * ends[rows]
                          + _DE_ROUNDING * h * magnitude[rows] + _DE_FLOOR)
        bound = np.maximum(tol * h * magnitude[rows], _DE_FLOOR)
        done = change <= bound
        if np.any(done & (h * ends[rows] > bound)):
            raise QuadratureError(
                "exp-sinh quadrature: integrand not negligible at the ends "
                f"of |t| <= {_DE_T_MAX:g}; adjust scale",
                value=value, error_estimate=estimate, evaluations=evaluations)
        rows = rows[~done]
        if rows.size == 0:
            return QuadratureResult(value=value, error_estimate=estimate,
                                    evaluations=evaluations)
    raise QuadratureError(
        f"exp-sinh quadrature did not converge within {_DE_LEVELS} levels "
        f"(tol={tol:g})",
        value=value, error_estimate=estimate, evaluations=evaluations)


#: sum_until_tail_bound asks for n = 1.._FIRST_BLOCK first, then for blocks
#: of at most _MAX_BLOCK terms, which bounds the work arrays a terms
#: callable builds per block (the quadrature's hold rows times nodes).
_FIRST_BLOCK = 64
_MAX_BLOCK = 512


def sum_until_tail_bound(
    terms: Callable[[np.ndarray], np.ndarray],
    tail_bound: Callable[[np.ndarray], np.ndarray],
    tol: float,
    *,
    max_terms: int,
) -> float:
    """Sum term(1) + term(2) + ... until the tail is provably negligible.

    ``terms(ns)`` returns term(n) for each n of an integer array of
    consecutive n, and ``tail_bound(ns)`` bounds abs(sum of term(m) for
    m > n) for each; a valid bound, and terms that all share one sign, are
    the caller's contract.  Terms are added in increasing n, left to right
    into one running float, until tail_bound(n) <= tol * abs(partial sum),
    so the returned value differs from the full sum by at most that amount.

    The terms are asked for in blocks: n = 1..64, then at most 512 at a
    time, each block ending at the first n whose bound already meets tol
    times the sum so far.  The partial sums only grow in magnitude, so the
    sum stops at or before that n, and no term past the block that holds
    the stopping n is computed.

    Raises FloatingPointError (an ArithmeticError) at the first block that
    holds a non-finite term, and TailBoundError (carrying the partial sum
    and the bound after ``max_terms`` terms) once a block shows that
    ``max_terms`` terms cannot satisfy the criterion, without summing them.
    """
    import numpy as np
    check_positive_finite("tol", tol)
    total = 0.0
    ns = np.arange(1, min(_FIRST_BLOCK, max_terms) + 1)
    values, bounds = terms(ns), tail_bound(ns)
    while True:
        finite = np.isfinite(values)
        if not finite.all():
            raise FloatingPointError(
                f"term {ns[np.argmin(finite)]} of the sum is not finite")
        # as in float arithmetic, an overflowing sum or tol * |sum| is inf
        with np.errstate(over="ignore"):
            partial = np.cumsum(np.concatenate(([total], values)))[1:]
            met = np.flatnonzero(bounds <= tol * np.abs(partial))
        if met.size:
            return float(partial[met[0]])
        total = float(partial[-1])
        # |full sum| <= |total| + bounds[-1], so a stop needs tail_bound(n)
        # <= tol * (|total| + bounds[-1]) for some n <= max_terms; twice
        # that at max_terms allows for rounding and errors in the terms
        budget = float(tail_bound(np.array([max_terms]))[0])
        if (ns[-1] >= max_terms
                or budget > 2.0 * tol * (abs(total) + float(bounds[-1]))):
            raise TailBoundError(
                f"tail bound {budget:.3e} still above tol*|sum| after "
                f"{max_terms} terms",
                partial_sum=total, bound=budget)
        ns = np.arange(ns[-1] + 1, min(ns[-1] + _MAX_BLOCK, max_terms) + 1)
        bounds = tail_bound(ns)
        met = np.flatnonzero(bounds <= tol * abs(total))
        if met.size:
            ns, bounds = ns[:met[0] + 1], bounds[:met[0] + 1]
        values = terms(ns)


_COND_MAX = 1e6


def fit_linear_basis(samples: Iterable[tuple[float, float]],
                     basis_exponents: Sequence[float]
                     ) -> tuple[np.ndarray, float, float]:
    """Least-squares fit of y ~ sum_i c_i * x**e_i over (x, y) samples.

    Returns (coefficients, residual_norm, condition_estimate): the array of
    c_i, the 2-norm of the residuals and the equilibrated condition number.

    The design matrix is column-equilibrated (each column scaled to unit
    norm) before the SVD solve, so the reported condition number measures
    genuine collinearity of the basis functions on the sample points rather
    than raw column scale; with exponents like -4 the unscaled matrix is
    numerically useless.  Coefficients are mapped back to the original
    scale before returning.

    Raises IllConditionedFitError when the equilibrated condition number
    exceeds _COND_MAX (1e6) or the matrix is rank deficient.
    """
    import numpy as np
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

    # x**e overflows for extreme x; the column norm is then not finite,
    # which the degenerate-column check below rejects
    with np.errstate(over="ignore"):
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
    return coefficients, float(np.linalg.norm(y - design @ coefficients)), cond


def jacobian_fd(
    field: Callable[[np.ndarray], np.ndarray],
    point: Sequence[float],
    step: float,
) -> np.ndarray:
    """J[i, j] = (f_i(p + step e_j) - f_i(p - step e_j)) / (2 step) at p.

    Two calls of ``field`` per axis.  Second-order accurate: the error of
    J[i, j] is (step**2 / 6) times the third derivative of f_i along axis j.
    """
    import numpy as np
    if step <= 0.0:
        raise ValueError("step must be positive")
    p = np.asarray(point, dtype=float)
    return np.stack([(field(p + e) - field(p - e)) / (2.0 * step)
                     for e in step * np.eye(p.size)], axis=-1)


_GL_LEVELS = (8, 16, 32, 64, 128, 256)


@functools.lru_cache(maxsize=len(_GL_LEVELS))
def _gl_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only."""
    import numpy as np
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
    import numpy as np
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
