"""Shared numerical kernels: quadrature, grid means, a blocked sum, fits,
FD Jacobian, and a map that splits a sweep's numeric_sum cells over the CPUs.

Every routine here is deterministic (same inputs give bit-identical outputs).
Each reports an explicit error measure, either in its result type or in the
exception it raises, except the blocked sum: it sums n = 1..n_stop and no
further, and its caller bounds the tail past n_stop before the first term
(regsum solves that stop).  The only state kept is the read-only exp-sinh
nodes, cached per level.

The exp-sinh kernel has one calling convention: it integrates a block of
rows, one integral per row scale, at most 8 levels deep, in slabs of at most
8192 integrand values, and returns arrays of shape (m,); a scalar scale is a
block of one row.  The midpoint-grid means average one function of a
declared order and return floats.

The error types the kernels raise, and check_positive_finite, live in
errors, the one module to import them from.  The other layers import each
kernel inside the function that calls it, so that a command which runs
none of them never compiles this module.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import os
import sys
from typing import (TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence,
                    TypeVar)

from .errors import (IllConditionedFitError, QuadratureError,
                     check_positive_finite)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadratureResult",
    "integrate_semi_infinite",
    "sum_until_tail_bound",
    "fit_linear_basis",
    "jacobian_fd",
    "mean_over_rectangle",
    "mean_over_box",
    "parallel_map",
]

class QuadratureResult(NamedTuple):
    """An integral or mean, or a block of integrals, with its error estimate."""

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
#: Most integrand values the exp-sinh kernel asks for in one call: a level's
#: pending rows go in slabs of at most _SLAB // k rows of its k new nodes
#: (one row per slab if k exceeds it).  8192 doubles are 64 KiB, so the
#: abscissae and the returned array stay in a core's L2 cache whatever the
#: block size, while one call still covers 8 rows of the deepest level
#: (1024 nodes), enough to keep numpy's per-call overhead a small share.
_SLAB = 8192


@functools.lru_cache(maxsize=16)
def _de_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(pi/2 sinh t) and its t-derivative on the new nodes of a level, read-only.

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
    weight = exp_sinh * (0.5 * math.pi * np.cosh(t))
    exp_sinh.flags.writeable = weight.flags.writeable = False
    return exp_sinh, weight


def integrate_semi_infinite(
    integrand: Callable[..., np.ndarray],
    tol: float,
    *,
    scale: float | np.ndarray = 1.0,
    params: Sequence[np.ndarray] = (),
    allowance: float | np.ndarray = 0.0,
) -> QuadratureResult:
    """Integrate a block of continuous, decaying functions over [0, infinity).

    Double-exponential (exp-sinh) rule of Takahasi and Mori, Publ. RIMS 9
    (1974) 721: the substitution x = s exp(pi/2 sinh t) maps the real t
    line onto the half line, and the transformed integrand
    g(t) = f(x) dx/dt decays doubly exponentially as t -> -infinity and,
    for any f with an exponential factor, as t -> +infinity, so the
    trapezoid rule in t converges geometrically in 1/h.  The step starts
    at 0.5 on |t| <= 4 and is halved, reusing every earlier node, until two
    successive levels of a row differ by at most the largest of ``tol``
    times the integral of |f| (the integral itself when f keeps one sign),
    the row's absolute ``allowance`` and the smallest normal float, so the
    relative test holds for integrals above tiny / tol and integrals in the
    subnormal range still converge; at most _DE_LEVELS (8) levels are
    computed.

    The integrals come in a block of m rows.  ``scale`` is the column of
    row scales s, shape (m, 1), each near where its f carries its mass; a
    scalar is a block of one row.  Each entry of ``params`` is a column of
    per-row parameters of the same shape, and ``allowance``, the absolute
    error each row may keep, is a column of that shape or a scalar for
    every row (default 0, a purely relative test).
    ``integrand(x, *params)`` returns f elementwise on abscissae x of shape
    (p, k) for the p rows still pending, each scaled by its own scale,
    together with those rows of every parameter column, so f must depend
    on a row only through its abscissae and parameters.  Each level asks
    for its pending rows in slabs of at most _SLAB (8192) values, so p is
    at most max(1, 8192 // k) and no work array grows with the block.  The
    integrand may overwrite x, and may return it; the kernel applies the
    weight dx/dt in place to the array returned, so a call holds at most
    the abscissae and that array.  A row stops being evaluated at the level
    where it converges.  Values and error estimates come back as arrays of
    shape (m,), and ``evaluations`` counts integrand values over all rows,
    so a block costs what its rows cost one at a time: each row is summed
    on its own, and its value, estimate and evaluations do not depend on
    the rows beside it or on the slabs.

    The error estimate of a row is the difference between its last two
    levels, which bounds the error of the finer one while the rule
    converges, plus the truncated end terms at |t| = 4, a rounding
    allowance and the smallest normal float.  Raises QuadratureError,
    carrying the last values and estimates of every row, if a row does not
    converge within _DE_LEVELS levels or its end terms exceed what its
    convergence test allows.
    """
    import numpy as np
    check_positive_finite("tol", tol)
    column = np.asarray(scale, dtype=float).reshape(-1, 1)
    floor = np.maximum(np.asarray(allowance, dtype=float), _DE_FLOOR)
    floor = np.broadcast_to(floor, column.shape).ravel()
    rows = np.arange(column.shape[0])
    evaluations = 0

    def level_sums(level: int) -> np.ndarray:
        """sum g, sum |g| and g at the two outermost nodes, over the nodes
        of ``level``, one column per pending row, shape (3, p); g is built
        one slab of rows at a time."""
        nonlocal evaluations
        exp_sinh, weight = _de_nodes(level)
        out = np.empty((3, rows.size))
        step = max(1, _SLAB // exp_sinh.size)
        for start in range(0, rows.size, step):
            slab = rows[start:start + step]
            s = column[slab]
            g = integrand(s * exp_sinh, *(p[slab] for p in params))
            g *= s
            g *= weight
            evaluations += g.size
            part = out[:, start:start + step]
            part[0] = g.sum(axis=-1)
            part[2] = g[:, 0] + g[:, -1]
            part[1] = np.abs(g, out=g).sum(axis=-1)
        return out

    # per-row state, full size; each level updates the pending rows only
    h = _DE_H0
    total, magnitude, ends = level_sums(0)
    value = h * total
    estimate = np.full(value.shape, math.inf)
    for level in range(1, _DE_LEVELS):
        h *= 0.5
        level_total, level_magnitude, _ = level_sums(level)
        total[rows] += level_total
        magnitude[rows] += level_magnitude
        finer = h * total[rows]
        change = np.abs(finer - value[rows])
        value[rows] = finer
        estimate[rows] = (change + h * ends[rows]
                          + _DE_ROUNDING * h * magnitude[rows] + _DE_FLOOR)
        bound = np.maximum(tol * h * magnitude[rows], floor[rows])
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
        f"exp-sinh quadrature did not converge within {_DE_LEVELS} levels",
        value=value, error_estimate=estimate, evaluations=evaluations)


#: sum_until_tail_bound asks for at most _MAX_BLOCK terms at a time, which
#: bounds the per-term arrays a terms callable builds per block.  The
#: exp-sinh kernel bounds its own work arrays by _SLAB, whatever the block.
_MAX_BLOCK = 512


def sum_until_tail_bound(terms: Callable[[np.ndarray], np.ndarray],
                         n_stop: int) -> float:
    """term(1) + term(2) + ... + term(n_stop), left to right.

    The caller has already bounded the tail past ``n_stop``; this only
    sums.  ``terms(ns)`` returns term(n) for each n of an integer array of
    consecutive n, and is asked for n = 1..n_stop in consecutive blocks of
    at most 512.  Each term is added into one running float, in increasing
    n, so the result is bit-identical to ``total += term(n)`` one term at a
    time.  Raises FloatingPointError (an ArithmeticError), naming the first
    non-finite term, at the block that holds it.
    """
    import numpy as np
    total = 0.0
    for first in range(1, n_stop + 1, _MAX_BLOCK):
        ns = np.arange(first, min(first + _MAX_BLOCK, n_stop + 1))
        values = terms(ns)
        finite = np.isfinite(values)
        if not finite.all():
            raise FloatingPointError(
                f"term {ns[np.argmin(finite)]} of the sum is not finite")
        # as in float arithmetic, an overflowing sum is inf
        with np.errstate(over="ignore"):
            total = float(np.cumsum(np.concatenate(([total], values)))[-1])
    return total


_COND_MAX = 1e6
_JACOBI_SWEEPS = 30  # sweep cap of _jacobi_svd; an extract fit takes 5 or 6


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return math.fsum(map(operator.mul, u, v))


def _jacobi_svd(columns: list[list[float]]
                ) -> tuple[list[float], list[list[float]]]:
    """(sigma_j**2, column j of V) by one-sided (Hestenes) Jacobi rotations.

    Rotates column pairs in place, and V's alike, until each pair is
    orthogonal to m eps relatively, leaving A V = U Sigma (Demmel and
    Veselic, SIAM J. Matrix Anal. Appl. 13 (1992) 1204).
    """
    k, tol = len(columns), len(columns[0]) * sys.float_info.epsilon
    v = [[float(i == j) for i in range(k)] for j in range(k)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p, q in itertools.combinations(range(k), 2):
            alpha, beta, gamma = (_dot(columns[i], columns[j])
                                  for i, j in ((p, p), (q, q), (p, q)))
            if abs(gamma) <= tol * math.sqrt(alpha) * math.sqrt(beta):
                continue
            rotated = True
            # t, the smaller root of t^2 + 2 zeta t = 1, zeroes gamma
            zeta = (beta - alpha) / (2.0 * gamma)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.hypot(1.0, t)
            for pair in (columns, v):
                x, y = pair[p], pair[q]
                pair[p] = [c * (xi - t * yi) for xi, yi in zip(x, y)]
                pair[q] = [c * (t * xi + yi) for xi, yi in zip(x, y)]
        if not rotated:
            return [_dot(col, col) for col in columns], v
    raise IllConditionedFitError(
        f"Jacobi SVD still rotating after {_JACOBI_SWEEPS} sweeps",
        condition_estimate=math.inf)


def fit_linear_basis(samples: Iterable[tuple[float, float]],
                     basis_exponents: Sequence[float]
                     ) -> tuple[tuple[float, ...], float, float]:
    """Least-squares fit of y ~ sum_i c_i * x**e_i over (x, y) samples.

    Returns (coefficients, residual_norm, condition_estimate): the tuple of
    c_i, the 2-norm of the residuals and sigma_max / sigma_min of the design
    scaled to unit columns, in which the SVD solves c = V Sigma^-1 U^T y;
    scaled, it measures collinearity, not the scale of columns like x**-4.
    Raises ValueError for samples that are not finite (x, y) pairs, and
    IllConditionedFitError when the condition number exceeds _COND_MAX
    (1e6), infinite where sigma_min is 0.
    """
    pts = [tuple(map(float, p)) for p in samples]
    if not pts or any(len(p) != 2 or not all(map(math.isfinite, p))
                      for p in pts):
        raise ValueError("samples must be finite (x, y) pairs")
    x, y = zip(*pts)
    exps = [float(e) for e in basis_exponents]
    if not exps:
        raise ValueError("need at least one basis exponent")
    if len(x) < len(exps):
        raise ValueError("need at least as many samples as basis functions")
    if min(exps) < 0 and min(x) <= 0.0:
        raise ValueError("negative exponents require strictly positive x")

    # x**e overflows or is complex for extreme or negative x: degenerate
    try:
        design = [[math.pow(xi, e) for xi in x] for e in exps]
        scale = [math.hypot(*col) for col in design]
    except (OverflowError, ValueError):
        scale = [math.inf]
    if not all(0.0 < s < math.inf for s in scale):
        raise IllConditionedFitError(
            "degenerate design column", condition_estimate=math.inf)
    columns = [[v / s for v in col] for col, s in zip(design, scale)]
    squares, v = _jacobi_svd(columns)
    sigma_max, sigma_min = math.sqrt(max(squares)), math.sqrt(min(squares))
    cond = sigma_max / sigma_min if sigma_min else math.inf
    if cond > _COND_MAX:
        raise IllConditionedFitError(
            f"condition estimate {cond:.3e} exceeds limit {_COND_MAX:.3e}",
            condition_estimate=cond)
    # V Sigma^-1 U^T y = V Sigma^-2 (A V)^T y, then undo the column scales
    weights = [_dot(col, y) / sq for col, sq in zip(columns, squares)]
    coefficients = tuple(_dot(row, weights) / s
                         for row, s in zip(zip(*v), scale))
    residuals = [yi - _dot(row, coefficients)
                 for yi, row in zip(y, zip(*design))]
    return coefficients, math.hypot(*residuals), cond


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


#: Rounding allowance of a midpoint mean, in units of (n_max + 1) mean |f|:
#: a phase of order n_max is off by about n_max eps.
_GRID_ROUNDING = 4.0 * sys.float_info.epsilon


def _midpoints(n: int, length: float) -> np.ndarray:
    """The n cell midpoints (j + 1/2) length / n of [0, length]."""
    import numpy as np
    return length * ((np.arange(n) + 0.5) / n)


def _grid_mean(f: Callable[..., np.ndarray], lengths: tuple[float, ...],
               n_max: int) -> QuadratureResult:
    """Mean of f over [0, lengths[0]] x ... on n_max + 2 midpoints per axis.

    ``f`` receives one node array per axis, shaped to broadcast against the
    others ((n, 1) and (1, n) on a rectangle).  N midpoints on [0, l]
    integrate exp(2 pi i m x / l) exactly for |m| < N (Trefethen and
    Weideman, SIAM Rev. 56 (2014) 385), so the mean is exact up to rounding
    when f is along each axis a trigonometric polynomial of order at most
    ``n_max``, as a quadratic form of one cavity mode's fields is with
    n_max = max(mode).  The estimate is the difference from the mean on
    n_max + 1 points, large for an f of higher order, plus _GRID_ROUNDING
    (n_max + 1) mean |f|.  Raises ValueError for an ``n_max`` that is not
    an integer >= 0 or whose finer grid exceeds 128^3 points.
    """
    import numpy as np
    dims = len(lengths)
    if (not isinstance(n_max, numbers.Integral) or isinstance(n_max, bool)
            or n_max < 0):
        raise ValueError(f"n_max must be an integer >= 0, got {n_max!r}")
    if (n_max + 2)**dims > 128**3:
        raise ValueError(f"n_max = {n_max} needs {n_max + 2}^{dims} points, "
                         "above the budget of 128^3")
    coarse, fine = (f(*np.ix_(*(_midpoints(n, length) for length in lengths)))
                    for n in (n_max + 1, n_max + 2))
    mean = float(np.mean(fine))
    rounding = _GRID_ROUNDING * (n_max + 1) * float(np.mean(np.abs(fine)))
    return QuadratureResult(mean, abs(mean - float(np.mean(coarse))) + rounding,
                            (n_max + 1)**dims + (n_max + 2)**dims)


def mean_over_rectangle(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        lx: float, ly: float, n_max: int) -> QuadratureResult:
    """Mean of f(x, y) over [0,lx] x [0,ly]; see _grid_mean."""
    return _grid_mean(f, (lx, ly), n_max)


def mean_over_box(f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                  lx: float, ly: float, lz: float, n_max: int) -> QuadratureResult:
    """Mean of f(x, y, z) over [0,lx] x [0,ly] x [0,lz]; see _grid_mean."""
    return _grid_mean(f, (lx, ly, lz), n_max)


_T = TypeVar("_T")
_R = TypeVar("_R")


def _share(fn: Callable[[_T], _R], items: list[_T], first: int,
           step: int) -> dict[int, _R]:
    """{i: fn(items[i])} for i = first, first + step, ..., less any raising."""
    results: dict[int, _R] = {}
    for i in range(first, len(items), step):
        try:
            results[i] = fn(items[i])
        except Exception:
            pass  # parallel_map runs it again in the caller, which raises
    return results


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """[fn(x) for x in items], spread over the CPUs this process may use.

    With w processes, the caller and one forked worker per further CPU of
    the affinity mask (at most one per item), process j (the caller is 0)
    runs items j, j + w, j + 2w, ..., so sort the items costliest first.
    Workers are forked, so ``fn`` may be a closure; only the results are
    pickled.  ``fn`` must not print and must give the same result in any
    process; a worker holds only the calling thread, so ``fn`` must not
    wait for a lock that another thread of the caller may hold.
    Every item a worker did not return, because it raised or the worker
    died, is computed again in the caller, in list order, so that the
    first such item to raise does so here with its own type and message,
    as in a serial run.  Every worker is reaped before this returns or
    raises.  Runs serially with one CPU (``taskset -c 0``), one item, or
    no ``fork``.
    """
    items = list(items)
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers < 2:
        return [fn(x) for x in items]
    import pickle
    import signal
    import warnings

    import numpy  # noqa: F401  (imported once, not in every process)

    children: list[tuple[int, int]] = []  # (pid, read end of its results)
    outputs: dict[int, bytes] = {}
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork in a process with threads, such as
            # OpenBLAS's pool.  No lock is held between computations, and
            # OpenBLAS's atfork handler stops the pool before the fork; each
            # process starts it again on its next call.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork",
                DeprecationWarning)
            for j in range(1, workers):
                reader, writer = os.pipe()
                pid = os.fork()
                if pid == 0:  # exit 0 once the whole pickle is written
                    code = 1
                    try:
                        with open(writer, "wb") as pipe:
                            pickle.dump(_share(fn, items, j, workers), pipe)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(writer)
                children.append((pid, reader))
        results = _share(fn, items, 0, workers)
        for pid, reader in children:
            with open(reader, "rb", closefd=False) as pipe:
                outputs[pid] = pipe.read()
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, reader in children:
            os.close(reader)
            if os.waitpid(pid, 0)[1]:  # it did not write its whole pickle
                outputs.pop(pid, None)
    for data in outputs.values():
        results.update(pickle.loads(data))
    return [results[i] if i in results else fn(x)
            for i, x in enumerate(items)]
