"""Shared numerical kernels: quadrature, tail-bounded sums, fits, FD Jacobian,
and a map that spreads independent computations over the CPUs.

Every routine here is deterministic (same inputs give bit-identical outputs)
and reports an explicit error measure, either in its result type or in the
exception it raises.  The only state kept is the read-only quadrature nodes,
cached per exp-sinh level and per Gauss-Legendre order.

The exp-sinh kernel has one calling convention: it integrates a block of
rows, one integral per row scale, at most 8 levels deep, and returns arrays
of shape (m,); a scalar scale is a block of one row.  The Gauss-Legendre
means integrate one function and return floats.

The error types the kernels raise, and check_positive_finite, live in
errors and are re-exported here.  The other layers import each kernel
inside the function that calls it, so that a command which runs none of
them never compiles this module.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import sys
from typing import (TYPE_CHECKING, Callable, Iterable, NamedTuple, NoReturn,
                    Sequence, TypeVar)

from .errors import (IllConditionedFitError, NumericsError, PrecisionLossError,
                     QuadratureError, TailBoundError, check_positive_finite)

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
    "parallel_map",
]

#: Absolute error floor for quadrature convergence tests.  Relative tolerances
#: are meaningless when the true value is zero; below this magnitude an
#: integral is accepted as converged.
ABS_FLOOR = 1e-30


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
    (1e6) or sigma_min is at most eps * max(m, k) * sigma_max.
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
    if sigma_min <= sys.float_info.epsilon * max(len(x), len(exps)) * sigma_max:
        raise IllConditionedFitError(
            "rank-deficient design matrix", condition_estimate=math.inf)
    cond = sigma_max / sigma_min
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


_T = TypeVar("_T")
_R = TypeVar("_R")

#: Tickets of one parallel_map call: 4 bytes each, 4096 bytes in all, so
#: that they fit in the hand-out pipe before any worker reads one.
_TICKETS = 1024


def _take(fn: Callable[[_T], _R], items: list[_T], tickets: int, step: int,
          results: dict[int, _R]) -> None:
    """Run the items of each ticket read from the pipe until it is empty.

    A ticket is the first of ``step`` consecutive item indices.  Reads of 4
    bytes from a pipe are atomic, so each ticket goes to one reader.
    """
    while ticket := os.read(tickets, 4):
        start = int.from_bytes(ticket, "little")
        for i in range(start, min(start + step, len(items))):
            try:
                results[i] = fn(items[i])
            except Exception:
                pass  # parallel_map runs it again in the caller, which raises


def _work(fn: Callable[[_T], _R], items: list[_T], tickets: int, step: int,
          writer: int) -> NoReturn:
    """A forked worker: take tickets, pickle the results, exit at once.

    os._exit flushes no inherited stdio buffer and runs no atexit handler.
    It exits 0 only after the whole pickle is written.
    """
    code = 1
    try:
        import pickle
        results: dict[int, _R] = {}
        _take(fn, items, tickets, step, results)
        with open(writer, "wb") as pipe:
            pickle.dump(results, pipe)
        code = 0
    finally:
        os._exit(code)


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """[fn(x) for x in items], spread over the CPUs this process may use.

    The caller and one forked worker per further CPU of the affinity mask
    (at most one process per item) take the items in list order, each the
    next one as soon as it is free, so put the costliest first.  Workers
    are forked, so ``fn`` may be a closure; only the results are pickled.
    ``fn`` must not print and must give the same result in any process;
    a worker holds only the calling thread, so ``fn`` must not wait for a
    lock that another thread of the caller may hold.
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

    # items that run array code would otherwise import numpy in every
    # process
    import numpy  # noqa: F401

    step = -(-len(items) // _TICKETS)
    tickets, hand_out = os.pipe()
    os.write(hand_out, b"".join(i.to_bytes(4, "little")
                                for i in range(0, len(items), step)))
    os.close(hand_out)
    results: dict[int, _R] = {}
    children: list[tuple[int, int]] = []  # (pid, read end of its results)
    outputs: dict[int, bytes] = {}
    statuses: dict[int, int] = {}
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork in a process with threads, and
            # OpenBLAS starts one at import numpy.  The fork falls between
            # computations, when no lock is held, and OpenBLAS's own atfork
            # handler stops its pool before the fork, which each process
            # then starts again on its next call, so the warning does not
            # apply here.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork",
                DeprecationWarning)
            for _ in range(workers - 1):
                reader, writer = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _work(fn, items, tickets, step, writer)
                os.close(writer)
                children.append((pid, reader))
        _take(fn, items, tickets, step, results)
        for pid, reader in children:
            with open(reader, "rb", closefd=False) as pipe:
                outputs[pid] = pipe.read()
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(tickets)
        for pid, reader in children:
            os.close(reader)
            statuses[pid] = os.waitpid(pid, 0)[1]
    for pid, data in outputs.items():
        if statuses[pid] == 0:  # the worker wrote its whole pickle
            results.update(pickle.loads(data))
    return [results[i] if i in results else fn(x)
            for i, x in enumerate(items)]
