"""Cutoff-regularized mode summation and the finite Casimir force.

Summing the plate stress over all cavity modes diverges; an exponential
cutoff exp(-lambda k) on the mode wave number makes the sum finite and the
divergence reappears as the cutoff is removed.  In the large-L limit the
transverse sum becomes a radial integral and the regularized force per unit
plate area is

    F(a, lambda) = -(hbar c / (2 pi a)) * sum_n (n pi / a)^2 * R_n,
    R_n = integral over kappa of kappa (kappa^2 + (n pi/a)^2)^(-1/2)
          * exp(-lambda sqrt(kappa^2 + (n pi/a)^2))

with n the plate-normal mode number.  Units are natural (hbar = c = 1), so
every value here is in units of hbar c.  decompose's table holds the three
routes of the command line, each one entry plus its kernel: closed_form
(the per-n geometric series summed exactly), numeric_sum (the n-sum with
each R_n integrated numerically) and series (an asymptotic expansion in
lambda via Bernoulli numbers).  per-n (force_per_n_sum: R_n replaced by its
exact value (1/lambda) e^(-lambda n pi/a)) is verify's oracle.

The series exposes the small-lambda structure: a lambda^-4 pole whose
coefficient -hbar c / pi^2 does not depend on the plate separation, a
finite lambda^0 piece pi^2 hbar c / (240 a^4), and terms that vanish with
lambda.  Only the separation-dependent finite piece is physical; the force
between the plates is its derivative signature, attraction of magnitude
pi^2 hbar c / (240 a^4).
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .errors import PrecisionLossError, TailBoundError, check_positive_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Regulator",
    "RegularizedForce",
    "ExtractedForce",
    "ROUTES",
    "BASIS_EXPONENTS",
    "bernoulli_numbers",
    "series_coefficients",
    "per_n_term",
    "force_sum_numeric",
    "force_per_n_sum",
    "force_closed_form",
    "series_terms",
    "series_value",
    "asymptotic_parts",
    "default_lambda_grid",
    "extract_finite_part",
    "casimir_closed_form",
    "decompose",
]

#: Exponents of the regulator powers present in F(a, lambda) for small
#: lambda: the pole, the finite part, and the two leading terms that vanish
#: with lambda (the odd orders are absent; see series_terms).
BASIS_EXPONENTS = (-4.0, 0.0, 2.0, 4.0)

#: Below this value of lambda*pi/a the closed form loses all significant
#: digits to cancellation in (1 - q)^3.
_MIN_CUTOFF_RATIO = 1e-8

#: extract_finite_part only accepts grids inside this window of
#: lambda*pi/a: small enough that the four-term expansion represents
#: F(a, lambda) to better than the fit tolerances, large enough that the
#: lambda^-4 column does not swamp the rest.
_EXTRACT_RATIO_WINDOW = (0.01, 0.5)


class _RegulatorFields(NamedTuple):
    lam: float


class Regulator(_RegulatorFields):
    """Exponential cutoff exp(-lambda k); lam is the cutoff length."""

    __slots__ = ()

    def __new__(cls, lam: float):
        check_positive_finite("lam", lam)
        return super().__new__(cls, lam)


class RegularizedForce(NamedTuple):
    """A route's force value, its error estimate, and its small-lambda split.

    total = divergent_part + finite_part + remainder, where divergent_part
    = divergent_coefficient * lam**-4 and remainder -> 0 as lam -> 0 (it is
    O(lam^2); the lam^1 series term carries a vanishing Bernoulli number).
    """

    route: str
    lam: float
    total: float
    error_estimate: float
    divergent_coefficient: float
    finite_part: float

    @property
    def divergent_part(self) -> float:
        return self.divergent_coefficient / self.lam**4

    @property
    def remainder(self) -> float:
        return self.total - self.divergent_part - self.finite_part


class ExtractedForce(NamedTuple):
    """Finite part recovered from force samples by a least-squares fit.

    ``coefficients`` multiply lam**e for e in BASIS_EXPONENTS, in order:
    lam**-4, lam**0, lam**2 and lam**4.
    """

    coefficients: tuple[float, ...]
    residual_norm: float
    condition_estimate: float

    @property
    def divergent_coefficient(self) -> float:
        """The coefficient of lam**-4, the first of BASIS_EXPONENTS."""
        return self.coefficients[0]

    @property
    def finite_part(self) -> float:
        """The coefficient of lam**0, the second of BASIS_EXPONENTS."""
        return self.coefficients[1]


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms, for den > 0."""
    common = math.gcd(num, den)
    return num // common, den // common


def bernoulli_numbers(h_max: int) -> tuple[tuple[int, int], ...]:
    """Bernoulli numbers B_0..B_h_max by the defining recurrence.

    Each B_m is a reduced (numerator, denominator) pair of ints, den > 0.
    Uses sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1, solved for B_m in
    integers over the least common denominator of B_0..B_{m-1}.  The
    B_1 = -1/2 convention matches the generating function x / (e^x - 1).
    """
    if h_max < 4:
        raise ValueError("h_max must be at least 4")
    pairs = [(1, 1)]
    for m in range(1, h_max + 1):
        common = math.lcm(*(den for _, den in pairs))
        acc = sum(math.comb(m + 1, j) * num * (common // den)
                  for j, (num, den) in enumerate(pairs))
        pairs.append(_reduced(-acc, common * (m + 1)))
    return tuple(pairs)


def series_coefficients(h_max: int) -> dict[int, tuple[int, int]]:
    """Exact coefficients of the non-vanishing series orders h <= h_max.

    The order-h coefficient is -(1/2) (B_h / h!) (-1)^h (h-1)(h-2); see
    series_terms.  Returns a new dict {h: (numerator, denominator)}, h
    increasing, each pair reduced, read from a table computed once per
    h_max (h_max >= 4).
    """
    return {h: (num, den) for h, num, den in _series_table(h_max)}


@functools.lru_cache(maxsize=8)
def _series_table(h_max: int) -> tuple[tuple[int, int, int], ...]:
    """(h, numerator, denominator) of each non-vanishing coefficient, reduced.

    The int division num / den is the correctly rounded double of the
    coefficient.
    """
    table = []
    for h, (num, den) in enumerate(bernoulli_numbers(h_max)):
        sign = -1 if h % 2 else 1
        num *= -sign * (h - 1) * (h - 2)
        if num:
            table.append((h, *_reduced(num, 2 * math.factorial(h) * den)))
    return tuple(table)


def _prefactor(a: float) -> float:
    """Common factor -(hbar c / (2 pi a)) (pi / a)^2 of the summation routes."""
    return -1.0 / (2.0 * math.pi * a) * (math.pi / a) ** 2


def per_n_term(a: float, reg: Regulator, n: int) -> float:
    """Exact contribution of plate-normal mode number n to F(a, lambda).

    The radial integral has the closed value R_n = (1/lambda)
    exp(-lambda n pi / a), so the term is
    -(hbar c / (2 pi a)) (n pi / a)^2 (1/lambda) exp(-lambda n pi / a).
    """
    check_positive_finite("a", a)
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = reg.lam
    return (_prefactor(a) * n * n / lam) * math.exp(-lam * n * math.pi / a)


def _geometric_tail(n: np.ndarray, q: float,
                    one_minus_q: float) -> np.ndarray:
    """Exact value of sum_{m>n} m^2 q^m for 0 < q < 1, for each n."""
    # the scalar part first, so that a (1 - q)^3 that underflows to zero
    # raises ZeroDivisionError before any array arithmetic
    constant = q * (1.0 + q) / one_minus_q**3
    return q**n * (n * n * q / one_minus_q
                   + 2.0 * n * q / one_minus_q**2
                   + constant)


def _tail_bound_factory(a: float, lam: float):
    """Bound on the absolute tail of either n-sum route past each term n.

    Both routes have |term(m)| = |pref| m^2 (1/lambda) q^m with
    q = exp(-lambda pi / a) (for the numeric route, because R_m <=
    (1/lambda) e^(-lambda m pi/a) bounds the integral), so the geometric
    tail sum is an honest bound.  Like float arithmetic, the bound turns
    overflow into inf and inf * 0 into nan without a warning; a bound
    that never meets the tolerance ends in TailBoundError.
    """
    import numpy as np
    q = math.exp(-lam * math.pi / a)
    one_minus_q = -math.expm1(-lam * math.pi / a)
    scale = abs(_prefactor(a)) / lam

    def bound(ns: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return scale * _geometric_tail(ns, q, one_minus_q)

    return bound


#: Term budgets of the two n-sum routes.  At their default tol they reach
#: down to lambda pi / a of about 0.0075 (numeric) and 2e-4 (per-n).
_NUMERIC_N_MAX = 4000
_PER_N_N_MAX = 200_000

#: Smallest tol force_sum_numeric accepts.  The radial integrals run at
#: tol / 10, and below 1e-16 that is less than half an ulp (1.1e-16): two
#: quadrature levels of R_n then meet it only when they agree bit for bit,
#: so the route fails, or converges by chance.
_MIN_NUMERIC_TOL = 1e-15


def _radial_integrals(a: float, lam: float, ns: np.ndarray,
                      tol: float) -> np.ndarray:
    """R_n for each n in ``ns`` by quadrature, via kappa^2 = (n pi / a)^2 z.

    That substitution turns R_n into (M/2) * K(lam M) with M = n pi / a and
    K(beta) = integral_0^inf (z+1)^(-1/2) exp(-beta sqrt(z+1)) dz.  The
    integrand of K decays like exp(-beta z / 2) near z = 0 when beta is
    large and like exp(-beta sqrt(z)) far out when beta is small, so the
    exp-sinh scale of each row is the sum of the two decay lengths.
    """
    import numpy as np
    from .numerics import integrate_semi_infinite

    def integrand(z: np.ndarray, beta: np.ndarray) -> np.ndarray:
        root = z + 1.0
        np.sqrt(root, out=root)
        f = np.multiply(-beta, root)
        np.exp(f, out=f)
        f /= root
        return f

    big_m = ns[:, None] * math.pi / a
    beta = lam * big_m
    scale = 1.0 / beta**2 + 2.0 / beta
    kernel = integrate_semi_infinite(integrand, tol, scale=scale,
                                     params=(beta,))
    return 0.5 * big_m[:, 0] * kernel.value


def force_sum_numeric(a: float, reg: Regulator, *,
                      tol: float = 1e-10) -> float:
    """Regularized force per unit area by numerical n-sum and quadrature.

    Each radial integral is evaluated by double-exponential quadrature at a
    tolerance one decade below ``tol``, for the blocks of consecutive n
    that the tail-bounded sum asks for; the n-sum stops once the exact
    geometric tail bound falls below tol * |partial sum|.  No closed-form
    knowledge of the radial integral or of the summed series enters this
    route.

    Raises ValueError for a tol below 1e-15 (_MIN_NUMERIC_TOL), which the
    quadrature cannot meet.  Before any integral it raises
    PrecisionLossError when lambda pi / a is so small (below about
    7.5e-155) that a row's quadrature scale overflows, and TailBoundError
    when 4000 terms (_NUMERIC_N_MAX) cannot meet the bound (lambda pi / a
    below about 0.0075 at the default tol).  Raises QuadratureError if an
    integral fails and FloatingPointError if a term is not finite.
    """
    import numpy as np
    from .numerics import sum_until_tail_bound
    check_positive_finite("a", a)
    check_positive_finite("tol", tol)
    if tol < _MIN_NUMERIC_TOL:
        raise ValueError(f"tol = {tol!r} is below {_MIN_NUMERIC_TOL:g}, the "
                         "smallest the numeric_sum route can meet")
    lam = reg.lam
    pref = _prefactor(a)
    ratio = lam * math.pi / a
    with np.errstate(over="ignore", divide="ignore"):
        beta = np.float64(lam) * (math.pi / a)
        if not np.isfinite(1.0 / beta**2 + 2.0 / beta):  # inf abscissae
            raise PrecisionLossError(
                f"lambda*pi/a = {ratio:.3e}: the exp-sinh scale 1/beta^2 "
                "of the numeric_sum radial integrals overflows")
    # a stop needs tail_bound(n) <= tol |F| <= tol tail_bound(0); their
    # ratio, in which the prefactor and (1 - q)^3 cancel, stays finite
    q, x, n = math.exp(-ratio), -math.expm1(-ratio), _NUMERIC_N_MAX
    relative = math.exp(-n * ratio) * (1.0 + n * x * (2.0 + n * x) / (1.0 + q))
    if relative > 2.0 * tol:  # twice, for rounding, as the sum's own check
        raise TailBoundError(
            f"lambda*pi/a = {ratio:.3e} is below the {n}-term budget: tail "
            f"bound {relative:.3e} |F| still above tol*|F| after {n} terms",
            partial_sum=0.0, bound=relative * abs(pref) / lam * q * (1 + q) / x / x / x)

    def terms(ns: np.ndarray) -> np.ndarray:
        # Extreme a or lambda overflow the prefactor, M, beta or the scale.
        # The terms they touch come out non-finite, which the sum rejects,
        # or their integrals never converge, which the quadrature reports.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return pref * ns * ns * _radial_integrals(a, lam, ns, 0.1 * tol)

    return sum_until_tail_bound(terms, _tail_bound_factory(a, lam), tol,
                                max_terms=_NUMERIC_N_MAX)


def force_per_n_sum(a: float, reg: Regulator, *,
                    tol: float = 1e-12) -> float:
    """Regularized force per unit area by summing the exact per-n terms."""
    import numpy as np
    from .numerics import sum_until_tail_bound
    check_positive_finite("a", a)
    lam = reg.lam

    def terms(ns: np.ndarray) -> np.ndarray:
        return np.array([per_n_term(a, reg, n) for n in ns.tolist()])

    return sum_until_tail_bound(terms, _tail_bound_factory(a, lam), tol,
                                max_terms=_PER_N_N_MAX)


def force_closed_form(a: float, reg: Regulator) -> float:
    """Regularized force per unit area in closed form.

    Summing the per-n terms as a geometric series in q = exp(-lambda pi / a)
    gives

        F = -(hbar c / (2 pi a)) (pi/a)^2 (1/lambda) q (1 + q) / (1 - q)^3.

    1 - q is computed with expm1 so the q -> 1 cancellation costs no
    accuracy.  For lambda pi / a below 1e-8 even that does not help, since
    the (1-q)^3 denominator has lost half the mantissa; such calls raise
    PrecisionLossError rather than return garbage.
    """
    check_positive_finite("a", a)
    lam = reg.lam
    x = lam * math.pi / a
    if x < _MIN_CUTOFF_RATIO:
        raise PrecisionLossError(
            f"lambda*pi/a = {x:.3e} below {_MIN_CUTOFF_RATIO:.0e}; closed form "
            "would lose all significant digits (use the series route instead)")
    q = math.exp(-x)
    one_minus_q = -math.expm1(-x)
    return (_prefactor(a) / lam) * q * (1.0 + q) / one_minus_q**3


#: Truncation order of series_value; order 10 gives its estimate.
_SERIES_H_MAX = 8


def series_terms(a: float, reg: Regulator, h_max: int) -> dict[int, float]:
    """Terms of the asymptotic expansion of F(a, lambda) through order h_max.

    Expanding q (1+q) / (1-q)^3 = sum_h B_h (-x)^h (h-1)(h-2) / (2 h!) in
    x = lambda pi / a term by term gives order-h contribution

        term_h = -(1/2) (B_h / h!) (-1)^h (h-1)(h-2)
                 * hbar c * pi^(h-2) * a^-h * lam^(h-4).

    h = 1 and h = 2 vanish through the (h-1)(h-2) factor and odd h >= 3
    through B_h; the returned {h: term_h} holds the other orders, h
    increasing.  The expansion is asymptotic in lam, so h_max (at least 5,
    past the finite part) is a truncation order, not a convergence knob.
    """
    check_positive_finite("a", a)
    if h_max < 5:
        raise ValueError("h_max must be at least 5 to reach past the "
                         "finite part")
    lam = reg.lam
    return {h: (num / den * math.pi ** (h - 2) * a ** (-h) * lam ** (h - 4))
            for h, num, den in _series_table(h_max)}


def series_value(a: float, reg: Regulator) -> tuple[float, float]:
    """Asymptotic series for F(a, lambda) through order 8, with an estimate.

    Returns (value, estimate).  The estimate is the magnitude of the first
    omitted term, order 10 (order 9 vanishes), the usual heuristic for an
    asymptotic series, plus a rounding term 4 m eps sum |term_h| for the
    m terms summed, which dominates below lambda pi / a of about 0.1,
    where the pole and the finite part cancel.
    """
    terms = series_terms(a, reg, _SERIES_H_MAX + 2)
    estimate = abs(terms.pop(_SERIES_H_MAX + 2))
    rounding = (4 * len(terms) * sys.float_info.epsilon
                * math.fsum(map(abs, terms.values())))
    return sum(terms.values()), estimate + rounding


def asymptotic_parts(a: float) -> tuple[float, float]:
    """(divergent_coefficient, finite_part) of F(a, lambda) as lambda -> 0.

    The h = 0 series term gives divergent_coefficient = -hbar c / pi^2,
    the coefficient of lam**-4, carrying no dependence on the plate
    separation, which is what marks the divergence as a regularization
    artifact rather than a force.  The h = 4 term gives finite_part =
    + hbar c pi^2 / (240 a^4), whose magnitude is the Casimir pressure.
    """
    check_positive_finite("a", a)
    coeffs = {h: num / den for h, num, den in _series_table(4)}
    return coeffs[0] / math.pi**2, coeffs[4] * math.pi**2 / a**4


def casimir_closed_form(a: float) -> float:
    """Magnitude pi^2 hbar c / (240 a^4) of the attractive Casimir pressure."""
    check_positive_finite("a", a)
    return math.pi**2 / (240.0 * a**4)


def default_lambda_grid(a: float) -> list[float]:
    """Six cutoffs spanning the window that extract_finite_part accepts.

    The points sit at lambda pi / a = 0.05, 0.08, 0.12, 0.2, 0.3 and 0.5.
    Rounding in r a / pi can leave lambda pi / a one ulp above the window's
    top; such a point steps down to the nearest double inside it.
    """
    check_positive_finite("a", a)
    hi = _EXTRACT_RATIO_WINDOW[1]
    grid = []
    for ratio in (0.05, 0.08, 0.12, 0.2, 0.3, 0.5):
        lam = ratio * a / math.pi
        while lam * math.pi / a > hi:
            lam = math.nextafter(lam, 0.0)
        grid.append(lam)
    return grid


def extract_finite_part(a: float, lambda_grid: Iterable[Regulator | float]
                        ) -> ExtractedForce:
    """Recover the finite part of F(a, lambda) numerically, without the series.

    Samples the closed-form force on the given regulator grid and fits
    F ~ c * lam^-4 + c0 + c2 lam^2 + c4 lam^4 by least squares, leaving out
    O(lam^6); c0 estimates the finite part (to 1e-7 on the default grid) and
    c the divergent coefficient.  The grid must contain at least four
    distinct values with lambda pi / a in [0.01, 0.5], the window where the
    four-term model represents F to fit accuracy.

    Raises PrecisionLossError, naming a, when the lam**-4 column leaves the
    double range (default grid: a below 1.85e-37 or above 1.77e42), and
    IllConditionedFitError for grids (clustered points, say) on which the
    basis functions become collinear.
    """
    from .numerics import fit_linear_basis
    check_positive_finite("a", a)
    lams = sorted({reg.lam if isinstance(reg, Regulator) else float(reg)
                   for reg in lambda_grid})
    if len(lams) < len(BASIS_EXPONENTS):
        raise ValueError(
            f"need at least {len(BASIS_EXPONENTS)} distinct lambda values, "
            f"got {len(lams)}")
    lo, hi = _EXTRACT_RATIO_WINDOW
    for lam in lams:
        ratio = lam * math.pi / a
        if not (lo <= ratio <= hi):
            raise ValueError(
                f"lambda = {lam:g} gives lambda*pi/a = {ratio:.3g} outside "
                f"the supported window [{lo:g}, {hi:g}]")
    # the fit divides the lam**-4 column by its 2-norm; inside the window, a
    # sum of squares in range keeps every entry normal and the fit finite
    try:
        pole_norm = math.sqrt(math.fsum((lam ** -4.0) ** 2 for lam in lams))
    except OverflowError:
        pole_norm = math.inf
    if not 0.0 < pole_norm < math.inf:
        raise PrecisionLossError(
            f"extract at a = {a!r}: the lambda**-4 column of the fit leaves "
            "the double range")
    samples = [(lam, force_closed_form(a, Regulator(lam))) for lam in lams]
    return ExtractedForce(*fit_linear_basis(samples, BASIS_EXPONENTS))


class _Route(NamedTuple):
    """A force route: evaluate(a, reg, tol) gives (total, error estimate);
    fork_key is None if sweep runs its cells inline, else it maps (a, lam)
    to the key that sorts the forked cells costliest first."""

    name: str
    evaluate: Callable[[float, Regulator, float], tuple[float, float]]
    fork_key: Callable[[float, float], float] | None


def _closed_form_route(a: float, reg: Regulator, tol: float):
    total = force_closed_form(a, reg)
    return total, 1e-14 * abs(total)  # asserted at the rounding level


def _numeric_sum_route(a: float, reg: Regulator, tol: float):
    total = force_sum_numeric(a, reg, tol=tol)
    return total, tol * abs(total)  # the summation tolerance


#: The force routes in command-line order.  No entry calls another's
#: kernel: the routes exist to check one another.  A numeric_sum cell's
#: work grows like a / lambda, so the smallest lambda / a forks first.
_ROUTE_TABLE = (
    _Route("closed_form", _closed_form_route, None),
    _Route("numeric_sum", _numeric_sum_route,
           lambda a, lam: lam / a if a else math.inf),
    _Route("series", lambda a, reg, tol: series_value(a, reg), None),
)

#: Evaluation routes selectable from the command line.
ROUTES = tuple(entry.name for entry in _ROUTE_TABLE)


def decompose(a: float, reg: Regulator, route: str = "closed_form", *,
              tol: float = 1e-10) -> RegularizedForce:
    """Evaluate F(a, lambda) by the named route, with its error and split.

    A route is one entry of _ROUTE_TABLE plus its kernel, and nothing here
    names one: the entry's evaluate runs the kernel and states its error.
    Every route rejects a tol that is not positive and finite.  Raises
    PrecisionLossError, naming the route, a and lambda, when a field of the
    record would overflow or be non-finite, or when the error estimate is
    not below |total|, so that not even the sign of the force is known.
    """
    check_positive_finite("tol", tol)
    where = f"{route} route at a = {a!r}, lambda = {reg.lam!r}"
    entry = next((e for e in _ROUTE_TABLE if e.name == route), None)
    if entry is None:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    try:
        total, estimate = entry.evaluate(a, reg, tol)
        force = RegularizedForce(route, reg.lam, total, estimate,
                                 *asymptotic_parts(a))
        # the remainder is non-finite whenever total, divergent_part or
        # finite_part is
        in_range = math.isfinite(force.remainder) and math.isfinite(estimate)
    except ArithmeticError:
        in_range = False
    if not in_range:
        raise PrecisionLossError(f"{where}: the force or its split leaves the "
                                 "double range")
    if estimate >= abs(total):
        raise PrecisionLossError(
            f"{where}: the error estimate {estimate:.3g} is not below "
            f"|force| = {abs(total):.3g}, so no digit of it is significant")
    return force
