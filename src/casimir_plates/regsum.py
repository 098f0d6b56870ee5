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
each R_n integrated numerically) and series (the Bernoulli series in
x = lambda pi / a, convergent for x < 2 pi).  per-n (force_per_n_sum: R_n
replaced by its exact value (1/lambda) e^(-lambda n pi/a)) is verify's
oracle.

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


@functools.lru_cache(maxsize=8)
def _series_table(h_max: int) -> tuple[tuple[int, int, int], ...]:
    """(h, numerator, denominator) of each non-vanishing coefficient, reduced.

    The order-h coefficient is -(1/2) (B_h / h!) (-1)^h (h-1)(h-2) (see
    series_terms), for h <= h_max (h_max >= 4); the int division num / den
    is its correctly rounded double.
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


def _tail_fraction(n: int | np.ndarray, ratio: float) -> np.ndarray:
    """S(n) / S(0) for S(n) = sum_{m>n} m^2 q^m and q = exp(-ratio), per n.

    With x = 1 - q, S(n) = q^(n+1) (n^2 x^2 + 2 n x + 1 + q) / x^3, so the
    fraction is q^n (1 + n x (2 + n x) / (1 + q)).  The x^3 cancels in it,
    and it stays finite where (1 - q)^3 underflows.
    """
    import numpy as np
    q, x = math.exp(-ratio), -math.expm1(-ratio)
    return np.exp(-n * ratio) * (1.0 + n * x * (2.0 + n * x) / (1.0 + q))


def _n_stop(a: float, lam: float, tol: float, n_max: int) -> tuple[int, float]:
    """(n_stop, |F|) of an n-sum route, solved before its first term.

    Both routes have |term(m)| <= |pref| m^2 (1/lambda) q^m, q = exp(-lambda
    pi / a) (for numeric_sum, R_m <= (1/lambda) e^(-lambda m pi/a)), so the
    tail past n is at most |F| frac(n), frac being _tail_fraction and |F|
    the tail past 0, and |partial_n| >= |F| (1 - frac(n)).  n_stop is the
    smallest n <= n_max with frac(n) <= tol (1 - frac(n)), which keeps the
    tail within tol |partial_n|; frac decreases with n, so it is found by
    bisection.  When n_max itself misses that, TailBoundError comes before
    any term; frac alone decides it, so a lambda pi / a that underflows to 0
    (frac = 1) is refused too.  Only then is |F| computed: PrecisionLossError,
    naming a, if (pi/a)^2 overflows, and otherwise it may overflow to inf,
    or to nan when q underflows too.
    """
    ratio = lam * math.pi / a

    def stops(n: int) -> bool:
        frac = float(_tail_fraction(n, ratio))
        return frac <= tol * (1.0 - frac)

    if not stops(n_max):
        relative = float(_tail_fraction(n_max, ratio))
        raise TailBoundError(
            f"lambda*pi/a = {ratio:.3e} is below the {n_max}-term budget: "
            f"tail bound {relative:.3e} |F| still above {tol:.3g} |F| after "
            f"{n_max} terms")
    missed, n_stop = 0, n_max  # frac(0) = 1 never stops
    while n_stop - missed > 1:
        mid = (missed + n_stop) // 2
        if stops(mid):
            n_stop = mid
        else:
            missed = mid
    try:
        pref = _prefactor(a)
    except OverflowError:
        raise PrecisionLossError(f"a = {a!r}: (pi/a)^2 of the n-sum's "
                                 "prefactor leaves the double range") from None
    q, x = math.exp(-ratio), -math.expm1(-ratio)
    # x**3 would underflow to 0 for x below about 1.7e-108
    return n_stop, abs(pref) / lam * q * (1.0 + q) / x / x / x


#: Term budgets of the two n-sum routes.  With the tail at tol/2 of their
#: default tol they reach down to lambda pi / a of about 0.0075 (numeric)
#: and 1.74e-4 (per-n).
_NUMERIC_N_MAX = 4000
_PER_N_N_MAX = 200_000

#: Smallest tol force_sum_numeric accepts.  Each radial integral runs at a
#: relative tol / 10, and the kernel allows 4 eps relative for its own
#: rounding, so tol / 10 must clear 4 eps: tol >= 40 eps = 8.9e-15.  Below
#: that the rounding of R_n is not budgeted (at tol = 5e-15 the route errs
#: by up to 1.5 tol |F|), and at 1e-15 most cutoffs fail to converge.
_MIN_NUMERIC_TOL = 1e-14


def _radial_integrals(a: float, lam: float, ns: np.ndarray, tol: float,
                      allowance: float | np.ndarray) -> np.ndarray:
    """R_n for each n in ``ns`` by quadrature, via kappa^2 = (n pi / a)^2 z.

    Each R_n is exact to ``tol`` relative, or to its absolute
    ``allowance`` (an array like ``ns``, or one value for every n),
    whichever is larger.  The substitution turns R_n into (M/2) * K(lam M)
    with M = n pi / a and K(beta) = integral_0^inf (z+1)^(-1/2)
    exp(-beta sqrt(z+1)) dz.  The integrand of K decays like
    exp(-beta z / 2) near z = 0 when beta is large and like
    exp(-beta sqrt(z)) far out when beta is small, so the exp-sinh scale of
    each row is the sum of the two decay lengths.
    """
    import numpy as np
    from .numerics import integrate_semi_infinite

    def integrand(z: np.ndarray, beta: np.ndarray) -> np.ndarray:
        root = np.sqrt(np.add(z, 1.0, out=z), out=z)  # the kernel allows it
        f = np.multiply(-beta, root)
        np.exp(f, out=f)
        f /= root
        return f

    big_m = ns[:, None] * math.pi / a
    beta = lam * big_m
    scale = 1.0 / beta**2 + 2.0 / beta
    # K carries R_n / (M/2), and so does its allowance
    kernel = integrate_semi_infinite(
        integrand, tol, scale=scale, params=(beta,),
        allowance=np.reshape(allowance, (-1, 1)) / (0.5 * big_m))
    return 0.5 * big_m[:, 0] * kernel.value


#: Shares of force_sum_numeric's error budget tol * |F|: the n-sum's tail,
#: each radial integral relative to its own term, and all rows together
#: in absolute terms.  With the rounding of the sum they stay below 1.
#: force_per_n_sum gives its tail the same share, and the rest to rounding.
_TAIL_SHARE = 0.5
_ROW_SHARE = 0.1
_ABSOLUTE_SHARE = 0.3


def force_sum_numeric(a: float, reg: Regulator, *,
                      tol: float = 1e-10) -> float:
    """Regularized force per unit area by numerical n-sum and quadrature.

    The result is within tol * |F| of the exact sum; three shares of that
    budget are spent where the sum needs them.  The n-sum runs over
    n = 1..n_stop, solved before the first term as the first n whose exact
    geometric tail bound is within (tol/2) * |partial sum|.  Each radial
    integral R_n is evaluated by double-exponential quadrature until its
    term is exact to (tol/10) * |term_n| or to 0.3 tol |F| / n_stop,
    whichever is larger, so the quadrature errs by at most 0.4 tol |F| in
    all, and rows far out in the sum stop at a coarse level.  That absolute
    allowance reads |F| from the closed-form magnitude the tail bound
    already uses: it bounds the error, not the result.  The result comes
    only from quadrature, with no closed-form knowledge of the radial
    integral or of the summed series, and verify's route_agreement check
    confronts it with the closed form.

    Raises ValueError for a tol below 1e-14 (_MIN_NUMERIC_TOL), which the
    quadrature's rounding does not let it meet.  Before any integral it raises
    TailBoundError when 4000 terms cannot bring the tail within its share
    (lambda pi / a below about 0.0075 at the default tol), and
    PrecisionLossError, naming a, where (pi/a)^2 overflows.  Raises
    QuadratureError if an integral fails and FloatingPointError if a term is
    not finite.
    """
    import numpy as np
    from .numerics import sum_until_tail_bound
    check_positive_finite("a", a)
    check_positive_finite("tol", tol)
    if tol < _MIN_NUMERIC_TOL:
        raise ValueError(f"tol = {tol!r} is below {_MIN_NUMERIC_TOL:g}, the "
                         "smallest the numeric_sum route can meet")
    lam = reg.lam
    n_stop, magnitude = _n_stop(a, lam, _TAIL_SHARE * tol, _NUMERIC_N_MAX)
    pref = _prefactor(a)
    # each row's term may keep an equal part of the absolute share; where
    # |F| overflows, no row gets any (rather than a nan from inf / inf)
    share = _ABSOLUTE_SHARE * tol * magnitude / n_stop
    if not math.isfinite(share):
        share = 0.0

    def terms(ns: np.ndarray) -> np.ndarray:
        # Extreme a or lambda overflow the prefactor, M, beta or the scale.
        # The terms they touch come out non-finite, which the sum rejects,
        # or their integrals never converge, which the quadrature reports.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # R_n's allowance is its term's share over |pref| n^2 (zero
            # with the share, so no 0/0 when the prefactor underflows)
            allowance = share / (abs(pref) * ns * ns) if share else 0.0
            return pref * ns * ns * _radial_integrals(
                a, lam, ns, _ROW_SHARE * tol, allowance)

    return sum_until_tail_bound(terms, n_stop)


def force_per_n_sum(a: float, reg: Regulator, *,
                    tol: float = 1e-12) -> float:
    """Regularized force per unit area by summing the exact per-n terms.

    The result is within tol * |F| of the exact sum: the n-sum runs to the
    n_stop that _n_stop solves, where its tail bound is within
    (tol/2) * |partial sum|, and the other half covers the rounding of up
    to 200,000 additions.

    Raises ValueError for a tol that is not positive and finite.  Before
    any term it raises TailBoundError when 200,000 terms cannot bring the
    tail within tol/2 (lambda pi / a below about 1.74e-4 at the default
    tol), and PrecisionLossError, naming a, where (pi/a)^2 overflows.
    Raises FloatingPointError if a term is not finite.
    """
    import numpy as np
    from .numerics import sum_until_tail_bound
    check_positive_finite("a", a)
    check_positive_finite("tol", tol)
    n_stop, _ = _n_stop(a, reg.lam, _TAIL_SHARE * tol, _PER_N_N_MAX)

    def terms(ns: np.ndarray) -> np.ndarray:
        return np.array([per_n_term(a, reg, n) for n in ns.tolist()])

    return sum_until_tail_bound(terms, n_stop)


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
    """Terms of the Bernoulli series of F(a, lambda) through order h_max.

    Expanding q (1+q) / (1-q)^3 = sum_h B_h (-x)^h (h-1)(h-2) / (2 h!) in
    x = lambda pi / a term by term gives order-h contribution

        term_h = -(1/2) (B_h / h!) (-1)^h (h-1)(h-2)
                 * hbar c * pi^(h-2) * a^-h * lam^(h-4).

    h = 1 and h = 2 vanish through the (h-1)(h-2) factor and odd h >= 3
    through B_h; the returned {h: term_h} holds the other orders, h
    increasing.  The series converges for x < 2 pi, the poles of
    x / (e^x - 1) at +-2 pi i (DLMF 24.2.1); h_max is at least 5, past the
    finite part.
    """
    check_positive_finite("a", a)
    if h_max < 5:
        raise ValueError("h_max must be at least 5 to reach past the "
                         "finite part")
    lam = reg.lam
    return {h: (num / den * math.pi ** (h - 2) * a ** (-h) * lam ** (h - 4))
            for h, num, den in _series_table(h_max)}


def series_value(a: float, reg: Regulator) -> tuple[float, float]:
    """Bernoulli series for F(a, lambda) through order 8, with an estimate.

    Returns (value, estimate).  The estimate is the magnitude of the first
    omitted term, order 10 (order 9 vanishes), plus a rounding term
    4 m eps sum |term_h| for the m terms summed, which dominates below
    lambda pi / a of about 0.1, where the pole and the finite part cancel.
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
    # the whole budget: tail, quadrature and rounding all stay within it
    return total, tol * abs(total)


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
