import decimal
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates import numerics, regsum
from casimir_plates.cli import HBAR_C_SI
from casimir_plates.errors import (
    IllConditionedFitError,
    PrecisionLossError,
    QuadratureError,
    TailBoundError,
)
from casimir_plates.regsum import (
    BASIS_EXPONENTS,
    Regulator,
    asymptotic_parts,
    bernoulli_numbers,
    casimir_closed_form,
    decompose,
    default_lambda_grid,
    extract_finite_part,
    force_closed_form,
    force_per_n_sum,
    force_sum_numeric,
    per_n_term,
    series_coefficients,
    series_terms,
    series_value,
)

separations = st.floats(min_value=0.3, max_value=3.0)
cutoff_ratios = st.floats(min_value=0.05, max_value=2.0)
#: pi to 60 digits, for the 50-digit reference
_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
cutoff_ratios = st.floats(min_value=0.05, max_value=2.0)


class TestBernoulli:
    def test_first_values_exact(self):
        table = bernoulli_numbers(8)
        assert table[0] == (1, 1)
        assert table[1] == (-1, 2)
        assert table[2] == (1, 6)
        assert table[3] == (0, 1)
        assert table[4] == (-1, 30)
        assert table[5] == (0, 1)
        assert table[6] == (1, 42)
        assert table[8] == (-1, 30)

    def test_twelfth_value(self):
        assert bernoulli_numbers(12)[12] == (-691, 2730)

    def test_values_are_reduced_integer_pairs(self):
        for num, den in bernoulli_numbers(6):
            assert type(num) is int and type(den) is int
            assert den > 0 and math.gcd(num, den) == 1

    def test_rejects_small_h_max(self):
        with pytest.raises(ValueError):
            bernoulli_numbers(3)

    def test_table_validation(self):
        # B_0 = 1 and every odd B_i from i = 3 on vanishes
        table = bernoulli_numbers(30)
        assert len(table) == 31
        assert table[0] == (1, 1)
        assert all(table[i] == (0, 1) for i in range(3, 31, 2))


class TestRegulator:
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_cutoff(self, lam):
        with pytest.raises(ValueError):
            Regulator(lam)


class TestPerNTerm:
    def test_frozen_first_term(self):
        # -(1/(2 pi)) pi^2 e^(-pi) at unit separation and cutoff
        got = per_n_term(1.0, Regulator(1.0), 1)
        assert got == pytest.approx(-0.06788026407514836, rel=1e-15)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            per_n_term(1.0, Regulator(1.0), 0)

    @settings(deadline=None)
    @given(a=separations, ratio=cutoff_ratios)
    def test_sum_matches_closed_form(self, a, ratio):
        reg = Regulator(ratio * a / math.pi)
        summed = force_per_n_sum(a, reg, tol=1e-13)
        closed = force_closed_form(a, reg)
        assert summed == pytest.approx(closed, rel=1e-11)


class TestClosedForm:
    def test_frozen_unit_value(self):
        got = force_closed_form(1.0, Regulator(1.0))
        assert got == pytest.approx(-0.08084857109961713, rel=1e-15)

    def test_frozen_small_cutoff_value(self):
        got = force_closed_form(1.0, Regulator(0.1))
        assert got == pytest.approx(-1013.1710335297424, rel=1e-15)

    def test_precision_loss_guard(self):
        with pytest.raises(PrecisionLossError):
            force_closed_form(1.0, Regulator(1e-9 / math.pi))

    @given(a=separations, ratio=cutoff_ratios)
    def test_always_attractive(self, a, ratio):
        assert force_closed_form(a, Regulator(ratio * a / math.pi)) < 0.0

    @given(a=separations, ratio=st.floats(min_value=0.05, max_value=1.0))
    def test_strengthens_as_cutoff_shrinks(self, a, ratio):
        f_small = force_closed_form(a, Regulator(0.5 * ratio * a / math.pi))
        f_large = force_closed_form(a, Regulator(ratio * a / math.pi))
        assert f_small < f_large < 0.0


class TestNumericSum:
    def test_matches_closed_form_spot(self):
        a, reg = 1.0, Regulator(0.1)
        numeric = force_sum_numeric(a, reg, tol=1e-10)
        closed = force_closed_form(a, reg)
        assert numeric == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("ratio", [12.0, 5.0 * math.pi, 20.0, 360.0,
                                       650.0])
    def test_matches_closed_form_at_large_cutoffs(self, ratio):
        # the first block of radial integrals then reaches the subnormal
        # range (lambda pi n / a > 708) long before the sum stops
        a = 1.0
        reg = Regulator(ratio * a / math.pi)
        numeric = force_sum_numeric(a, reg, tol=1e-10)
        closed = force_closed_form(a, reg)
        assert numeric == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("ratio", [700.0, 722.6, 740.0])
    def test_subnormal_force_does_not_raise(self, ratio):
        a = 1.0
        reg = Regulator(ratio * a / math.pi)
        numeric = force_sum_numeric(a, reg, tol=1e-10)
        closed = force_closed_form(a, reg)
        assert abs(numeric - closed) <= 1e-4 * abs(closed) + 1e-320

    @pytest.mark.parametrize("ratio", [0.02, 0.05, 0.1, 0.2])
    def test_integrates_only_what_the_sum_uses(self, ratio, monkeypatch):
        # at these cutoffs the sum stops past its first block of 64 terms
        integrated, counts = [], []
        radial = regsum._radial_integrals
        block_sum = numerics.sum_until_tail_bound

        def counting_radial(a, lam, ns, tol):
            integrated.append(np.size(ns))
            return radial(a, lam, ns, tol)

        def counting_sum(terms, tail_bound, tol, **kwargs):
            computed = []

            def recording(ns):
                values = terms(ns)
                computed.append(np.atleast_1d(values))
                return values

            total = block_sum(recording, tail_bound, tol, **kwargs)
            # the n at which a running sum of the same terms stops
            running = 0.0
            for n, value in enumerate(np.concatenate(computed).tolist(), 1):
                running += value
                if tail_bound(np.array([n]))[0] <= tol * abs(running):
                    assert total == running
                    counts.append((sum(integrated), n))
                    return total
            raise AssertionError("the running sum did not stop")

        monkeypatch.setattr(regsum, "_radial_integrals", counting_radial)
        monkeypatch.setattr(numerics, "sum_until_tail_bound", counting_sum)
        force_sum_numeric(1.0, Regulator(ratio / math.pi), tol=1e-10)
        (rows, summed), = counts
        assert summed <= rows <= 1.05 * summed

    @pytest.mark.parametrize("tol", [9.9e-16, 1e-20, 5e-324])
    def test_rejects_tol_below_floor(self, tol):
        with pytest.raises(ValueError, match=f"tol = {tol!r} is below 1e-15"):
            force_sum_numeric(1.0, Regulator(0.1), tol=tol)
        with pytest.raises(ValueError, match=f"tol = {tol!r}") as exc:
            decompose(1.0, Regulator(0.1), "numeric_sum", tol=tol)
        assert exc.type is ValueError

    def test_tol_floor_admits_the_floor(self):
        # 1e-15 is not rejected up front: the quadrature then converges or
        # fails on its own terms, depending on the cutoff
        try:
            force_sum_numeric(1.0, Regulator(0.1 / math.pi),
                              tol=1e-15)
        except QuadratureError:
            pass

    def test_tail_bound_exhaustion(self):
        # at lambda pi / a = 0.006 the sum needs more than its 4000 terms,
        # which the budget check sees before the first term is summed
        with pytest.raises(TailBoundError) as info:
            force_sum_numeric(1.0, Regulator(0.006 / math.pi))
        assert info.value.bound > 0.0
        assert info.value.partial_sum == 0.0

    @pytest.mark.parametrize("ratio", [1e-150, 1e-100, 1e-20, 1e-10, 1e-5,
                                       0.006])
    def test_budget_shortfall_fails_before_any_integral(self, ratio,
                                                        monkeypatch):
        # |F| <= tail_bound(0), so no stop within 4000 terms is possible
        calls = []
        kernel = numerics.integrate_semi_infinite

        def counting_kernel(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(numerics, "integrate_semi_infinite",
                            counting_kernel)
        with pytest.raises(TailBoundError,
                           match=f"lambda\\*pi/a = {ratio:.3e} is below the "
                                 "4000-term budget"):
            force_sum_numeric(1.0, Regulator(ratio / math.pi))
        assert calls == []

    def test_converges_just_above_the_budget(self):
        reg = Regulator(0.0075 / math.pi)
        numeric = force_sum_numeric(1.0, reg, tol=1e-10)
        assert numeric == pytest.approx(force_closed_form(1.0, reg), rel=1e-9)

    def test_unreachable_tolerance_fails_after_first_block(self, monkeypatch):
        # the bound after 4000 terms already exceeds tol * |sum| once the
        # first 64 terms are in, so none of the others is integrated
        integrated = []
        radial = regsum._radial_integrals

        def counting_radial(a, lam, ns, tol):
            integrated.append(np.size(ns))
            return radial(a, lam, ns, tol)

        monkeypatch.setattr(regsum, "_radial_integrals", counting_radial)
        with pytest.raises(TailBoundError, match="after 4000 terms"):
            force_sum_numeric(1.0, Regulator(0.006 / math.pi))
        assert sum(integrated) <= 64


    def test_overflowing_row_scale_fails_before_any_integral(self, monkeypatch):
        # at lambda pi / a = 3.1e-200 the exp-sinh scale 1/beta^2 of the
        # first row is inf, so every abscissa would be inf
        calls = []
        monkeypatch.setattr(numerics, "integrate_semi_infinite",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(PrecisionLossError,
                           match=r"lambda\*pi/a = 3\.142e-200: the exp-sinh "
                                 r"scale 1/beta\^2"):
            force_sum_numeric(1.0, Regulator(1e-200))
        assert calls == []


class TestSeries:
    def test_surviving_orders(self):
        assert list(series_terms(1.0, Regulator(0.1), 8)) == [0, 4, 6, 8]
        assert list(series_coefficients(8)) == [0, 4, 6, 8]

    def test_exact_coefficients(self):
        terms = series_coefficients(8)
        assert terms[0] == (-1, 1)
        assert terms[4] == (1, 240)
        assert terms[6] == (-1, 3024)
        assert terms[8] == (1, 57600)

    def test_finite_term_value(self):
        terms = series_terms(1.0, Regulator(0.1), 8)
        assert terms[4] == pytest.approx(0.041123351671205656, rel=1e-15)
        assert terms[0] == pytest.approx(-1.0 / (math.pi**2 * 0.1**4),
                                         rel=1e-15)

    def test_rejects_small_h_max(self):
        with pytest.raises(ValueError):
            series_terms(1.0, Regulator(0.1), 4)
        with pytest.raises(ValueError):
            series_coefficients(3)

    def test_coefficients_are_fresh_dicts(self):
        series_coefficients(8)[4] = (0, 1)
        assert series_coefficients(8)[4] == (1, 240)

    def test_integer_table_matches_fraction_recurrence(self):
        # reference: the recurrence and the series coefficient in Fractions
        a, lam = 0.7, 0.1
        for h_max in range(4, 41):
            bernoulli = [Fraction(1)]
            for m in range(1, h_max + 1):
                bernoulli.append(-sum(math.comb(m + 1, j) * bernoulli[j]
                                      for j in range(m)) / (m + 1))
            coefficients = {
                h: b * (-(-1) ** h * (h - 1) * (h - 2)) / (2 * math.factorial(h))
                for h, b in enumerate(bernoulli)}
            want = {h: c for h, c in coefficients.items() if c != 0}
            assert bernoulli_numbers(h_max) == tuple(
                (b.numerator, b.denominator) for b in bernoulli)
            assert regsum._series_table(h_max) == tuple(
                (h, c.numerator, c.denominator) for h, c in want.items())
            assert series_coefficients(h_max) == {
                h: (c.numerator, c.denominator) for h, c in want.items()}
            if h_max >= 5:
                assert series_terms(a, Regulator(lam), h_max) == {
                    h: (float(c) * math.pi ** (h - 2)
                        * a ** (-h) * lam ** (h - 4))
                    for h, c in want.items()}
        assert asymptotic_parts(a) == (
            float(Fraction(-1)) / math.pi**2,
            float(Fraction(1, 240)) * math.pi**2 / a**4)

    def test_series_approximates_closed_form(self):
        a, reg = 1.0, Regulator(0.05 / math.pi)
        total, estimate = series_value(a, reg)
        closed = force_closed_form(a, reg)
        assert total == pytest.approx(closed, rel=1e-9)
        assert 0.0 < estimate < 1e-6 * abs(closed)

    def test_estimate_bounds_deviation_from_50_digit_reference(self):
        # below lambda pi / a ~ 0.1 the deviation is rounding, far above the
        # first omitted term; near 2 it is the first omitted term
        rng = random.Random(1)
        a_values = [0.5, 1.0, 2.0] + [rng.uniform(0.5, 2.0) for _ in range(40)]
        ratios = [0.008 * 250.0 ** (k / 24) for k in range(25)]
        ratios += [10.0 ** rng.uniform(-2.0, 0.0) for _ in range(20)]
        misses = []
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for a, ratio in itertools.product(a_values, ratios):
                lam = ratio * a / math.pi
                total, estimate = series_value(a, Regulator(lam))
                exact_a, exact_lam = Decimal(a), Decimal(lam)
                q = (-exact_lam * _PI_50 / exact_a).exp()
                want = (-(_PI_50 / exact_a) ** 2 / (2 * _PI_50 * exact_a)
                        / exact_lam * q * (1 + q) / (1 - q) ** 3)
                if abs(Decimal(total) - want) > Decimal(estimate):
                    misses.append((a, ratio))
        assert len(a_values) * len(ratios) == 1935
        assert misses == []


class TestAsymptoticParts:
    def test_frozen_values(self):
        divergent_coefficient, finite_part = asymptotic_parts(1.0)
        assert divergent_coefficient == pytest.approx(
            -0.10132118364233778, rel=1e-15)
        assert finite_part == pytest.approx(0.041123351671205656,
                                            rel=1e-15)

    def test_divergent_coefficient_ignores_separation(self):
        assert asymptotic_parts(0.5)[0] == asymptotic_parts(2.0)[0]

    def test_finite_part_quartic_scaling(self):
        assert asymptotic_parts(2.0)[1] == pytest.approx(
            asymptotic_parts(1.0)[1] / 16.0, rel=1e-14)

    def test_casimir_closed_form(self):
        assert casimir_closed_form(1.0) == pytest.approx(
            math.pi**2 / 240.0, rel=1e-15)
        assert casimir_closed_form(1.0) == pytest.approx(
            asymptotic_parts(1.0)[1], rel=1e-15)

    def test_si_micrometre_pressure(self):
        got = casimir_closed_form(1e-6) * HBAR_C_SI
        assert got == pytest.approx(0.001300114763085167, rel=1e-12)


class TestExtraction:
    def test_recovers_both_coefficients(self):
        grid = [Regulator(r / math.pi) for r in (0.05, 0.08, 0.12, 0.2, 0.3, 0.5)]
        result = extract_finite_part(1.0, grid)
        want_finite = casimir_closed_form(1.0)
        want_div, _ = asymptotic_parts(1.0)
        assert abs(result.finite_part - want_finite) / want_finite <= 1e-7
        assert abs(result.divergent_coefficient - want_div) / abs(want_div) <= 1e-12
        assert len(result.coefficients) == len(BASIS_EXPONENTS)
        assert result.condition_estimate < 20.0

    def test_accepts_plain_floats(self):
        grid = [r / math.pi for r in (0.05, 0.1, 0.2, 0.4)]
        result = extract_finite_part(1.0, grid)
        assert result.finite_part == pytest.approx(casimir_closed_form(1.0),
                                                   rel=1e-7)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            extract_finite_part(1.0, [0.02, 0.03, 0.04])

    def test_rejects_out_of_window_grid(self):
        with pytest.raises(ValueError):
            extract_finite_part(1.0, [r / math.pi for r in (0.05, 0.1, 0.2, 0.7)])

    def test_default_grid_inside_window(self):
        # r a / pi rounds lambda pi / a above 0.5 for 149 of these a
        nominal_ratios = (0.05, 0.08, 0.12, 0.2, 0.3, 0.5)
        for a in np.linspace(0.5, 2.0, 2001).tolist():
            grid = default_lambda_grid(a)
            assert all(0.01 <= lam * math.pi / a <= 0.5 for lam in grid)
            for lam, ratio in zip(grid, nominal_ratios):
                nominal = ratio * a / math.pi
                if nominal * math.pi / a <= 0.5:
                    assert lam == nominal
            extract_finite_part(a, grid)

    def test_matches_lapack_reference_on_default_grids(self):
        # the fit as LAPACK solves it: equilibrated columns, SVD lstsq; the
        # finite part inherits the conditioning of y, dominated by lam**-4
        for a in np.linspace(0.5, 2.0, 300).tolist():
            grid = default_lambda_grid(a)
            y = [force_closed_form(a, Regulator(lam)) for lam in grid]
            design = np.power.outer(grid, BASIS_EXPONENTS)
            scale = np.linalg.norm(design, axis=0)
            scaled, _, _, singular = np.linalg.lstsq(design / scale, y,
                                                     rcond=None)
            divergent, finite = (scaled / scale)[:2]
            result = extract_finite_part(a, grid)
            assert result.finite_part == pytest.approx(finite, rel=1e-7)
            assert result.divergent_coefficient == pytest.approx(divergent,
                                                                 rel=1e-12)
            assert result.condition_estimate == pytest.approx(
                singular[0] / singular[-1], rel=1e-12)

    def test_clustered_grid_is_ill_conditioned(self):
        grid = [(0.3 + i * 1e-6) / math.pi for i in range(5)]
        with pytest.raises(IllConditionedFitError):
            extract_finite_part(1.0, grid)


class TestRoutesAndDecomposition:
    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            decompose(1.0, Regulator(0.1), "exact")

    #: The kernel behind each force route
    KERNELS = {"closed_form": "force_closed_form",
               "numeric_sum": "force_sum_numeric",
               "series": "series_value"}

    @pytest.mark.parametrize("route", regsum.ROUTES)
    def test_routes_share_no_kernel(self, route, monkeypatch):
        assert tuple(self.KERNELS) == regsum.ROUTES
        want = decompose(1.0, Regulator(0.1), route)

        def foreign_kernel(*args, **kwargs):
            raise AssertionError(f"the {route} route ran another's kernel")

        for other, kernel in self.KERNELS.items():
            if other != route:
                monkeypatch.setattr(regsum, kernel, foreign_kernel)
        assert decompose(1.0, Regulator(0.1), route) == want

    def test_route_error_estimates_positive(self):
        for route in ("closed_form", "numeric_sum", "series"):
            dec = decompose(1.0, Regulator(0.1), route)
            assert dec.total < 0.0
            assert dec.error_estimate > 0.0

    def test_decomposition_identity(self):
        dec = decompose(1.0, Regulator(0.1))
        reconstructed = (dec.divergent_coefficient / dec.lam**4
                         + dec.finite_part + dec.remainder)
        assert reconstructed == pytest.approx(dec.total, rel=1e-12)

    @settings(deadline=None)
    @given(a=separations, ratio=st.floats(min_value=0.02, max_value=0.3))
    def test_remainder_is_second_order_in_cutoff(self, a, ratio):
        reg = Regulator(ratio * a / math.pi)
        dec = decompose(a, reg)
        allowance = series_terms(a, reg, 6)[6]
        assert abs(dec.remainder) <= 2.0 * abs(allowance)


    @pytest.mark.parametrize("a, lam, route", [
        (1.0, 1e80, "closed_form"),
        (1e-300, 1.0, "closed_form"),
        (1e-90, 1.0, "closed_form"),
        (1e-90, 1e-80, "series"),
        (1e-80, 1.0, "closed_form"),
    ])
    def test_out_of_range_split_is_precision_loss(self, a, lam, route):
        with pytest.raises(PrecisionLossError) as exc:
            decompose(a, Regulator(lam), route)
        assert f"{route} route at a = {a!r}, lambda = {lam!r}" in str(exc.value)

    @pytest.mark.parametrize("ratio, route, tol", [
        (4.0, "series", 1e-10),          # estimate 5.25 |F|
        (2.0 * math.pi, "series", 1e-10),
        (1000.0, "closed_form", 1e-10),  # F underflows to -0.0
        (1.0, "numeric_sum", 1.0),
    ])
    def test_force_without_a_significant_digit_is_refused(self, ratio, route,
                                                          tol):
        lam = ratio / math.pi
        with pytest.raises(PrecisionLossError) as exc:
            decompose(1.0, Regulator(lam), route, tol=tol)
        assert str(exc.value).startswith(
            f"{route} route at a = 1.0, lambda = {lam!r}: the error estimate ")
        assert str(exc.value).endswith("so no digit of it is significant")

    @pytest.mark.parametrize("ratio, relative", [(1.0, 1e-6), (3.0, 0.06)])
    def test_series_keeps_a_force_with_significant_digits(self, ratio,
                                                          relative):
        dec = decompose(1.0, Regulator(ratio / math.pi), "series")
        assert dec.error_estimate < relative * abs(dec.total)


@pytest.mark.parametrize("a", [math.nan, 0.0, -1.0, math.inf])
@pytest.mark.parametrize("call", [
    lambda a: per_n_term(a, Regulator(0.1), 1),
    lambda a: force_sum_numeric(a, Regulator(0.1)),
    lambda a: force_per_n_sum(a, Regulator(0.1)),
    lambda a: force_closed_form(a, Regulator(0.1)),
    lambda a: series_terms(a, Regulator(0.1), 6),
    lambda a: series_value(a, Regulator(0.1)),
    asymptotic_parts,
    casimir_closed_form,
    default_lambda_grid,
    lambda a: extract_finite_part(a, [0.01, 0.02, 0.04, 0.08]),
    lambda a: decompose(a, Regulator(0.1), route="numeric_sum"),
    lambda a: decompose(a, Regulator(0.1), route="series"),
])
def test_every_entry_rejects_bad_separation(call, a):
    with pytest.raises(ValueError, match="a must be positive and finite") as exc:
        call(a)
    assert exc.type is ValueError
