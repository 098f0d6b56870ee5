import decimal
import itertools
import math
import random
import re
import sys
import tracemalloc
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
    series_terms,
    series_value,
)

separations = st.floats(min_value=0.3, max_value=3.0)
cutoff_ratios = st.floats(min_value=0.05, max_value=2.0)
#: pi to 60 digits, for the 50-digit reference
_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
cutoff_ratios = st.floats(min_value=0.05, max_value=2.0)


def _closed_form_50_digits(a, lam):
    """F(a, lambda) in closed form, to 50 digits, at the exact doubles."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact_a, exact_lam = Decimal(a), Decimal(lam)
        q = (-exact_lam * _PI_50 / exact_a).exp()
        return (-(_PI_50 / exact_a) ** 2 / (2 * _PI_50 * exact_a)
                / exact_lam * q * (1 + q) / (1 - q) ** 3)


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

    @pytest.mark.parametrize("ratio", [1e-150, 1e-4, 1.664e-4, 1.684e-4,
                                       1.70e-4, 1.71e-4])
    def test_sum_below_its_budget_fails_before_any_term(self, ratio,
                                                        monkeypatch):
        # at the default tol, with the tail at tol/2, the 200,000-term
        # budget reaches down to lambda pi / a of about 1.74e-4
        calls = []
        term = regsum.per_n_term

        def counting_term(*args):
            calls.append(args)
            return term(*args)

        monkeypatch.setattr(regsum, "per_n_term", counting_term)
        with pytest.raises(TailBoundError,
                           match=f"lambda\\*pi/a = {ratio:.3e} is below the "
                                 "200000-term budget"):
            force_per_n_sum(1.0, Regulator(ratio / math.pi))
        assert calls == []

    @pytest.mark.parametrize("a, lam, error, message", [
        # lambda pi / a underflows to 0, so frac = 1 misses the budget
        pytest.param(1e300, 1e-30, TailBoundError,
                     r"lambda\*pi/a = 0\.000e\+00 is below", id="ratio-0"),
        # lambda pi / a is inf and stops at n = 1, but (pi/a)^2 overflows
        pytest.param(1e-300, 1e300, PrecisionLossError,
                     r"^a = 1e-300: \(pi/a\)\^2", id="ratio-inf"),
    ])
    def test_extreme_cutoff_is_refused_before_any_term(self, a, lam, error,
                                                       message, monkeypatch):
        calls = []
        monkeypatch.setattr(regsum, "per_n_term",
                            lambda *args: calls.append(args))
        with pytest.raises(error, match=message):
            force_per_n_sum(a, Regulator(lam))
        assert calls == []

    def test_sum_converges_just_above_its_budget(self):
        # the tail takes tol/2 * |F|, and the rounding of the ~195,000
        # additions fits in the other half (measured at most 4.5e-13 |F|
        # here against a 50-digit closed form)
        for ratio in (1.75e-4, 1.8e-4, 2e-4):
            lam = ratio / math.pi
            summed = force_per_n_sum(1.0, Regulator(lam))
            exact = _closed_form_50_digits(1.0, lam)
            assert abs(Decimal(summed) - exact) <= Decimal(1e-12) * abs(exact), ratio


class TestTailFraction:
    """regsum._tail_fraction, the tail bound of both n-sum routes over |F|."""

    @staticmethod
    def _fraction_50_digits(n, ratio):
        """S(n) / S(0) from S(n) = q^(n+1) ((n+1)^2 - (2n^2+2n-1) q + n^2 q^2)
        / (1-q)^3, to 50 digits, at the exact double ratio."""
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            q = (-Decimal(ratio)).exp()
            return (q**n * ((n + 1) ** 2 - (2 * n * n + 2 * n - 1) * q
                            + n * n * q * q) / (1 + q))

    def test_matches_50_digit_reference(self):
        # exp(-n ratio) errs by about n ratio eps/2 relative from the rounding
        # of its argument; the worst on this grid is 0.80 eps (1 + n ratio)
        ns = [0, 1, 64, 576, 4000]
        eps, tiny = sys.float_info.epsilon, sys.float_info.min
        for ratio in (1e-4 * 5e4 ** (k / 40) for k in range(41)):
            fractions = regsum._tail_fraction(np.array(ns), ratio)
            for n, got in zip(ns, fractions.tolist()):
                exact = self._fraction_50_digits(n, ratio)
                bound = Decimal(2 * eps * (1 + n * ratio)) * exact + Decimal(tiny)
                assert abs(Decimal(got) - exact) <= bound, (n, ratio)

    @pytest.mark.parametrize("ratio", [1e-150, 1e-30])
    def test_finite_where_the_cube_underflows(self, ratio):
        ns = np.array([0, 1, 4000, 200_000])
        fractions = regsum._tail_fraction(ns, ratio)
        assert np.isfinite(fractions).all()
        assert fractions.tolist() == [1.0, 1.0, 1.0, 1.0]


class TestNStop:
    """regsum._n_stop, the one stop rule of both n-sum routes."""

    @settings(deadline=None)
    @given(ratio=st.floats(min_value=0.0075, max_value=700.0),
           tol=st.floats(min_value=1e-15, max_value=1e-3),
           n_max=st.sampled_from([4000, 200_000]))
    def test_bisection_finds_the_first_stop(self, ratio, tol, n_max):
        lam = ratio / math.pi
        fractions = regsum._tail_fraction(np.arange(n_max + 1), lam * math.pi)
        stops = np.flatnonzero(fractions <= tol * (1.0 - fractions))
        if stops.size == 0:
            with pytest.raises(TailBoundError):
                regsum._n_stop(1.0, lam, tol, n_max)
        else:
            n_stop, magnitude = regsum._n_stop(1.0, lam, tol, n_max)
            assert n_stop == stops[0]
            assert magnitude == pytest.approx(-force_closed_form(1.0, Regulator(lam)),
                                              rel=1e-13)

    def test_extreme_grid_returns_or_refuses_with_a_typed_error(
            self, monkeypatch):
        # 40 log-spaced values over [1e-320, 1e308] and the ends of the
        # double range, on both axes: each n-sum returns a finite float,
        # refuses before its first term with TailBoundError or
        # PrecisionLossError, or names a non-finite term with
        # FloatingPointError; no ZeroDivisionError or OverflowError escapes
        calls = []
        kernel, term = numerics.integrate_semi_infinite, regsum.per_n_term

        def counting_kernel(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        def counting_term(*args):
            calls.append(args)
            return term(*args)

        monkeypatch.setattr(numerics, "integrate_semi_infinite",
                            counting_kernel)
        monkeypatch.setattr(regsum, "per_n_term", counting_term)
        values = [10.0 ** (-320 + 628 * k / 39) for k in range(40)]
        values += [5e-324, 1.7e308]
        outcomes = set()
        for a, lam, tol in itertools.product(values, values,
                                             [1e-14, 1e-10, 1.0]):
            for n_sum in (force_per_n_sum, force_sum_numeric):
                cell = (n_sum.__name__, a, lam, tol)
                del calls[:]
                try:
                    total = n_sum(a, Regulator(lam), tol=tol)
                except (TailBoundError, PrecisionLossError) as exc:
                    assert calls == [], cell
                    outcomes.add(type(exc).__name__)
                except FloatingPointError:
                    outcomes.add("FloatingPointError")
                else:
                    assert math.isfinite(total), cell
                    outcomes.add("converged")
        assert outcomes == {"converged", "TailBoundError", "PrecisionLossError",
                            "FloatingPointError"}

    def test_n_sums_reject_bad_tol(self, monkeypatch):
        # the tol check comes before the stop is solved
        monkeypatch.setattr(regsum, "_n_stop", None)
        for route in (force_sum_numeric, force_per_n_sum):
            for tol in (-1.0, 0.0, math.nan, math.inf):
                with pytest.raises(ValueError,
                                   match="tol must be positive and finite"):
                    route(1.0, Regulator(0.1), tol=tol)


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
        # the sum stops within a few rows here, each radial integral far
        # down the decay of exp(-lambda pi n / a)
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

    @pytest.mark.parametrize("ratio", [0.02, 0.05, 0.1, 0.2, 1.0, 3.0])
    def test_integrates_only_what_the_sum_uses(self, ratio, monkeypatch):
        # the sum integrates rows 1..n_stop and no other, and n_stop, solved
        # before the first term, is where a running float sum of the same
        # terms first meets its tail bound
        integrated, computed = [], []
        radial = regsum._radial_integrals
        block_sum = numerics.sum_until_tail_bound

        def counting_radial(a, lam, ns, tol, allowance):
            integrated.append(np.size(ns))
            return radial(a, lam, ns, tol, allowance)

        def recording_sum(terms, n_stop):
            def recording(ns):
                values = terms(ns)
                computed.extend(values.tolist())
                return values

            return block_sum(recording, n_stop)

        monkeypatch.setattr(regsum, "_radial_integrals", counting_radial)
        monkeypatch.setattr(numerics, "sum_until_tail_bound", recording_sum)
        tol, lam = 1e-10, ratio / math.pi
        total = force_sum_numeric(1.0, Regulator(lam), tol=tol)
        n_stop, magnitude = regsum._n_stop(1.0, lam, tol / 2, 4000)
        assert sum(integrated) == len(computed) == n_stop
        running = 0.0
        for n, value in enumerate(computed, 1):
            running += value
            bound = magnitude * float(regsum._tail_fraction(n, lam * math.pi))
            if bound <= tol / 2 * abs(running):
                break
        assert (n, running) == (n_stop, total)

    def test_converges_at_the_tol_floor_for_large_cutoffs(self):
        # every row takes its share of the absolute budget from the first
        # row on, so the rows far out in the sum stop at a coarse level
        # even at the floor.  Past tol |F| the deviation holds two terms
        # that tol does not govern: the rounding of lambda pi n / a, which
        # exp(-lambda pi n / a) amplifies by its argument (measured up to
        # 0.45 ratio eps |F|, 6 tol |F| at 602), and the kernel's absolute
        # floor, the smallest normal float per radial integral (6.7e-6 |F|
        # at 700, where R_1 is near it)
        tol, tiny = 1e-14, sys.float_info.min
        for k in range(40):
            ratio = 2.0 * 350.0 ** (k / 39)
            lam = ratio / math.pi
            numeric = force_sum_numeric(1.0, Regulator(lam), tol=tol)
            exact = _closed_form_50_digits(1.0, lam)
            n_stop, _ = regsum._n_stop(1.0, lam, tol / 2, 4000)
            floor = (abs(regsum._prefactor(1.0)) * 0.5 * math.pi * tiny
                     * sum(n**3 for n in range(1, n_stop + 1)))
            bound = Decimal(tol + ratio * sys.float_info.epsilon) * abs(exact)
            assert abs(Decimal(numeric) - exact) <= bound + Decimal(floor), k

    def test_extreme_separations_converge_or_are_refused(self):
        # over 601 decades of a, every cell converges or is refused with a
        # typed error (the budget, or a force or scale out of the double
        # range); no radial integral fails to converge
        outcomes = set()
        for a, ratio, tol in itertools.product(
                [10.0**k for k in range(-300, 301, 30)],
                [0.0075, 0.05, 0.3, 2.0, 7.0, 40.0, 120.0, 700.0],
                [1e-14, 1e-10]):
            try:
                decompose(a, Regulator(ratio * a / math.pi), "numeric_sum",
                          tol=tol)
                outcomes.add("converged")
            except (TailBoundError, PrecisionLossError) as exc:
                outcomes.add(type(exc).__name__)
        assert outcomes == {"converged", "TailBoundError", "PrecisionLossError"}

    @pytest.mark.parametrize("tol", [9.9e-15, 5e-15, 9.9e-16, 1e-20, 5e-324])
    def test_rejects_tol_below_floor(self, tol):
        with pytest.raises(ValueError, match=f"tol = {tol!r} is below 1e-14"):
            force_sum_numeric(1.0, Regulator(0.1), tol=tol)
        with pytest.raises(ValueError, match=f"tol = {tol!r}") as exc:
            decompose(1.0, Regulator(0.1), "numeric_sum", tol=tol)
        assert exc.type is ValueError

    def test_tol_floor_admits_the_floor(self):
        # at the floor 1e-14 each R_n's share tol/10 clears the kernel's
        # 4 eps rounding allowance, so the route meets its budget (at
        # 5e-15 it erred by up to 1.53 tol |F| on the grid of
        # test_estimate_bounds_deviation_from_50_digit_reference)
        for ratio in (0.01, 0.1, 1.0, 2.0):
            lam = ratio / math.pi
            numeric = force_sum_numeric(1.0, Regulator(lam), tol=1e-14)
            exact = _closed_form_50_digits(1.0, lam)
            assert abs(Decimal(numeric) - exact) <= Decimal(1e-14) * abs(exact), ratio

    def test_tail_bound_exhaustion(self):
        # at lambda pi / a = 0.006 the sum needs more than its 4000 terms,
        # which the budget check sees before the first term is summed
        with pytest.raises(TailBoundError):
            force_sum_numeric(1.0, Regulator(0.006 / math.pi))

    @pytest.mark.parametrize("a, lam", [
        *(pytest.param(1.0, ratio / math.pi, id=str(ratio))
          for ratio in (1e-150, 1e-100, 1e-20, 1e-10, 1e-5, 0.006)),
        # the exp-sinh scale 1/beta^2 of the first row would be inf
        pytest.param(1.0, 1e-200, id="3.1e-200"),
        # lambda pi / a underflows to 0
        pytest.param(1e300, 1e-30, id="0.0"),
    ])
    def test_budget_shortfall_fails_before_any_integral(self, a, lam,
                                                        monkeypatch):
        # |F| is the tail bound past n = 0, so no stop within 4000 terms is
        # possible, and none of the radial integrals runs
        calls = []
        kernel = numerics.integrate_semi_infinite

        def counting_kernel(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(numerics, "integrate_semi_infinite",
                            counting_kernel)
        ratio = re.escape(f"{lam * math.pi / a:.3e}")
        with pytest.raises(TailBoundError,
                           match=f"lambda\\*pi/a = {ratio} is below the "
                                 "4000-term budget: .* after 4000 terms"):
            force_sum_numeric(a, Regulator(lam))
        assert calls == []

    def test_converges_just_above_the_budget(self):
        reg = Regulator(0.0075 / math.pi)
        numeric = force_sum_numeric(1.0, reg, tol=1e-10)
        assert numeric == pytest.approx(force_closed_form(1.0, reg), rel=1e-9)

    def test_working_set_does_not_grow_with_the_block(self):
        # at lambda pi / a = 0.0075 the sum runs blocks of 512 radial
        # integrals; the kernel evaluates each level in slabs of at most
        # numerics._SLAB values, and the whole call peaks at 375 KiB above
        # its start (812 KiB with one integrand call per level)
        reg = Regulator(0.0075 / math.pi)
        force_sum_numeric(1.0, reg)  # imports and the node cache
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            force_sum_numeric(1.0, reg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 448 * 1024

    def test_edge_of_the_budget_converges_or_fails_before_any_integral(
            self, monkeypatch):
        # the budget check applies the sum's own tail share without slack:
        # a cutoff that passes it stops within 4000 terms, and one that
        # fails it runs no integral
        calls = []
        kernel = numerics.integrate_semi_infinite

        def counting_kernel(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(numerics, "integrate_semi_infinite",
                            counting_kernel)
        outcomes = set()
        for ratio in (0.0070 + 0.00002 * k for k in range(31)):
            reg = Regulator(ratio / math.pi)
            del calls[:]
            try:
                numeric = force_sum_numeric(1.0, reg, tol=1e-10)
            except TailBoundError:
                assert calls == [], ratio
                outcomes.add("budget")
            else:
                closed = force_closed_form(1.0, reg)
                assert abs(numeric - closed) <= 1e-10 * abs(numeric), ratio
                outcomes.add("converged")
        assert outcomes == {"budget", "converged"}

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-14])
    def test_estimate_bounds_deviation_from_50_digit_reference(self, tol):
        # tol * |F| is the whole budget: the tail, the radial integrals and
        # the rounding of the sum share it
        ratios = [0.008 * 250.0 ** (k / 24) for k in range(25)]
        misses, converged = [], 0
        for a, ratio in itertools.product([0.5, 1.0, 2.0], ratios):
            lam = ratio * a / math.pi
            try:
                force = decompose(a, Regulator(lam), "numeric_sum", tol=tol)
            except TailBoundError:
                continue
            converged += 1
            deviation = abs(Decimal(force.total) - _closed_form_50_digits(a, lam))
            if deviation > Decimal(force.error_estimate):
                misses.append((a, ratio, float(deviation) / force.error_estimate))
        # only lambda pi / a = 0.008 is below the budget, at tol <= 1e-12
        assert converged == (75 if tol > 1e-11 else 72)
        assert misses == []


class TestSeries:
    def test_surviving_orders(self):
        assert list(series_terms(1.0, Regulator(0.1), 8)) == [0, 4, 6, 8]
        assert [h for h, _, _ in regsum._series_table(8)] == [0, 4, 6, 8]

    def test_exact_coefficients(self):
        terms = {h: (num, den) for h, num, den in regsum._series_table(8)}
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
            bernoulli_numbers(3)

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
        for a, ratio in itertools.product(a_values, ratios):
            lam = ratio * a / math.pi
            total, estimate = series_value(a, Regulator(lam))
            want = _closed_form_50_digits(a, lam)
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
