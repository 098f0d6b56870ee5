import collections
import math
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_plates import numerics
from casimir_plates.errors import IllConditionedFitError, QuadratureError
from casimir_plates.numerics import (
    fit_linear_basis,
    integrate_semi_infinite,
    jacobian_fd,
    mean_over_box,
    mean_over_rectangle,
    parallel_map,
    sum_until_tail_bound,
)


class TestIntegrateSemiInfinite:
    def test_plain_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), 1e-12)
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.error_estimate < 1e-10
        assert res.evaluations > 0

    def test_cubic_exponential(self):
        res = integrate_semi_infinite(lambda x: x**3 * np.exp(-x), 1e-12)
        assert res.value == pytest.approx(6.0, rel=1e-12)

    def test_decaying_sqrt_kernel(self):
        # integral of (z+1)^(-1/2) exp(-sqrt(z+1)) over [0, inf) is 2/e,
        # computed independently from the antiderivative -2 exp(-sqrt(z+1))
        def integrand(z):
            root = np.sqrt(z + 1.0)
            return np.exp(-root) / root

        res = integrate_semi_infinite(integrand, 1e-12)
        assert res.value == pytest.approx(0.7357588823428847, rel=1e-11)

    def test_sharp_kernel_without_hints(self):
        beta = 40.0

        def integrand(z):
            root = np.sqrt(z + 1.0)
            return np.exp(-beta * root) / root

        exact = 2.0 * math.exp(-beta) / beta
        res = integrate_semi_infinite(integrand, 1e-11)
        assert res.value == pytest.approx(exact, rel=1e-9)

    def test_deterministic(self):
        f = lambda x: x * np.exp(-2.0 * x)
        first = integrate_semi_infinite(f, 1e-10)
        second = integrate_semi_infinite(f, 1e-10)
        assert first.value == second.value
        assert first.error_estimate == second.error_estimate
        assert first.evaluations == second.evaluations

    def test_failure_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "_DE_LEVELS", 1)
        with pytest.raises(QuadratureError) as info:
            integrate_semi_infinite(lambda x: x**3 * np.exp(-x), 1e-13)
        assert info.value.evaluations > 0
        assert math.isfinite(info.value.value[0])

    def test_scalar_scale_is_a_block_of_one_row(self):
        f = lambda x: x * np.exp(-2.0 * x)
        scalar = integrate_semi_infinite(f, 1e-10, scale=0.7)
        column = integrate_semi_infinite(f, 1e-10, scale=np.full((1, 1), 0.7))
        assert scalar.value.shape == scalar.error_estimate.shape == (1,)
        assert scalar.value.tobytes() == column.value.tobytes()
        assert (scalar.error_estimate.tobytes()
                == column.error_estimate.tobytes())
        assert scalar.evaluations == column.evaluations

    def test_rejects_bad_tol(self):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                integrate_semi_infinite(lambda x: np.exp(-x), tol)

    @staticmethod
    def _sqrt_kernel_block(betas, tol, allowance=0.0):
        beta = np.asarray(betas, dtype=float)[:, None]

        def integrand(z, beta):
            root = np.sqrt(z + 1.0)
            return np.exp(-beta * root) / root

        return integrate_semi_infinite(integrand, tol,
                                       scale=1.0 / beta**2 + 2.0 / beta,
                                       params=(beta,), allowance=allowance)

    @pytest.mark.parametrize("tol", [1e-8, 1e-11, 1e-13])
    def test_block_error_estimate_bounds_error(self, tol):
        betas = np.geomspace(1e-3, 60.0, 200)
        res = self._sqrt_kernel_block(betas, tol)
        # the exact value is used here only, to judge the estimate
        exact = 2.0 * np.exp(-betas) / betas
        assert res.value.shape == res.error_estimate.shape == betas.shape
        assert np.all(res.error_estimate >= np.abs(res.value - exact))
        assert np.all(res.error_estimate > 0.0)
        # relative accuracy holds down to K(60) ~ 3e-28 as well
        assert np.all(np.abs(res.value - exact) <= tol * exact)

    def test_subnormal_rows_converge_with_honest_estimates(self):
        # integrals below the smallest normal float are sums of subnormal
        # values, which carry relative rounding errors far above tol
        scales = np.geomspace(1e-321, 1e-300, 400)[:, None]
        res = integrate_semi_infinite(lambda x, c: c * np.exp(-x), 1e-11,
                                      scale=np.ones_like(scales),
                                      params=(scales,))
        exact = scales[:, 0]
        assert np.all(res.error_estimate >= np.abs(res.value - exact))
        normal = exact >= 1e-290
        assert np.all(np.abs(res.value - exact)[normal]
                      <= 1e-11 * exact[normal])

    def test_float_constants_match_finfo(self):
        # taken from sys.float_info, so that numerics imports without numpy
        assert numerics._DE_ROUNDING == 4 * np.finfo(float).eps
        assert numerics._DE_FLOOR == np.finfo(float).tiny

    def test_block_rows_match_single_rows(self):
        betas = [0.01, 0.3, 2.0, 25.0]
        block = self._sqrt_kernel_block(betas, 1e-11)
        evaluations = 0
        for i, beta in enumerate(betas):
            single = self._sqrt_kernel_block([beta], 1e-11)
            assert block.value[i] == single.value[0]
            assert block.error_estimate[i] == single.error_estimate[0]
            evaluations += single.evaluations
        # a row is no longer evaluated once it has converged
        assert block.evaluations == evaluations

    def test_slabbed_block_matches_single_rows(self):
        # exp(-x) (2 + cos(w x)) for 600 values of w: the rows converge from
        # level 4 to level 7, and every level splits into slabs, 2 of 481
        # rows or fewer at level 0 (17 nodes), 8 rows a slab at level 7
        # (1024 nodes)
        shapes = []

        def integrand(x, w):
            shapes.append(x.shape)
            return np.exp(-x) * (2.0 + np.cos(w * x))

        def block(ws):
            w = np.asarray(ws)[:, None]
            return integrate_semi_infinite(integrand, 1e-10,
                                           scale=np.ones_like(w), params=(w,))

        ws = np.linspace(1.0, 6.0, 600)
        whole = block(ws)
        calls_per_level = collections.Counter(nodes for _, nodes in shapes)
        assert max(rows * nodes for rows, nodes in shapes) <= numerics._SLAB
        assert len(calls_per_level) == numerics._DE_LEVELS
        assert min(calls_per_level.values()) >= 2
        singles = [block([w]) for w in ws]
        assert whole.value.tolist() == [s.value[0] for s in singles]
        assert (whole.error_estimate.tolist()
                == [s.error_estimate[0] for s in singles])
        assert whole.evaluations == sum(s.evaluations for s in singles)

    @pytest.mark.parametrize("slab", [1, 40])
    def test_result_does_not_depend_on_the_slab(self, slab, monkeypatch):
        # 1 evaluates one row per call, 40 two or three rows at level 0
        betas = np.geomspace(1e-3, 60.0, 37)
        whole = self._sqrt_kernel_block(betas, 1e-12)
        monkeypatch.setattr(numerics, "_SLAB", slab)
        slabbed = self._sqrt_kernel_block(betas, 1e-12)
        assert slabbed.value.tobytes() == whole.value.tobytes()
        assert slabbed.error_estimate.tobytes() == whole.error_estimate.tobytes()
        assert slabbed.evaluations == whole.evaluations

    def test_slabbed_failure_carries_every_row(self, monkeypatch):
        # with 40 values a slab, level 0 takes the 5 rows two at a time; the
        # last row does not converge, the others do at their own levels
        betas = [2.0, 0.3, 25.0, 0.01, 1e-30]
        singles = [self._sqrt_kernel_block([beta], 1e-11) for beta in betas[:-1]]
        monkeypatch.setattr(numerics, "_SLAB", 40)
        with pytest.raises(QuadratureError,
                           match="did not converge within 8 levels") as info:
            self._sqrt_kernel_block(betas, 1e-11)
        assert info.value.value.shape == info.value.error_estimate.shape == (5,)
        assert info.value.value[:4].tolist() == [s.value[0] for s in singles]
        assert (info.value.error_estimate[:4].tolist()
                == [s.error_estimate[0] for s in singles])
        assert np.isfinite(info.value.value[4])
        # the failing row took all 8 levels: 17 + 16 + 32 + ... + 1024 values
        assert (info.value.evaluations
                == sum(s.evaluations for s in singles) + 17 + 2032)

    def test_integrand_may_overwrite_its_abscissae(self):
        def in_place(x, c):
            x *= -c
            return np.exp(x, out=x)

        c = np.array([[0.5], [3.0]])
        want = integrate_semi_infinite(lambda x, c: np.exp(-c * x), 1e-12,
                                       scale=1.0 / c, params=(c,))
        got = integrate_semi_infinite(in_place, 1e-12, scale=1.0 / c,
                                      params=(c,))
        assert got.value.tobytes() == want.value.tobytes()
        assert got.evaluations == want.evaluations

    def test_allowance_stops_a_row_at_its_level(self):
        # K(0.3) = 4.94 changes by far less than 0.05 from level 0 to
        # level 1 (17 and 16 nodes); at allowance 0 it takes all 8 levels
        betas = [0.3, 2.0]
        allowance = np.array([[0.05], [0.0]])
        block = self._sqrt_kernel_block(betas, 1e-11, allowance)
        covered = self._sqrt_kernel_block(betas[:1], 1e-11, 0.05)
        plain = self._sqrt_kernel_block(betas[1:], 1e-11)
        assert covered.evaluations == 17 + 16
        assert self._sqrt_kernel_block(betas[:1], 1e-11).evaluations == 257
        assert block.evaluations == covered.evaluations + plain.evaluations
        assert block.value.tolist() == [*covered.value, *plain.value]
        assert abs(covered.value[0] - 2.0 * math.exp(-0.3) / 0.3) <= 0.05

    def test_block_failure_carries_rows(self, monkeypatch):
        monkeypatch.setattr(numerics, "_DE_LEVELS", 2)
        beta = np.array([[0.5], [5.0]])
        with pytest.raises(QuadratureError) as info:
            integrate_semi_infinite(lambda z, beta: np.exp(-beta * z), 1e-12,
                                    scale=np.ones((2, 1)), params=(beta,))
        assert info.value.value.shape == (2,)
        assert np.all(np.isfinite(info.value.value))
        assert info.value.evaluations == 2 * 33

    @pytest.mark.parametrize("failing_beta, message", [
        (1e-30, "did not converge within 8 levels"),
        (1e-8, "not negligible at the ends"),
    ])
    def test_block_failure_keeps_converged_rows(self, failing_beta, message):
        # beta = 2 converges at level 3; the other row fails at a later level
        with pytest.raises(QuadratureError, match=message) as info:
            self._sqrt_kernel_block([2.0, failing_beta], 1e-11)
        # the kernel's tol is the caller's share of its own tol, so the
        # message names none
        assert "tol=" not in str(info.value)
        alone = self._sqrt_kernel_block([2.0], 1e-11)
        assert info.value.value[:1].tobytes() == alone.value.tobytes()
        assert (info.value.error_estimate[:1].tobytes()
                == alone.error_estimate.tobytes())
        assert info.value.evaluations > alone.evaluations

    def test_truncated_end_raises(self):
        # with the scale far below the decay length, the rule's right end
        # sits at x = 4e18 s = 20, where exp(-x) is still 2e-9
        with pytest.raises(QuadratureError, match="ends"):
            integrate_semi_infinite(lambda x: np.exp(-x), 1e-10, scale=5e-18)


class TestSumUntilTailBound:
    def test_basel_series(self):
        # sum 1/n^2 = pi^2/6, and the tail past n lies between 1/(n+1) and
        # 1/n; the 100,000 additions round off by less than 2e-11
        n_stop = 100_000
        total = sum_until_tail_bound(lambda n: 1.0 / n**2, n_stop)
        tail = math.pi**2 / 6.0 - total
        assert 1.0 / (n_stop + 1) - 2e-11 <= tail <= 1.0 / n_stop + 2e-11

    def test_geometric_series_exact_tail(self):
        # the tail past n = 40 is q^41 / (1 - q), below 1e-17
        q = 0.37
        total = sum_until_tail_bound(lambda n: q**n, 40)
        assert total == pytest.approx(q / (1.0 - q), rel=1e-13)

    @staticmethod
    def _running_sum(term, tail_bound, tol):
        """The reference: one term at a time into a running float, until
        the tail bound is at most tol times the sum so far."""
        total, n = 0.0, 0
        while True:
            n += 1
            total += float(term(np.array([n]))[0])
            if float(tail_bound(np.array([n]))[0]) <= tol * abs(total):
                return total, n

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.99, 0.999])
    def test_blocks_match_running_sum(self, q):
        asked = []

        def terms(ns):
            asked.append(ns)
            return ns * q**ns

        def tail_bound(ns):
            return q ** (ns + 1) * (ns + 1.0 / (1.0 - q)) / (1.0 - q)

        expected, stop = self._running_sum(terms, tail_bound, 1e-12)
        del asked[:]
        total = sum_until_tail_bound(terms, stop)
        # bit for bit the running float, over consecutive runs of at most
        # 512 terms that end at the stop
        assert total == expected
        assert np.array_equal(np.concatenate(asked), np.arange(1, stop + 1))
        assert [ns.size for ns in asked[:-1]] == [512] * (len(asked) - 1)
        assert 1 <= asked[-1].size <= 512

    def test_non_finite_term_raises_at_first_block(self):
        # term 100 lies in the first block, term 700 in the second; no
        # block past the one that holds it is asked for
        for bad, blocks in ((100, [512]), (700, [512, 512])):
            asked = []

            def terms(ns):
                asked.append(ns.size)
                return np.where(ns < bad, 1.0 / ns**2, math.nan)

            with pytest.raises(FloatingPointError, match=f"term {bad} "):
                sum_until_tail_bound(terms, 4000)
            assert asked == blocks

    @given(q=st.floats(min_value=0.05, max_value=0.9))
    def test_geometric_series_property(self, q):
        # past n_stop the tail is q^n_stop of the sum, at most 1e-11
        n_stop = math.ceil(math.log(1e-11) / math.log(q))
        total = sum_until_tail_bound(lambda n: q**n, n_stop)
        exact = q / (1.0 - q)
        assert abs(total - exact) <= 2e-10 * exact


_EXPONENT_POOL = (-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


class TestFitLinearBasis:
    def test_recovers_exact_coefficients(self):
        exponents = (-4.0, 0.0, 1.0, 2.0)
        true = np.array([2.0, 3.0, 0.5, -0.25])
        xs = np.linspace(0.5, 2.0, 9)
        samples = [(x, sum(c * x**e for c, e in zip(true, exponents)))
                   for x in xs]
        coefficients, residual_norm, condition_estimate = fit_linear_basis(
            samples, exponents)
        assert np.allclose(coefficients, true, rtol=1e-10)
        assert residual_norm < 1e-9
        assert 1.0 <= condition_estimate < 1e4

    def test_clustered_grid_rejected(self):
        xs = 1.0 + 1e-9 * np.arange(5)
        samples = [(x, 1.0 / x**4 + 2.0) for x in xs]
        with pytest.raises(IllConditionedFitError) as info:
            fit_linear_basis(samples, (-4.0, 0.0, 1.0, 2.0))
        assert info.value.condition_estimate > 1e6

    def test_duplicate_exponents_rejected(self):
        samples = [(x, x) for x in (1.0, 2.0, 3.0)]
        with pytest.raises(IllConditionedFitError):
            fit_linear_basis(samples, (1.0, 1.0))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_linear_basis([(1.0, 1.0)], (0.0, 1.0))

    def test_negative_exponent_needs_positive_x(self):
        samples = [(-1.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
        with pytest.raises(ValueError):
            fit_linear_basis(samples, (-4.0, 0.0))

    @pytest.mark.parametrize("seed", range(24))
    def test_agrees_with_lapack(self, seed):
        # a seeded design of 4..10 samples and 2..4 mixed exponents, compared
        # in the equilibrated coordinates the fit solves in
        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(4, 11)), int(rng.integers(2, 5))
        exponents = tuple(rng.choice(_EXPONENT_POOL, k, replace=False).tolist())
        x = np.exp(rng.uniform(math.log(0.5), math.log(4.0), m))
        y = rng.normal(size=m)
        design = np.power.outer(x, exponents)
        scale = np.linalg.norm(design, axis=0)
        singular = np.linalg.svd(design / scale, compute_uv=False)
        cond = singular[0] / singular[-1]
        reference = np.linalg.lstsq(design / scale, y, rcond=None)[0]
        coefficients, residual_norm, condition_estimate = fit_linear_basis(
            zip(x.tolist(), y.tolist()), exponents)
        assert type(coefficients) is tuple
        assert all(type(c) is float for c in coefficients)
        allowed = (10 * k * cond * np.finfo(float).eps * np.linalg.norm(y)
                   / singular[-1])
        assert np.abs(np.multiply(coefficients, scale) - reference).max() <= allowed
        assert condition_estimate == pytest.approx(cond, rel=1e-12)
        assert residual_norm == pytest.approx(
            np.linalg.norm(y - design @ (reference / scale)), abs=allowed)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_samples_rejected(self, bad, column):
        samples = [[x, 2.0 * x] for x in (0.5, 1.0, 1.5, 2.0)]
        samples[2][column] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            fit_linear_basis(samples, (0.0, 1.0))

    def test_sweep_cap_raises(self, monkeypatch):
        # one sweep leaves the default extract design still rotating
        monkeypatch.setattr(numerics, "_JACOBI_SWEEPS", 1)
        samples = [(x, x) for x in np.linspace(0.5, 2.0, 6)]
        with pytest.raises(IllConditionedFitError,
                           match="still rotating after 1 sweeps"):
            fit_linear_basis(samples, (-4.0, 0.0, 1.0, 2.0))

    def test_condition_grows_with_clustering(self):
        exponents = (-4.0, 0.0, 1.0, 2.0)
        wide = [(x, x) for x in np.linspace(0.5, 2.0, 8)]
        narrow = [(x, x) for x in np.linspace(0.9, 1.1, 8)]
        _, _, cond_wide = fit_linear_basis(wide, exponents)
        _, _, cond_narrow = fit_linear_basis(narrow, exponents)
        assert cond_narrow > 10.0 * cond_wide


class TestStencils:
    def test_derivative_of_square(self):
        f = lambda p: np.array([p[0] ** 2])
        jac = jacobian_fd(f, (1.0, 0.0, 0.0), 1e-6)
        assert jac.shape == (1, 3)
        assert jac[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_derivative_of_sine_other_axis(self):
        f = lambda p: np.array([math.sin(p[1])])
        got = jacobian_fd(f, (0.0, math.pi / 6.0, 0.0), 1e-6)[0, 1]
        assert got == pytest.approx(math.cos(math.pi / 6.0), abs=1e-10)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            jacobian_fd(lambda p: p, (0.0, 0.0, 0.0), 0.0)

    def test_curl_of_simple_field(self):
        field = lambda p: np.array([0.0, 0.0, p[0] * p[1]])
        jac = jacobian_fd(field, (0.3, 0.7, 0.2), 1e-6)
        got = [jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0],
               jac[1, 0] - jac[0, 1]]
        assert np.allclose(got, [0.3, -0.7, 0.0], atol=1e-8)

    def test_second_order_convergence(self):
        f = lambda p: np.array([math.sin(3.0 * p[2])])
        point = (0.0, 0.0, 0.4)
        exact = 3.0 * math.cos(1.2)
        err = lambda h: abs(jacobian_fd(f, point, h)[0, 2] - exact)
        assert err(1e-3) / err(5e-4) == pytest.approx(4.0, abs=0.1)


def _squared_factors(indices, kinds, lengths):
    """prod_i sin^2 or cos^2(pi m_i x_i / l_i), a standing-wave product of
    order m_i along axis i, with its exact mean prod_i (1/2 or 1)."""
    def f(*xs):
        out = 1.0
        for x, m, kind, length in zip(xs, indices, kinds, lengths):
            out = out * kind(np.pi * m * x / length)**2
        return out
    return f, math.prod(0.5 if m else float(kind is np.cos)
                        for m, kind in zip(indices, kinds))


class TestGridMeans:
    def test_rectangle_mean_of_trig_polynomial(self):
        # orders 1 along x and 2 along y
        res = mean_over_rectangle(
            lambda x, y: (1.0 + np.cos(np.pi * x)) * np.sin(2 * np.pi * y / 3)**2,
            2.0, 3.0, 2)
        assert res.value == pytest.approx(0.5, rel=1e-15)
        assert res.evaluations == 3 * 3 + 4 * 4

    def test_box_mean_of_product(self):
        # orders 1, 1 and 3
        res = mean_over_box(
            lambda x, y, z: (np.cos(np.pi * x)**2 * (2.0 + np.sin(np.pi * y))
                             * np.sin(6 * np.pi * z)**2),
            1.0, 2.0, 0.5, 3)
        assert res.value == pytest.approx(0.5, rel=1e-15)
        assert res.evaluations == 4**3 + 5**3

    def test_rectangle_mean_of_trig(self):
        res = mean_over_rectangle(
            lambda x, y: np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y) ** 2,
            1.0, 1.0, 2)
        assert res.value == pytest.approx(0.25, rel=1e-15)

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), dims=st.sampled_from([2, 3]),
           n_max=st.integers(0, 6))
    def test_standing_wave_products_exact_to_rounding(self, data, dims,
                                                      n_max):
        lengths = data.draw(st.tuples(*[st.floats(1e-6, 1e3)] * dims))
        indices = data.draw(st.tuples(*[st.integers(0, n_max)] * dims))
        kinds = data.draw(st.tuples(*[st.sampled_from([np.sin, np.cos])]
                                    * dims))
        f, exact = _squared_factors(indices, kinds, lengths)
        mean = mean_over_box if dims == 3 else mean_over_rectangle
        res = mean(f, *lengths, n_max)
        deviation = abs(res.value - exact)
        assert deviation <= 4 * (n_max + 1) * np.finfo(float).eps * exact
        assert res.error_estimate >= deviation
        assert res.evaluations == (n_max + 1)**dims + (n_max + 2)**dims

    @pytest.mark.parametrize("n_max", range(6))
    @pytest.mark.parametrize("dims", [2, 3])
    def test_order_above_n_max_shows_in_the_estimate(self, dims, n_max):
        # order n_max + 1 along every axis, declared as n_max
        lengths = (1.0, 2.5, 0.7)[:dims]
        f, exact = _squared_factors([n_max + 1] * dims, [np.sin] * dims,
                                    lengths)
        res = (mean_over_box if dims == 3 else mean_over_rectangle)(
            f, *lengths, n_max)
        assert res.error_estimate >= 0.1 * exact

    @pytest.mark.parametrize("n_max", [-1, 2.0, True, "3", None])
    def test_rejects_n_max_that_is_not_a_count(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer >= 0"):
            mean_over_rectangle(lambda x, y: x * y, 1.0, 1.0, n_max)

    def test_rejects_grids_above_the_point_budget(self):
        def never(*xs):
            raise AssertionError("evaluated a grid above the budget")
        # the finer grid would hold 1449^2 and 129^3 points, above 128^3
        with pytest.raises(ValueError, match="1449\\^2 points"):
            mean_over_rectangle(never, 1.0, 1.0, 1447)
        with pytest.raises(ValueError, match="129\\^3 points"):
            mean_over_box(never, 1.0, 1.0, 1.0, 127)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelMap:
    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)

    def test_matches_serial_in_order(self):
        got = parallel_map(lambda x: x * x, range(30))
        _assert_no_children()
        assert got == [x * x for x in range(30)]

    def test_item_i_runs_in_process_i_mod_3(self, monkeypatch):
        processes = [os.getpid()]  # the caller is process 0
        fork = os.fork

        def recording_fork():
            pid = fork()
            processes.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        got = parallel_map(lambda x: os.getpid(), range(30))
        _assert_no_children()
        assert len(set(processes)) == 3
        assert got == [processes[i % 3] for i in range(30)]

    def test_worker_exception_raised_again_in_caller(self):
        def fail_from_four(x):
            if x >= 4:
                raise QuadratureError(f"item {x}", value=x,
                                      error_estimate=2.0 * x, evaluations=3 * x)
            return x

        # items 6 and 9 raise in the caller, 4, 7 and 10 in a worker
        with pytest.raises(QuadratureError, match=r"^item 4$") as info:
            parallel_map(fail_from_four, range(12))
        _assert_no_children()
        assert (info.value.value, info.value.error_estimate,
                info.value.evaluations) == (4, 8.0, 12)

    def test_killed_worker_still_yields_every_result(self, tmp_path):
        caller = os.getpid()

        def die_in_worker(x):
            if os.getpid() != caller and x >= 3:
                (tmp_path / f"killed-{x}").touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return -x

        assert parallel_map(die_in_worker, range(20)) == [-x for x in range(20)]
        _assert_no_children()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["killed-4",
                                                              "killed-5"]

    def test_interrupted_caller_kills_its_workers(self):
        caller = os.getpid()

        def interrupt_caller(x):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60.0)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            parallel_map(interrupt_caller, range(6))
        assert time.monotonic() - start < 30.0
        _assert_no_children()

    def test_one_cpu_never_forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)

        def no_fork():
            raise AssertionError("forked with one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
        assert parallel_map(abs, [-2, -1, 0, 1]) == [2, 1, 0, 1]
        assert parallel_map(abs, []) == []
