"""Costs as counts: deterministic ceilings on the work the kernels do.

Wall clocks cannot resolve a few percent of kernel work between two runs,
but the number of integrand values the exp-sinh kernel asks for is the
same on every machine and every run.  Each test counts one such cost over a
fixed grid, with the counter wrapped around the kernel here, and fails if
the count rises above its ceiling.  A change that lowers a count lowers its
ceiling with it, so ceilings only move down.
"""

import itertools
import math

from casimir_plates import numerics, verify
from casimir_plates.regsum import Regulator, force_sum_numeric

#: Integrand values and kernel calls of force_sum_numeric over the 75-cell
#: grid below at tol 1e-10.
NUMERIC_SUM_EVALUATIONS = 5_706_837
NUMERIC_SUM_KERNEL_CALLS = 153

#: Integrand values of the grid means over one verify.run_all() (54 box
#: means and 35 plate means).
VERIFY_BOX_EVALUATIONS = 8_526
VERIFY_RECTANGLE_EVALUATIONS = 979


def test_numeric_sum_evaluations(monkeypatch):
    # a in {0.5, 1, 2} and 25 log-spaced lambda pi / a in [0.008, 2], every
    # cell inside the 4000-term budget at tol 1e-10
    evaluations = calls = 0
    kernel = numerics.integrate_semi_infinite

    def counting_kernel(*args, **kwargs):
        nonlocal evaluations, calls
        result = kernel(*args, **kwargs)
        evaluations += result.evaluations
        calls += 1
        return result

    monkeypatch.setattr(numerics, "integrate_semi_infinite", counting_kernel)
    ratios = [0.008 * 250.0 ** (k / 24) for k in range(25)]
    for a, ratio in itertools.product([0.5, 1.0, 2.0], ratios):
        force_sum_numeric(a, Regulator(ratio * a / math.pi), tol=1e-10)
    assert evaluations <= NUMERIC_SUM_EVALUATIONS
    assert calls <= NUMERIC_SUM_KERNEL_CALLS


def test_verify_grid_mean_evaluations(monkeypatch):
    # verify binds both means at import; stress.sigma_zz_direct imports
    # mean_over_rectangle from numerics when called, so both are wrapped
    evaluations = {"mean_over_box": 0, "mean_over_rectangle": 0}

    def counting(name):
        mean = getattr(numerics, name)

        def counting_mean(*args, **kwargs):
            result = mean(*args, **kwargs)
            evaluations[name] += result.evaluations
            return result
        return counting_mean

    for name in evaluations:
        wrapped = counting(name)
        monkeypatch.setattr(numerics, name, wrapped)
        monkeypatch.setattr(verify, name, wrapped)
    assert all(result.passed for result in verify.run_all())
    assert evaluations["mean_over_box"] <= VERIFY_BOX_EVALUATIONS
    assert evaluations["mean_over_rectangle"] <= VERIFY_RECTANGLE_EVALUATIONS
