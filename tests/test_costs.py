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

from casimir_plates import numerics
from casimir_plates.regsum import Regulator, force_sum_numeric

#: Integrand values of force_sum_numeric over the 75-cell grid below at
#: tol 1e-10.
NUMERIC_SUM_EVALUATIONS = 5_706_837


def test_numeric_sum_evaluations(monkeypatch):
    # a in {0.5, 1, 2} and 25 log-spaced lambda pi / a in [0.008, 2], every
    # cell inside the 4000-term budget at tol 1e-10
    evaluations = 0
    kernel = numerics.integrate_semi_infinite

    def counting_kernel(*args, **kwargs):
        nonlocal evaluations
        result = kernel(*args, **kwargs)
        evaluations += result.evaluations
        return result

    monkeypatch.setattr(numerics, "integrate_semi_infinite", counting_kernel)
    ratios = [0.008 * 250.0 ** (k / 24) for k in range(25)]
    for a, ratio in itertools.product([0.5, 1.0, 2.0], ratios):
        force_sum_numeric(a, Regulator(ratio * a / math.pi), tol=1e-10)
    assert evaluations <= NUMERIC_SUM_EVALUATIONS
