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

#: Integrand values and kernel calls of force_sum_numeric at its default tol
#: over the 180 numeric_sum cells of SWEEP_NUMERIC_ARGV.
SWEEP_NUMERIC_EVALUATIONS = 12_230_650
SWEEP_NUMERIC_KERNEL_CALLS = 339

#: (--a, --lambda) of the first six sweep_numeric calls of the benchmark at
#: seed 1, copied here so that a change to the benchmark moves no ceiling.
SWEEP_NUMERIC_ARGV = (
    ([0.6267792942640157, 0.7307710055437474, 1.158193991934248,
      0.8520164393281219, 0.9933782366546196],
     [0.0036907089270382114, 0.1713075334385557, 0.017130753343855564,
      0.07951391343221478, 0.007951391343221474, 0.036907089270382124]),
    ([1.0126673710796683, 1.3765758627113027, 1.1806834715467058,
      1.8712571965057292, 1.6049696226516588],
     [0.006321229243661037, 0.1361867556618735, 0.013618675566187345,
      0.02934054707208363, 0.06321229243661039, 0.2934054707208362]),
    ([0.7082701009890603, 0.8257823106682393, 1.122532461481307,
      0.6074803607128754, 0.9627914882476579],
     [0.08109519218441237, 0.01747142952369004, 0.008109519218441233,
      0.003764105385028504, 0.03764105385028505, 0.1747142952369004]),
    ([1.2788219494396666, 0.8068821012814359, 0.69205946891549,
      0.9407554619382698, 1.0968403410624137],
     [0.045837199262801546, 0.009875325218568348, 0.0045837199262801515,
      0.021275743226230347, 0.09875325218568354, 0.2127574322623036]),
    ([0.869191791912465, 0.6394142093603011, 0.745502235012191,
      1.1815414172353669, 1.0134032275780465],
     [0.019488283407770087, 0.19488283407770093, 0.09045659865178685,
      0.004198623382287264, 0.04198623382287265, 0.009045659865178681]),
    ([1.4716982293221772, 0.7964382339815514, 1.2622695352531124,
      0.9285788066493232, 1.0826434033028287],
     [0.2340448188955332, 0.10863398179504324, 0.023404481889553325,
      0.050423427685076655, 0.005042342768507663, 0.01086339817950432]),
)

#: Integrand values of the grid means over one verify.run_all() (54 box
#: means and 35 plate means).
VERIFY_BOX_EVALUATIONS = 8_526
VERIFY_RECTANGLE_EVALUATIONS = 979


def _count_kernel(monkeypatch) -> dict[str, int]:
    """Wrap the exp-sinh kernel; the returned counts grow with its use."""
    counts = {"evaluations": 0, "calls": 0}
    kernel = numerics.integrate_semi_infinite

    def counting_kernel(*args, **kwargs):
        result = kernel(*args, **kwargs)
        counts["evaluations"] += result.evaluations
        counts["calls"] += 1
        return result

    monkeypatch.setattr(numerics, "integrate_semi_infinite", counting_kernel)
    return counts


def test_numeric_sum_evaluations(monkeypatch):
    # a in {0.5, 1, 2} and 25 log-spaced lambda pi / a in [0.008, 2], every
    # cell inside the 4000-term budget at tol 1e-10
    counts = _count_kernel(monkeypatch)
    ratios = [0.008 * 250.0 ** (k / 24) for k in range(25)]
    for a, ratio in itertools.product([0.5, 1.0, 2.0], ratios):
        force_sum_numeric(a, Regulator(ratio * a / math.pi), tol=1e-10)
    assert counts["evaluations"] <= NUMERIC_SUM_EVALUATIONS
    assert counts["calls"] <= NUMERIC_SUM_KERNEL_CALLS


def test_sweep_numeric_evaluations(monkeypatch):
    # in process and cell by cell, so that no fork splits the count
    counts = _count_kernel(monkeypatch)
    for seps, lams in SWEEP_NUMERIC_ARGV:
        for a, lam in itertools.product(seps, lams):
            force_sum_numeric(a, Regulator(lam))
    assert counts["evaluations"] <= SWEEP_NUMERIC_EVALUATIONS
    assert counts["calls"] <= SWEEP_NUMERIC_KERNEL_CALLS


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
