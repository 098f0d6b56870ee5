"""Acceptance gate: one test per headline requirement.

Each test prints a single PASS line with the measured numbers once its
assertions hold (run pytest with -s to see them), and carries the tolerance
and runtime budget it enforces in its assertions.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from casimir_plates import regsum, verify
from casimir_plates.cli import HBAR_C_SI, main
from casimir_plates.modes import CavityGeometry, ModeIndex
from casimir_plates.stress import sigma_zz_direct, sigma_zz_mode

GEOMETRIES = (CavityGeometry(a=1.0, L=1.0), CavityGeometry(a=0.7, L=2.0))


def _grid(a):
    return [regsum.Regulator(r * a / math.pi)
            for r in (0.05, 0.08, 0.12, 0.2, 0.3, 0.5)]


def test_finite_part_extraction_accuracy():
    """Fitted finite part within 1e-7 and pole coefficient within 1e-12."""
    start = time.perf_counter()
    result = regsum.extract_finite_part(1.0, _grid(1.0))
    elapsed = time.perf_counter() - start

    want_finite = regsum.casimir_closed_form(1.0)
    want_div, _ = regsum.asymptotic_parts(1.0)
    finite_err = abs(result.finite_part - want_finite) / want_finite
    div_err = abs(result.divergent_coefficient - want_div) / abs(want_div)

    assert finite_err <= 1e-7
    assert div_err <= 1e-12
    assert elapsed < 1.0
    print(f"PASS: finite-part extraction: c0 rel err {finite_err:.3e} "
          f"(<=1e-7), pole rel err {div_err:.3e} (<=1e-12), {elapsed:.3f}s")


def test_route_equivalence():
    """Numeric sum, per-n sum, and closed form agree to 1e-8 pairwise."""
    start = time.perf_counter()
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for ratio in (0.05, 0.1, 0.5, 1.0):
            reg = regsum.Regulator(ratio * a / math.pi)
            closed = regsum.force_closed_form(a, reg)
            numeric = regsum.force_sum_numeric(a, reg, tol=1e-10)
            per_n = regsum.force_per_n_sum(a, reg, tol=1e-12)
            scale = abs(closed)
            for x in (closed, numeric, per_n):
                for y in (closed, numeric, per_n):
                    worst = max(worst, abs(x - y) / scale)
    elapsed = time.perf_counter() - start

    assert worst <= 1e-8
    assert elapsed < 10.0
    print(f"PASS: route equivalence: worst pairwise rel diff {worst:.3e} "
          f"(<=1e-8) over 12 grid points, {elapsed:.2f}s")


def test_bernoulli_and_series_coefficients_exact():
    """Bernoulli numbers and the order-4 series coefficient are exact rationals."""
    table = regsum.bernoulli_numbers(8)
    assert table[2] == (1, 6)
    assert table[4] == (-1, 30)
    assert table[6] == (1, 42)
    assert table[8] == (-1, 30)

    coefficients = {h: (num, den) for h, num, den in regsum._series_table(8)}
    # the finite part's coefficient assembled from B_4, exactly
    r_4 = Fraction(-3 * 2, 2 * math.factorial(4)) * Fraction(*table[4])
    assert coefficients[4] == (r_4.numerator, r_4.denominator)
    assert coefficients[4] == (1, 240)
    assert coefficients[0] == (-1, 1)
    print("PASS: Bernoulli table and series coefficients exact "
          f"(r_4 = {r_4} = -(6/2*4!) * B_4)")


def test_finite_part_scaling_and_pole_stability():
    """Fitted finite part scales as a^-4; fitted pole is separation blind."""
    seps = (0.5, 0.75, 1.0, 1.5, 2.0)
    finites, poles = [], []
    for a in seps:
        fit = regsum.extract_finite_part(a, _grid(a))
        finites.append(fit.finite_part)
        poles.append(fit.divergent_coefficient)

    logs = [(math.log(a), math.log(abs(f))) for a, f in zip(seps, finites)]
    n = len(logs)
    mean_x = sum(x for x, _ in logs) / n
    mean_y = sum(y for _, y in logs) / n
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in logs)
             / sum((x - mean_x) ** 2 for x, _ in logs))
    pole_spread = ((max(poles) - min(poles))
                   / abs(regsum.asymptotic_parts(1.0)[0]))

    assert abs(slope + 4.0) <= 0.01
    assert pole_spread <= 1e-6
    print(f"PASS: finite-part scaling: slope {slope:.6f} (-4 +- 0.01), "
          f"pole spread {pole_spread:.3e} (<=1e-6)")


def test_stress_oracle_agreement():
    """Plate quadrature of the stress tensor matches the closed form to 1e-8."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for geom in GEOMETRIES:
        for nx in range(1, 4):
            for ny in range(1, 4):
                for nz in range(1, 4):
                    mode = ModeIndex(nx, ny, nz)
                    want = sigma_zz_mode(mode, geom)
                    got = sigma_zz_direct(mode, geom, polarization_angle=0.5)
                    worst = max(worst, abs(got - want) / abs(want))
                    count += 1
    elapsed = time.perf_counter() - start

    assert worst <= 1e-8
    assert elapsed < 30.0
    print(f"PASS: stress oracle: worst rel deviation {worst:.3e} (<=1e-8) "
          f"over {count} modes, {elapsed:.2f}s")


@pytest.mark.parametrize("units", ["natural", "si"])
@pytest.mark.parametrize("profile", ["default", "strict"])
def test_verify_command_green(capsys, profile, units):
    """The verify command exits 0 with every field invariant reported PASS."""
    code = main(["verify", "--profile", profile, "--units", units])
    out = capsys.readouterr().out

    lines = [line for line in out.splitlines()
             if line.startswith(("PASS", "FAIL"))]
    assert code == 0
    assert len(lines) == 17
    assert all(line.startswith("PASS") for line in lines)
    # the field invariants the suite must cover
    for name in ("bulk_mean_square_E", "generator_transversality",
                 "fd_divergence_zero", "boundary_zeros_exact",
                 "sigma_oracle_agreement"):
        assert any(name in line for line in lines), name
    print(f"PASS: verify command ({profile}, {units}): exit 0, "
          f"{len(lines)} checks green")


def test_si_pressure_at_one_micrometre(capsys):
    """Closed form and extraction both give 1.30e-3 Pa at a = 1 um within 1%."""
    assert main(["extract", "--a", "1e-6", "--units", "si", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    closed = document["casimir_closed_form"]
    fitted = document["finite_part"]
    assert closed == regsum.casimir_closed_form(1e-6) * HBAR_C_SI
    assert closed == pytest.approx(1.30e-3, rel=0.01)
    assert fitted == pytest.approx(1.30e-3, rel=0.01)
    print(f"PASS: SI pressure at 1 um: closed {closed:.6e} Pa, "
          f"fitted {fitted:.6e} Pa (1.30e-3 +- 1%)")
