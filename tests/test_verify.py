"""The field-normalization checks compare against their closed forms.

A closed form scaled by 1 + 1e-6 must make its check fail, so a faster
evaluation of the quadrature side cannot turn a check into one that always
passes.
"""

import pytest

from casimir_plates import modes, verify
from casimir_plates.units import NATURAL, SI


def _scaled(monkeypatch, name):
    exact = getattr(modes, name)
    monkeypatch.setattr(modes, name,
                        lambda *args: exact(*args) * (1.0 + 1e-6))


@pytest.mark.parametrize("units", [NATURAL, SI], ids=["natural", "si"])
def test_checks_pass_with_the_exact_closed_forms(units):
    assert verify.check_bulk_mean_square(units).passed
    assert verify.check_boundary_mean_squares(units).passed


@pytest.mark.parametrize("units", [NATURAL, SI], ids=["natural", "si"])
def test_bulk_check_fails_against_a_scaled_mean(monkeypatch, units):
    _scaled(monkeypatch, "mean_square_E")
    result = verify.check_bulk_mean_square(units)
    assert result.name == "bulk_mean_square_E"
    assert not result.passed
    assert result.residual == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("name", ["mean_square_E", "mean_square_B_boundary"])
@pytest.mark.parametrize("units", [NATURAL, SI], ids=["natural", "si"])
def test_boundary_check_fails_against_a_scaled_mean(monkeypatch, units, name):
    _scaled(monkeypatch, name)
    result = verify.check_boundary_mean_squares(units)
    assert result.name == "boundary_mean_squares"
    assert not result.passed
    assert result.residual > 1e-9


#: The checks whose bounds the strict profile divides by 10.
TIGHTENED = {"fd_divergence_zero", "bulk_mean_square_E",
             "boundary_mean_squares", "sigma_oracle_agreement",
             "sigma_direction_independence", "sigma_plate_symmetry",
             "route_agreement"}


@pytest.mark.parametrize("units", [NATURAL, SI], ids=["natural", "si"])
def test_strict_profile_tightens_exactly_the_named_bounds(units):
    default = verify.run_all("default", units=units)
    strict = verify.run_all("strict", units=units)
    assert ([(r.name, r.residual, r.detail) for r in strict]
            == [(r.name, r.residual, r.detail) for r in default])
    assert len(default) == 17
    assert TIGHTENED <= {r.name for r in default}
    for loose, tight in zip(default, strict):
        want = 0.1 * loose.bound if loose.name in TIGHTENED else loose.bound
        assert tight.bound == want, loose.name
