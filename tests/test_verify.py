"""The field-normalization checks compare against their closed forms.

A closed form scaled by 1 + 1e-6, or a field whose phases are 1e-3 off,
must make its check fail, so a faster evaluation of the quadrature side
cannot turn a check into one that always passes.
"""

import itertools

import pytest

from casimir_plates import modes, verify
from casimir_plates.numerics import mean_over_box, mean_over_rectangle


def _scaled(monkeypatch, name):
    exact = getattr(modes, name)
    monkeypatch.setattr(modes, name,
                        lambda *args: exact(*args) * (1.0 + 1e-6))


def test_checks_pass_with_the_exact_closed_forms():
    assert verify.check_bulk_mean_square().passed
    assert verify.check_boundary_mean_squares().passed


def test_bulk_check_fails_against_a_scaled_mean(monkeypatch):
    _scaled(monkeypatch, "mean_square_E")
    result = verify.check_bulk_mean_square()
    assert result.name == "bulk_mean_square_E"
    assert not result.passed
    assert result.residual == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("name", ["mean_square_E", "mean_square_B_boundary"])
def test_boundary_check_fails_against_a_scaled_mean(monkeypatch, name):
    _scaled(monkeypatch, name)
    result = verify.check_boundary_mean_squares()
    assert result.name == "boundary_mean_squares"
    assert not result.passed
    assert result.residual > 1e-9


def _phase_faulty(monkeypatch):
    """Make every mode's field run its phases 1e-3 fast.

    The field evaluators read their phases from the wave vector's mode and
    geometry, not from k_x, k_y and k_z, so the fault shrinks the geometry
    the field sees to L / (1 + 1e-3) and leaves k, the amplitudes and the
    closed forms exact.  The checks still average over the true box and
    plate.
    """
    exact = modes.wave_vector

    def faulty(mode, geom):
        return exact(mode, geom)._replace(
            geom=modes.CavityGeometry(geom.a, geom.L / (1.0 + 1e-3)))

    monkeypatch.setattr(modes, "wave_vector", faulty)


def test_mean_checks_fail_on_fields_with_faulty_phases(monkeypatch):
    _phase_faulty(monkeypatch)
    for check in (verify.check_bulk_mean_square,
                  verify.check_boundary_mean_squares):
        result = check()
        assert not result.passed, result
        assert result.residual > 1e-4


def test_kernel_estimate_shows_faulty_phases(monkeypatch):
    _phase_faulty(monkeypatch)
    box, plate = [], []
    for geom in verify._GEOMS:
        for n in itertools.product(range(1, 4), repeat=3):
            mode = modes.ModeIndex(*n)
            wv = modes.wave_vector(mode, geom)
            amp = modes.mode_amplitudes(mode, geom, 0.6)
            box.append(mean_over_box(
                lambda *xyz: modes.electric_square_on_grid(*xyz, wv, amp),
                geom.L, geom.L, geom.a, max(mode)))
            amp = modes.mode_amplitudes(mode, geom, 0.8)
            plate += [mean_over_rectangle(square, geom.L, geom.L, max(mode))
                      for square in (
                          lambda xs, ys: modes.electric_square_on_grid(
                              xs, ys, 0.0, wv, amp),
                          lambda xs, ys: modes.magnetic_square_on_grid(
                              xs, ys, 0.0, wv, amp))]
    for means in (box, plate):
        relative = [m.error_estimate / m.value for m in means]
        # the estimate detects the fault, though it does not bound the
        # error: every mode reads far above rounding, the worst above 1e-4
        assert min(relative) > 1e-8
        assert max(relative) >= 1e-4


#: The checks whose bounds the strict profile divides by 10.
TIGHTENED = {"fd_divergence_zero", "bulk_mean_square_E",
             "boundary_mean_squares", "sigma_oracle_agreement",
             "sigma_direction_independence", "sigma_plate_symmetry",
             "route_agreement"}


def test_strict_profile_tightens_exactly_the_named_bounds():
    default = verify.run_all("default")
    strict = verify.run_all("strict")
    assert ([(r.name, r.residual, r.detail) for r in strict]
            == [(r.name, r.residual, r.detail) for r in default])
    assert len(default) == 17
    assert TIGHTENED <= {r.name for r in default}
    for loose, tight in zip(default, strict):
        want = 0.1 * loose.bound if loose.name in TIGHTENED else loose.bound
        assert tight.bound == want, loose.name
