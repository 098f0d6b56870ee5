"""Named self-checks tying the field, stress, and summation layers together.

Each check computes a residual with an explicit bound and never consults
the code path it is checking for its expected value.  run_all returns the
results in a fixed order so command-line output is stable.  The checks run
in natural units: every residual is a ratio, or a sign or zero test whose
bound is 0, so no unit system could change a verdict.

The ``sigma_factor`` argument is a fault-injection hook: it multiplies the
closed-form mode stress inside the oracle comparison, so any value other
than 1.0 must make that check fail.  It exists to prove the comparison can
fail; nothing else reads it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import modes, regsum, stress
from .numerics import jacobian_fd, mean_over_box, mean_over_rectangle

__all__ = ["CheckResult", "run_all", "PROFILES"]

# The strict profile divides by 10 the bounds that sit far above observed
# residuals (quadrature and algebraic identities, typically met to 1e-13 or
# better), as run_all's table marks.  Exact-zero checks and fit-quality
# windows are already as tight as they can meaningfully be.
PROFILES = ("default", "strict")

_GEOMS = (modes.CavityGeometry(a=1.0, L=1.0), modes.CavityGeometry(a=0.7, L=2.0))


class CheckResult(NamedTuple):
    name: str
    residual: float
    bound: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


def _result(name: str, residual: float, bound: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, residual=float(residual), bound=float(bound),
                       detail=detail)


def _mode_grid(n_max: int):
    for n in itertools.product(range(1, n_max + 1), repeat=3):
        yield modes.ModeIndex(*n)


def check_boundary_zeros() -> CheckResult:
    """Tangential E and normal B vanish exactly on both plates."""
    worst = 0.0
    for geom in _GEOMS:
        for mode in _mode_grid(3):
            wv = modes.wave_vector(mode, geom)
            amp = modes.mode_amplitudes(mode, geom, 0.4)
            xs = np.array([0.137, 0.5, 0.891])[:, None, None] * geom.L
            ys = np.array([0.222, 0.77, 0.993])[:, None] * geom.L
            zs = np.array([0.0, geom.a])  # both plates
            e = modes.electric_mode_on_grid(xs, ys, zs, wv, amp)
            b = modes.magnetic_mode_on_grid(xs, ys, zs, wv, amp)
            worst = max(worst,
                        float(np.max(np.abs(e[..., 0]))),
                        float(np.max(np.abs(e[..., 1]))),
                        float(np.max(np.abs(b[..., 2]))))
    return _result("boundary_zeros_exact", worst, 0.0,
                   "tangential E and B_z on both plates")


def check_transversality() -> CheckResult:
    """Generated amplitudes are orthogonal to the wave vector."""
    worst = 0.0
    for geom in _GEOMS:
        for mode in _mode_grid(4):
            wv = modes.wave_vector(mode, geom)
            for angle in (0.0, 0.35, 1.2, math.pi / 2):
                amp = modes.mode_amplitudes(mode, geom, angle)
                worst = max(worst, modes.transversality_residual(amp, wv))
    return _result("generator_transversality", worst, 1e-12)


def check_fd_divergence() -> CheckResult:
    """Finite-difference div E is numerically zero for transverse amplitudes.

    Uses modes with all wave-number components equal, for which the
    stencil's O(step^2) truncation term cancels along with the divergence
    itself and only rounding noise remains.  The truncation behaviour on
    general modes is what check_fd_divergence_rate measures.
    """
    worst = 0.0
    geom = _GEOMS[0]
    for mode in (modes.ModeIndex(1, 1, 1), modes.ModeIndex(2, 2, 2)):
        wv = modes.wave_vector(mode, geom)
        for angle in (0.0, 0.9):
            amp = modes.mode_amplitudes(mode, geom, angle)
            for pt in ((0.23, 0.17, 0.31), (0.61, 0.43, 0.52)):
                res = modes.divergence_residual(pt, wv, amp, step=1e-4)
                # normalize by the field scale |A| k so the bound is
                # geometry independent
                worst = max(worst, abs(res) / (math.sqrt(amp.norm_squared) * wv.k))
    return _result("fd_divergence_zero", worst, 1e-8,
                   "relative to |A| k, step 1e-4")


def check_fd_divergence_rate() -> CheckResult:
    """The divergence stencil's residual shrinks at second order.

    On a mode with unequal wave-number components the stencil truncation
    term survives even though the true divergence vanishes, so halving the
    step must cut the residual by a factor of four.
    """
    geom = modes.CavityGeometry(a=1.0, L=1.0)
    mode = modes.ModeIndex(1, 2, 1)
    wv = modes.wave_vector(mode, geom)
    amp = modes.mode_amplitudes(mode, geom, 0.0)
    pt = (0.23, 0.17, 0.31)
    r_h = abs(modes.divergence_residual(pt, wv, amp, step=1e-3))
    r_h2 = abs(modes.divergence_residual(pt, wv, amp, step=5e-4))
    ratio = r_h / r_h2
    deviation = abs(ratio - 4.0)
    return _result("fd_divergence_second_order", deviation, 0.7,
                   f"halving ratio {ratio:.3f}, expected 4")


def check_bulk_mean_square() -> CheckResult:
    """Box mean of |E|^2 equals A^2/8 for all modes with n <= 3."""
    worst = 0.0
    for geom in _GEOMS:
        for mode in _mode_grid(3):
            wv = modes.wave_vector(mode, geom)
            amp = modes.mode_amplitudes(mode, geom, 0.6)
            expected = modes.mean_square_E(amp, "bulk")
            got = mean_over_box(
                lambda *xyz: modes.electric_square_on_grid(*xyz, wv, amp),
                geom.L, geom.L, geom.a, max(mode)).value
            worst = max(worst, abs(got - expected) / expected)
    return _result("bulk_mean_square_E", worst, 1e-9,
                   "3-D quadrature vs A^2/8, modes n <= 3")


def check_boundary_mean_squares() -> CheckResult:
    """Plate means of E^2 and B^2 match their amplitude-level closed forms."""
    worst = 0.0
    for geom in _GEOMS:
        for mode in (modes.ModeIndex(1, 1, 1), modes.ModeIndex(2, 3, 1),
                     modes.ModeIndex(3, 1, 2)):
            wv = modes.wave_vector(mode, geom)
            amp = modes.mode_amplitudes(mode, geom, 0.8)
            got_e = mean_over_rectangle(
                lambda xs, ys: modes.electric_square_on_grid(xs, ys, 0.0, wv, amp),
                geom.L, geom.L, max(mode)).value
            want_e = modes.mean_square_E(amp, "boundary")
            got_b = mean_over_rectangle(
                lambda xs, ys: modes.magnetic_square_on_grid(xs, ys, 0.0, wv,
                                                             amp),
                geom.L, geom.L, max(mode)).value
            want_b = modes.mean_square_B_boundary(wv, amp)
            norm = modes.amplitude_norm_squared(mode, geom)
            worst = max(worst, abs(got_e - want_e) / norm,
                        abs(got_b - want_b) / norm)
    return _result("boundary_mean_squares", worst, 1e-9,
                   "2-D quadrature vs A_z^2/4 and (A_z^2 + A^2 k_z^2/k^2)/4c^2")


def check_curl_consistency() -> CheckResult:
    """magnetic_mode_at agrees with a finite-difference curl of the E field."""
    worst = 0.0
    for geom, mode in ((modes.CavityGeometry(a=0.9, L=1.3), modes.ModeIndex(1, 2, 2)),
                       (_GEOMS[0], modes.ModeIndex(3, 1, 2))):
        wv = modes.wave_vector(mode, geom)
        amp = modes.mode_amplitudes(mode, geom, 0.7)
        omega = wv.k
        h = 1e-3 * (2.0 * math.pi / wv.k)
        amp_scale = math.sqrt(amp.norm_squared)
        bound = 2.0 * h * h * amp_scale * wv.k**4 / omega
        for pt in ((0.31, 0.27, 0.41), (0.12, 0.55, 0.2)):
            point = np.array(pt) * np.array([geom.L, geom.L, geom.a])
            jac = jacobian_fd(lambda p: modes.electric_mode_at(p, wv, amp),
                              point, h)
            b_fd = np.array([jac[2, 1] - jac[1, 2],
                             jac[0, 2] - jac[2, 0],
                             jac[1, 0] - jac[0, 1]]) / omega
            b = modes.magnetic_mode_at(point, wv, amp)
            worst = max(worst, float(np.linalg.norm(b_fd - b)) / bound)
    return _result("curl_matches_fd", worst, 1.0,
                   "relative to the second-order stencil error bound")


def check_sigma_negative() -> CheckResult:
    """Every mode's averaged normal stress is strictly negative."""
    worst = -math.inf
    for geom in _GEOMS:
        for mode in _mode_grid(5):
            worst = max(worst, stress.sigma_zz_mode(mode, geom))
    return _result("sigma_zz_negative", worst, 0.0,
                   "largest sigma_zz over modes n <= 5")


def check_sigma_oracle(sigma_factor: float = 1.0) -> CheckResult:
    """Plate quadrature of the stress tensor reproduces the closed form."""
    worst = 0.0
    for geom in _GEOMS:
        for mode in _mode_grid(2):
            want = stress.sigma_zz_mode(mode, geom) * sigma_factor
            got = stress.sigma_zz_direct(mode, geom, polarization_angle=0.5)
            worst = max(worst, abs(got - want) / abs(want))
    return _result("sigma_oracle_agreement", worst, 1e-8,
                   "direct tensor quadrature vs closed form")


def check_sigma_direction_independence() -> CheckResult:
    """The averaged stress does not depend on the polarization angle."""
    geom = _GEOMS[1]
    mode = modes.ModeIndex(2, 1, 3)
    values = [stress.sigma_zz_direct(mode, geom, polarization_angle=ang)
              for ang in (0.0, 0.8, math.pi / 2)]
    spread = (max(values) - min(values)) / abs(values[0])
    return _result("sigma_direction_independence", spread, 1e-10)


def check_sigma_plate_symmetry() -> CheckResult:
    """Both plates see the same averaged stress."""
    worst = 0.0
    for geom in _GEOMS:
        mode = modes.ModeIndex(1, 2, 2)
        bottom = stress.sigma_zz_direct(mode, geom)
        top = stress.sigma_zz_direct(mode, geom, plate="top")
        worst = max(worst, abs(top - bottom) / abs(bottom))
    return _result("sigma_plate_symmetry", worst, 1e-10,
                   "z = a plate vs z = 0 plate")


def check_az_cancellation() -> CheckResult:
    """The A_z^2 terms cancel in the reduced-average stress assembly.

    Polarizations with wildly different A_z at the same |A|^2 must give the
    same assembled sigma_zz, and it must match -A^2 k_z^2 / (8 k^2).
    """
    worst = 0.0
    geom = _GEOMS[0]
    for mode in (modes.ModeIndex(1, 1, 2), modes.ModeIndex(3, 2, 1)):
        wv = modes.wave_vector(mode, geom)
        vals = []
        for angle in (0.0, math.pi / 2, 0.3):
            amp = modes.mode_amplitudes(mode, geom, angle)
            got = stress.sigma_zz_from_boundary_averages(wv, amp)
            want = -(amp.norm_squared * wv.k_z**2 / (8.0 * wv.k**2))
            vals.append(got)
            worst = max(worst, abs(got - want) / abs(want))
        worst = max(worst, (max(vals) - min(vals)) / abs(vals[0]))
    return _result("sigma_az_cancellation", worst, 1e-13)


def check_bernoulli_generating_function() -> CheckResult:
    """The Bernoulli table reproduces partial sums of x / (e^x - 1)."""
    table = regsum.bernoulli_numbers(20)
    worst = 0.0
    for x in (0.1, 0.5, 1.0):
        partial = sum(num / den * x**h / math.factorial(h)
                      for h, (num, den) in enumerate(table))
        exact = x / math.expm1(x)
        worst = max(worst, abs(partial - exact) / abs(exact))
    return _result("bernoulli_generating_function", worst, 1e-12)


def check_route_agreement() -> CheckResult:
    """Numeric, per-n, and closed-form routes agree pairwise."""
    worst = 0.0
    a = 1.0
    for ratio in (0.1, 1.0):
        reg = regsum.Regulator(ratio * a / math.pi)
        values = [
            regsum.force_sum_numeric(a, reg, tol=1e-10),
            regsum.force_per_n_sum(a, reg),
            regsum.force_closed_form(a, reg),
        ]
        scale = abs(values[2])
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, abs(values[i] - values[j]) / scale)
    return _result("route_agreement", worst, 1e-8,
                   "pairwise at lambda pi / a in {0.1, 1}")


def check_asymptotic_split() -> CheckResult:
    """F minus pole minus finite part is bounded by twice the lambda^2 term."""
    worst = 0.0
    for a in (0.8, 1.0):
        for ratio in (0.05, 0.1):
            reg = regsum.Regulator(ratio * a / math.pi)
            dec = regsum.decompose(a, reg)
            allowance = 2.0 * abs(regsum.series_terms(a, reg, 6)[6])
            worst = max(worst, abs(dec.remainder) / allowance)
    return _result("asymptotic_split", worst, 1.0,
                   "|remainder| vs 2x the first vanishing term")


def check_divergent_coefficient_stability() -> CheckResult:
    """Fitted pole coefficients do not move when the separation does."""
    fits = []
    for a in (0.5, 1.0, 2.0):
        grid = regsum.default_lambda_grid(a)
        fits.append(regsum.extract_finite_part(a, grid).divergent_coefficient)
    ref, _ = regsum.asymptotic_parts(1.0)
    spread = (max(fits) - min(fits)) / abs(ref)
    return _result("divergent_coefficient_stability", spread, 1e-6,
                   "fits at a in {0.5, 1, 2}")


def check_finite_part_scaling() -> CheckResult:
    """The fitted finite part falls off as the fourth power of separation."""
    seps = np.array([0.5, 0.75, 1.0, 1.5, 2.0])
    fitted = []
    for a in seps:
        grid = regsum.default_lambda_grid(a)
        fitted.append(regsum.extract_finite_part(a, grid).finite_part)
    slope = np.polyfit(np.log(seps), np.log(np.abs(fitted)), 1)[0]
    return _result("finite_part_scaling", abs(slope + 4.0), 1e-3,
                   f"log-log slope {slope:.6f} from fits")


def run_all(profile: str = "default", *,
            sigma_factor: float = 1.0) -> list[CheckResult]:
    """Run every check; see module docstring for the fault-injection hook."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    tighten = 0.1 if profile == "strict" else 1.0
    # every check in output order, with the factor on its bound
    checks = (
        (check_boundary_zeros, 1.0),
        (check_transversality, 1.0),
        (check_fd_divergence, tighten),
        (check_fd_divergence_rate, 1.0),
        (check_bulk_mean_square, tighten),
        (check_boundary_mean_squares, tighten),
        (check_curl_consistency, 1.0),
        (check_sigma_negative, 1.0),
        (lambda: check_sigma_oracle(sigma_factor), tighten),
        (check_sigma_direction_independence, tighten),
        (check_sigma_plate_symmetry, tighten),
        (check_az_cancellation, 1.0),
        (check_bernoulli_generating_function, 1.0),
        (check_route_agreement, tighten),
        (check_asymptotic_split, 1.0),
        (check_divergent_coefficient_stability, 1.0),
        (check_finite_part_scaling, 1.0),
    )

    def run(entry):
        check, factor = entry
        result = check()
        return result._replace(bound=result.bound * factor)

    return [run(entry) for entry in checks]
