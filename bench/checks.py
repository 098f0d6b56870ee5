"""Output checks for ``casimir`` invocations.

Force values are compared with a reference computed here, independently of
the package: the geometric-series form

    F = -(pi / (2 a^3)) (1 / lambda) q (1 + q) / (1 - q)^3,  q = exp(-lambda pi / a)

(natural units, hbar c = 1) evaluated in 50-digit decimal arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable

PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")

#: Relative tolerance of each route against the reference.  The series
#: route is held to its own reported error estimate instead, plus
#: SERIES_ROUNDOFF * |F| for rounding.
ROUTE_TOLERANCE = {"closed_form": 1e-13, "numeric_sum": 1e-8}
SERIES_ROUNDOFF = 1e-14
#: divergent_part + finite_part + remainder must reproduce force_per_area
#: to this many units of the summed magnitudes.
SPLIT_TOLERANCE = 1e-14
EXTRACT_TOLERANCE = 1e-4
VERIFY_CHECKS = 17


def force_reference(a: float, lam: float) -> Decimal:
    """Regularized force per unit area in natural units, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        a_d, lam_d = Decimal(a), Decimal(lam)
        q = (-(lam_d * PI / a_d)).exp()
        return -(PI / (2 * a_d ** 3)) / lam_d * q * (1 + q) / (1 - q) ** 3


def casimir_reference(a: float) -> float:
    """pi^2 / (240 a^4), the finite part in natural units."""
    return math.pi ** 2 / (240.0 * a ** 4)


@dataclass
class Outcome:
    """What the checks found in one invocation's output."""

    ok: bool
    reason: str = ""
    #: output rows that passed the checks: force rows, or verify's check
    #: records
    rows: int = 0
    #: rows whose error_estimate is below their deviation from the reference
    estimate_under: int = 0


class CheckFailure(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


class OutputChecker:
    """Checks invocation outputs against ``reference``.

    ``reference(a, lam)`` returns the exact force as a Decimal; the
    harness self-test passes a perturbed one to show the checks can fail.
    """

    def __init__(self, reference: Callable[[float, float], Decimal]
                 = force_reference):
        self.reference = reference

    def check(self, argv: list[str], returncode: int, stdout: str,
              stderr: str) -> Outcome:
        if returncode != 0:
            return Outcome(False, f"exit code {returncode}: "
                                  f"{stderr.strip()[-200:]}")
        if "Traceback" in stderr:
            return Outcome(False, "traceback on stderr")
        try:
            document = json.loads(stdout)
            return getattr(self, "_" + argv[0])(argv, document)
        except (CheckFailure, ValueError, KeyError, TypeError) as exc:
            return Outcome(False, f"{type(exc).__name__}: {exc}")

    def _force_row(self, row: dict, a: float, lam: float, route: str,
                   outcome: Outcome) -> None:
        where = f"a={a!r} lambda={lam!r} route={route}"
        _require((row["a"], row["lambda"], row["route"]) == (a, lam, route),
                 f"row out of order, expected {where}")
        value = row["force_per_area"]
        parts = (row["divergent_part"], row["finite_part"], row["remainder"])
        estimate = row["error_estimate"]
        _require(all(math.isfinite(v) for v in (value, estimate, *parts)),
                 f"non-finite value at {where}")
        ref = self.reference(a, lam)
        deviation = float(abs(Decimal(value) - ref))
        scale = abs(float(ref))
        if route == "series":
            allowed = estimate + SERIES_ROUNDOFF * scale
        else:
            allowed = ROUTE_TOLERANCE[route] * scale
        _require(deviation <= allowed,
                 f"{where}: deviation {deviation:.3e} above {allowed:.3e}")
        split = abs(sum(parts) - value)
        _require(split <= SPLIT_TOLERANCE * sum(abs(v) for v in (value, *parts)),
                 f"{where}: split misses force_per_area by {split:.3e}")
        _require(abs(row["finite_part"] - casimir_reference(a))
                 <= 1e-13 * casimir_reference(a),
                 f"{where}: finite_part is not pi^2/(240 a^4)")
        pole = -1.0 / (math.pi ** 2 * lam ** 4)
        _require(abs(row["divergent_part"] - pole) <= 1e-13 * abs(pole),
                 f"{where}: divergent_part is not -1/(pi^2 lambda^4)")
        outcome.rows += 1
        outcome.estimate_under += estimate < deviation

    def _force(self, argv: list[str], document: dict) -> Outcome:
        _require(document["units"] == "natural", "reference is natural units")
        outcome = Outcome(True)
        self._force_row(document["row"], float(_flag(argv, "--a")),
                        float(_flag(argv, "--lambda")),
                        _flag(argv, "--route", "closed_form"), outcome)
        return outcome

    def _sweep(self, argv: list[str], document: dict) -> Outcome:
        _require(document["units"] == "natural", "reference is natural units")
        grid = [(a, lam, route)
                for a in _floats(_flag(argv, "--a"))
                for lam in _floats(_flag(argv, "--lambda"))
                for route in _flag(argv, "--routes").split(",")]
        rows = document["rows"]
        _require(len(rows) == len(grid),
                 f"{len(rows)} rows for a grid of {len(grid)}")
        outcome = Outcome(True)
        for row, (a, lam, route) in zip(rows, grid):
            self._force_row(row, a, lam, route, outcome)
        return outcome

    def _extract(self, argv: list[str], document: dict) -> Outcome:
        a = float(_flag(argv, "--a"))
        _require(document["a"] == a, "separation not echoed")
        grid = _flag(argv, "--lambda-grid")
        _require(grid is None
                 or document["lambda_grid"] == [float(v)
                                                for v in grid.split(",")],
                 "cutoff grid not echoed")
        reported = document["finite_part_rel_error"]
        measured = (abs(document["finite_part"] - casimir_reference(a))
                    / casimir_reference(a))
        _require(reported <= EXTRACT_TOLERANCE and measured <= EXTRACT_TOLERANCE,
                 f"finite part off by {measured:.3e} (reported {reported:.3e})")
        return Outcome(True)

    def _verify(self, argv: list[str], document: dict) -> Outcome:
        checks = document["checks"]
        failing = [c["name"] for c in checks if c["passed"] is not True]
        _require(document["passed"] is True and not failing,
                 f"verify failed: {failing}")
        _require(len(checks) == VERIFY_CHECKS
                 and len({c["name"] for c in checks}) == VERIFY_CHECKS,
                 f"{len(checks)} checks, expected {VERIFY_CHECKS} distinct")
        _require(document["profile"] == _flag(argv, "--profile", "default")
                 and document["units"] == _flag(argv, "--units", "natural"),
                 "profile or units not echoed")
        return Outcome(True, rows=len(checks))

    def _modes(self, argv: list[str], document: dict) -> Outcome:
        n_max = int(_flag(argv, "--n-max", "3"))
        rows = document["rows"]
        lattice = {(r["n_x"], r["n_y"], r["n_z"]) for r in rows}
        _require(len(rows) == n_max ** 3 and len(lattice) == n_max ** 3
                 and min(min(m) for m in lattice) == 1
                 and max(max(m) for m in lattice) == n_max,
                 f"{len(rows)} rows do not cover the n_max={n_max} lattice")
        for r in rows:
            _require(math.isfinite(r["sigma_zz"]) and r["sigma_zz"] < 0.0,
                     f"sigma_zz {r['sigma_zz']!r} not finite and negative")
            _require(math.isfinite(r["kappa"]), "kappa not finite")
        return Outcome(True)
