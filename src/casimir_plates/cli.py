"""Command-line interface.

Subcommands:

  verify    run the self-check suite, one PASS/FAIL line per check
  force     one regularized force value with its asymptotic split
  sweep     force values over grids of separation, cutoff, and route
  extract   finite part of the force by least-squares fit in the cutoff
  modes     per-mode averaged normal stress table

Settings resolve in the order: command-line flag, CASIMIR_* environment
variable, config file (--config or CASIMIR_CONFIG, "key = value" lines),
built-in default.  Every layer computes in natural units; --units si
multiplies each pressure by hbar c in _in_units, and nowhere else.  Human
output rounds to 6 significant digits; csv and json output carry 17, enough
to round-trip doubles exactly.

Exit codes: 0 success, 1 a check or fit failed, 2 a numerical routine did
not converge or an input was rejected.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import re
import sys
from typing import Any, Callable, NoReturn, Sequence

# each command imports the layers it runs, so that start-up pays for no
# other
from .errors import IllConditionedFitError, NumericsError, PrecisionLossError

SCHEMA_VERSION = 1

HBAR_C_SI = 3.1615e-26          # J m
#: hbar c in each unit system: the factor of every printed pressure
_HBAR_C = {"natural": 1.0, "si": HBAR_C_SI}

SWEEP_COLUMNS = ("a", "lambda", "route", "force_per_area", "divergent_part",
                 "finite_part", "remainder", "error_estimate")
MODES_COLUMNS = ("n_x", "n_y", "n_z", "kappa", "sigma_zz")
#: The output fields that carry a factor hbar c: pressures, and the fit's
#: coefficients and residual
PRESSURE_FIELDS = frozenset((
    "force_per_area", "divergent_part", "finite_part", "remainder",
    "error_estimate", "divergent_coefficient", "casimir_closed_form",
    "coefficients", "residual_norm", "sigma_zz"))
#: regsum.ROUTES, spelled out so that the help text loads no layer
_ROUTE_NAMES = "closed_form,numeric_sum,series"

_DEFAULTS = {
    "units": "natural",
    "tol": "1e-10",
    "sweep_a": "1.0",
    "sweep_lambda": "0.05,0.1,0.2",
    "sweep_routes": "closed_form",
}


def _load_config(path: str | None) -> dict[str, tuple[str, str]]:
    if path is None:
        path = os.environ.get("CASIMIR_CONFIG")
    if path is None:
        return {}
    cfg: dict[str, tuple[str, str]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"expected one of {', '.join(_DEFAULTS)}")
            cfg[key] = (value, f"{path}:{lineno}: {key}")
    return cfg


def _parse(text: str, source: str, parse: Callable[[str], Any]) -> Any:
    """parse(text); a failure names the flag, variable or config line."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _setting(flag_text, key: str, cfg: dict[str, tuple[str, str]],
             parse: Callable[[str], Any]) -> Any:
    """The parsed value of the flag, CASIMIR_<KEY>, config key or default."""
    env = "CASIMIR_" + key.upper()
    if flag_text is not None:
        text, source = flag_text, "--" + key.removeprefix("sweep_")
    elif env in os.environ:
        text, source = os.environ[env], env
    else:
        text, source = cfg.get(key, (_DEFAULTS[key], "default"))
    return _parse(text, source, parse)


def _str_list(text: str) -> list[str]:
    values = [part.strip() for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def _float_list(text: str) -> list[float]:
    return [float(part) for part in _str_list(text)]


def _finite(value: float) -> float:
    """Pass a value to the output, which never carries a NaN or infinity."""
    if not math.isfinite(value):
        raise ValueError(f"refusing to print the non-finite value {value!r}")
    return value


def _fmt(value: float) -> str:
    """Machine formatting, exact double round-trip."""
    return "%.17g" % _finite(value)


def _hfmt(value: float) -> str:
    """Human formatting, 6 significant digits."""
    return "%.6g" % _finite(value)


def _print_csv(columns: Sequence[str], rows: list[dict]) -> None:
    # formatted in full before the first line goes out, so a refused value
    # leaves no partial table behind
    lines = [f"# schema_version={SCHEMA_VERSION}", ",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col)
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(_fmt(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    print("\n".join(lines))


def _unit_system(text: str) -> str:
    """The unit system named by text, in any case: 'natural' or 'si'."""
    if text.lower() in _HBAR_C:
        return text.lower()
    raise ValueError(f"unknown unit system {text!r}; expected 'natural' or 'si'")


def _in_units(fields: dict, units: str) -> dict:
    """fields with each of PRESSURE_FIELDS, computed in natural units,
    multiplied by the hbar c of units; a list is scaled entry by entry."""
    scale = _HBAR_C[units]
    return {key: value if key not in PRESSURE_FIELDS
            else [scale * v for v in value] if isinstance(value, list)
            else scale * value
            for key, value in fields.items()}


def _print_json(command: str, units: str, fields: dict) -> None:
    """One JSON document: the versioned envelope and the command's fields."""
    import json
    document = {"schema_version": SCHEMA_VERSION, "command": command,
                "units": units, **fields}
    print(json.dumps(document, indent=2, sort_keys=True, allow_nan=False))


def cmd_verify(args, cfg, units) -> int:
    from . import verify
    sigma_factor = 1.02 if args.inject_fault else 1.0
    results = verify.run_all(args.profile, sigma_factor=sigma_factor)
    if args.json:
        _print_json("verify", units, {
            "profile": args.profile,
            "passed": all(r.passed for r in results),
            "checks": [
                {"name": r.name, "residual": r.residual, "bound": r.bound,
                 "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        })
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            suffix = f"  ({r.detail})" if r.detail else ""
            print(f"{status} {r.name:<34} residual={_hfmt(r.residual):<12} "
                  f"bound={_hfmt(r.bound)}{suffix}")
        passed = sum(r.passed for r in results)
        print(f"verify: {passed}/{len(results)} checks passed "
              f"(profile={args.profile})")
    return 0 if all(r.passed for r in results) else 1


def _force_row(a: float, lam: float, route: str, units, tol: float) -> dict:
    from . import regsum
    force = regsum.decompose(a, regsum.Regulator(lam), route, tol=tol)
    return _in_units(dict(zip(SWEEP_COLUMNS, (
        a, force.lam, force.route, force.total, force.divergent_part,
        force.finite_part, force.remainder, force.error_estimate))), units)


def cmd_force(args, cfg, units) -> int:
    tol = _setting(args.tol, "tol", cfg, float)
    a = _parse(args.a, "--a", float)
    lam = _parse(args.lam, "--lambda", float)
    row = _force_row(a, lam, args.route, units, tol)
    if args.json:
        _print_json("force", units, {"row": row})
    else:
        for col in SWEEP_COLUMNS:
            value = row[col]
            text = _hfmt(value) if isinstance(value, float) else value
            print(f"{col} = {text}")
        print("(negative force_per_area: the plates attract)")
    return 0


def cmd_sweep(args, cfg, units) -> int:
    tol = _setting(args.tol, "tol", cfg, float)
    a_values = _setting(args.a, "sweep_a", cfg, _float_list)
    lam_values = _setting(args.lam, "sweep_lambda", cfg, _float_list)
    routes = _setting(args.routes, "sweep_routes", cfg, _str_list)
    # fixed emission order: separation, then cutoff, then route
    cells = list(itertools.product(a_values, lam_values, routes))

    def outcome(i: int) -> tuple[dict, str | None] | ValueError:
        """Cell i's row and the stderr line that reports its failure, if it
        failed; or its rejected input, raised below in emission order."""
        a, lam, route = cells[i]
        try:
            return _force_row(a, lam, route, units, tol), None
        except (NumericsError, PrecisionLossError) as exc:
            return ({"a": a, "lambda": lam, "route": route, "error": str(exc)},
                    f"sweep: a={a:g} lambda={lam:g} route={route}: {exc}")
        except ValueError as exc:
            return exc

    # the cells of a route with a fork key run first, over all CPUs; the
    # others take microseconds and load neither numpy nor the kernels, and
    # an unknown route runs inline, so decompose rejects it in emission order
    from . import regsum
    fork_keys = {entry.name: entry.fork_key for entry in regsum._ROUTE_TABLE
                 if entry.fork_key is not None}
    forked = sorted((i for i, cell in enumerate(cells) if cell[2] in fork_keys),
                    key=lambda i: fork_keys[cells[i][2]](*cells[i][:2]))
    done = {}
    if forked:
        from .numerics import parallel_map
        done = dict(zip(forked, parallel_map(outcome, forked)))

    rows = []
    failures = 0
    for i in range(len(cells)):
        result = done[i] if i in done else outcome(i)
        if isinstance(result, ValueError):
            raise result
        row, line = result
        rows.append(row)
        if line is not None:
            failures += 1
            print(line, file=sys.stderr)

    if args.format == "json":
        _print_json("sweep", units, {"rows": rows})
    else:
        _print_csv(SWEEP_COLUMNS, rows)
    return 2 if failures else 0


def cmd_extract(args, cfg, units) -> int:
    from . import regsum
    a = _parse(args.a, "--a", float)
    if args.lambda_grid is not None:
        grid = _parse(args.lambda_grid, "--lambda-grid", _float_list)
    else:
        grid = regsum.default_lambda_grid(a)
    result = regsum.extract_finite_part(a, grid)
    reference = regsum.casimir_closed_form(a)
    rel_error = abs(result.finite_part - reference) / reference
    document = _in_units({
        "a": a,
        "lambda_grid": grid,
        "finite_part": result.finite_part,
        "divergent_coefficient": result.divergent_coefficient,
        "casimir_closed_form": reference,
        "finite_part_rel_error": rel_error,
        "coefficients": list(result.coefficients),
        "exponents": list(regsum.BASIS_EXPONENTS),
        "residual_norm": result.residual_norm,
        "condition_estimate": result.condition_estimate,
    }, units)
    if args.json:
        _print_json("extract", units, document)
    else:
        for key in ("a", "finite_part", "casimir_closed_form",
                    "finite_part_rel_error", "divergent_coefficient",
                    "condition_estimate"):
            print(f"{key} = {_hfmt(document[key])}")
    return 0


def cmd_modes(args, cfg, units) -> int:
    from . import modes, stress
    n_max = _parse(args.n_max, "--n-max", int)
    a, big_l = _parse(args.a, "--a", float), _parse(args.big_l, "--L", float)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    geom = modes.CavityGeometry(a=a, L=big_l)
    rows = []
    for n in itertools.product(range(1, n_max + 1), repeat=3):
        mode = modes.ModeIndex(*n)
        try:
            kappa = modes.wave_vector(mode, geom).kappa
            row = _in_units(dict(zip(MODES_COLUMNS, (
                *n, kappa, stress.sigma_zz_mode(mode, geom)))), units)
            # sigma_zz is strictly negative, so -0.0 means it underflowed
            in_range = (math.isfinite(kappa)
                        and -math.inf < row["sigma_zz"] < 0.0)
        except ArithmeticError:
            in_range = False
        if not in_range:
            raise PrecisionLossError(
                f"mode {n} at a = {geom.a!r}, L = {geom.L!r}: kappa or "
                "sigma_zz leaves the double range")
        rows.append(row)
    if args.format == "json":
        _print_json("modes", units, {"a": geom.a, "L": geom.L, "rows": rows})
    else:
        _print_csv(MODES_COLUMNS, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--units", help="natural (default) or si")
    common.add_argument("--config", help="config file of 'key = value' lines")

    parser = argparse.ArgumentParser(
        prog="casimir",
        description="Casimir force between parallel plates from "
                    "cutoff-regularized cavity-mode sums")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run the self-check suite")
    p.add_argument("--profile", default="default", help="default or strict")
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb the closed-form stress inside the oracle "
                        "comparison; proves the check can fail")
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("force", parents=[common],
                       help="one regularized force value")
    p.add_argument("--a", required=True, help="plate separation")
    p.add_argument("--lambda", dest="lam", required=True, help="cutoff length")
    p.add_argument("--route", default="closed_form",
                   help=f"one of {_ROUTE_NAMES}")
    p.add_argument("--tol", default=None,
                   help="tolerance for the numeric route")
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(handler=cmd_force)

    p = sub.add_parser("sweep", parents=[common],
                       help="force values over parameter grids")
    p.add_argument("--a", default=None, help="comma-separated separations")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="comma-separated cutoff lengths")
    p.add_argument("--routes", default=None,
                   help="comma-separated routes "
                        f"(subset of {_ROUTE_NAMES})")
    p.add_argument("--tol", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("extract", parents=[common],
                       help="finite part by least-squares fit in the cutoff")
    p.add_argument("--a", required=True, help="plate separation")
    p.add_argument("--lambda-grid", default=None,
                   help="comma-separated cutoff lengths (default: a scaled "
                        "six-point grid)")
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("modes", parents=[common],
                       help="per-mode averaged normal stress table")
    p.add_argument("--n-max", default="3",
                   help="largest mode number per axis")
    p.add_argument("--a", default="1.0", help="plate separation")
    p.add_argument("--L", dest="big_l", default="1.0",
                   help="transverse box side")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_modes)

    return parser


_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Join "--a -1e-3" into "--a=-1e-3", for every long option.

    argparse reads a value such as "-1e-3", "-1,1" or "-inf" as an option,
    so it would never reach the check that names it.
    """
    joined: list[str] = []
    for token in argv:
        if (joined and re.fullmatch(r"--[\w-]+", joined[-1])
                and _NEGATIVE_VALUE.match(token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        cfg = _load_config(args.config)
        return args.handler(args, cfg, _setting(args.units, "units", cfg,
                                                _unit_system))
    except IllConditionedFitError as exc:
        print(f"casimir: fit failed: {exc}", file=sys.stderr)
        return 1
    except (NumericsError, PrecisionLossError, ArithmeticError) as exc:
        print(f"casimir: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"casimir: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The ``casimir`` script: main(), then exit without interpreter teardown.

    Output is flushed here; os._exit then skips the garbage collection and
    module teardown that a normal exit spends after the work is done.  A
    flush that fails (a closed pipe) reports one line and exits 2, as main
    does for any other OSError.

    OpenBLAS starts a pool of one thread per CPU when numpy loads; no array
    here is large enough to gain from it, and its threads spin on the CPUs
    that the workers of a numeric_sum sweep use.  So the script asks for one
    thread, unless OPENBLAS_NUM_THREADS is already set.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        code = 2
        with contextlib.suppress(OSError):
            print(f"casimir: {exc}", file=sys.stderr, flush=True)
    os._exit(code)


if __name__ == "__main__":
    run()
