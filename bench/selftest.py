"""Self-test of the benchmark's output checks: they must be able to fail.

Run from the repository root:

    python3 bench/selftest.py

It runs a few ``casimir`` calls through the same runner and checker as the
benchmark and shows that

* ``verify --json`` passes and ``verify --inject-fault --json`` is counted
  as a failure;
* a ``force`` row of every route passes against the reference and is
  counted as a failure against the reference scaled by 1 + 1e-6;
* a call that exits non-zero (``force --a 0``) is counted as a failure.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from decimal import Decimal

from checks import OutputChecker, force_reference
from run import run_child

PERTURBATION = 1e-6


def main() -> int:
    exact = OutputChecker()
    perturbed = OutputChecker(
        lambda a, lam: force_reference(a, lam) * (1 + Decimal(PERTURBATION)))
    cases = [
        (["verify", "--json"], exact, True),
        (["verify", "--inject-fault", "--json"], exact, False),
        (["force", "--a", "0", "--lambda", "0.1", "--json"], exact, False),
    ]
    for route in ("closed_form", "numeric_sum", "series"):
        argv = ["force", "--a", "0.9", "--lambda", "0.05", "--route", route,
                "--json"]
        cases += [(argv, exact, True), (argv, perturbed, False)]

    failures = 0
    for argv, checker, expect_ok in cases:
        child = run_child(["-m", "casimir_plates.cli", *argv])
        outcome = checker.check(argv, child.returncode, child.stdout,
                                child.stderr)
        label = "exact" if checker is exact else "perturbed"
        good = outcome.ok == expect_ok
        failures += not good
        print(f"{'PASS' if good else 'FAIL'} {' '.join(argv)} [{label} "
              f"reference]: counted as {'passed' if outcome.ok else 'failed'}"
              + (f" ({outcome.reason[:120]})" if outcome.reason else ""))
    print(f"selftest: {len(cases) - failures}/{len(cases)} expectations hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
