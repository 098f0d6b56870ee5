#!/usr/bin/env python3
"""Scan the regulated force in the cutoff and watch the finite part emerge.

For each lambda on a log grid the script prints the full regularized force,
the value left after subtracting the lambda^-4 pole, and the distance of
that remainder from pi^2 hbar c / (240 a^4).  The last column shrinking
like lambda^2 is the whole story of the regularization: everything the
cutoff added goes away, the a^-4 attraction stays.

Example:
    python3 scripts/cutoff_scan.py --a 1.0 --points 12
"""

import argparse
import math

import numpy as np

from casimir_plates import regsum
from casimir_plates.units import NATURAL


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=float, default=1.0, help="plate separation")
    parser.add_argument("--ratio-min", type=float, default=0.02,
                        help="smallest lambda pi / a")
    parser.add_argument("--ratio-max", type=float, default=0.5,
                        help="largest lambda pi / a")
    parser.add_argument("--points", type=int, default=10)
    args = parser.parse_args()

    a = args.a
    finite = regsum.casimir_closed_form(a, NATURAL)
    pole, _ = regsum.asymptotic_parts(a, NATURAL)

    print(f"# a = {a:g}, finite part pi^2/(240 a^4) = {finite:.12g}")
    print(f"# pole coefficient (a-independent)     = {pole:.12g}")
    print(f"{'lambda':>14} {'F(a,lambda)':>18} {'F - pole term':>18} "
          f"{'rel dist to finite':>20}")
    ratios = np.geomspace(args.ratio_min, args.ratio_max, args.points)
    for ratio in ratios:
        lam = ratio * a / math.pi
        force = regsum.decompose(a, regsum.Regulator(lam), NATURAL)
        subtracted = force.total - force.divergent_part
        distance = abs(subtracted - finite) / finite
        print(f"{lam:14.6e} {force.total:18.10e} {subtracted:18.10e} "
              f"{distance:20.3e}")

    fit = regsum.extract_finite_part(a, regsum.default_lambda_grid(a), NATURAL)
    print(f"# least-squares fit over the default grid:")
    print(f"#   finite part  {fit.finite_part:.12g}  "
          f"(rel err {abs(fit.finite_part - finite) / finite:.3e})")
    print(f"#   pole coeff   {fit.divergent_coefficient:.12g}  "
          f"(rel err {abs(fit.divergent_coefficient - pole) / abs(pole):.3e})")


if __name__ == "__main__":
    main()
