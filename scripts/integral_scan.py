#!/usr/bin/env python3
"""Scan the hook-scaled (integral) forms over desk-scale partitions.

For each partition and variable count within the bounds, print the hook
product c_lam of the ordinary diagram, the term count of the hook-scaled
symmetric polynomial, and whether the coefficient-integrality checks pass
for the shape and for every type rearranging it.

Example:
    PYTHONPATH=src python3 scripts/integral_scan.py --max-n 3 --max-size 4
"""

import argparse

from macdonald_interp.compositions import arrangements, partitions_upto
from macdonald_interp.scalars import SYMBOLIC
from macdonald_interp.tableaux import (
    J_star,
    classical_hook,
    integrality_check,
    integrality_check_asep,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-size", type=int, default=4)
    args = parser.parse_args()

    header = (f"{'lambda':<14}{'n':>3}{'terms':>7}{'symmetric':>11}"
              f"{'types':>7}  hook")
    print(header)
    print("-" * len(header))
    for n in range(2, args.max_n + 1):
        for lam in partitions_upto(args.max_size, n):
            if not any(lam):
                continue
            poly = J_star(lam, n, SYMBOLIC)
            symmetric_ok = integrality_check(lam, n, SYMBOLIC)
            type_results = [
                integrality_check_asep(mu, SYMBOLIC)
                for mu in arrangements(lam)
            ]
            types = f"{sum(type_results)}/{len(type_results)}"
            hook = classical_hook(lam, SYMBOLIC)
            print(f"{str(lam):<14}{n:>3}{len(poly.terms):>7}"
                  f"{'ok' if symmetric_ok else 'FAIL':>11}"
                  f"{types:>7}  {hook}")


if __name__ == "__main__":
    main()
