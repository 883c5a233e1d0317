#!/usr/bin/env python3
"""Benchmark the three independent routes to the interpolation family.

For every type within the bounds, time (1) the vanishing-condition solve
pushed through Hecke steps, (2) the signed-queue generating sum, and
(3) the typed tableau sum, and confirm the three polynomials agree.

Example:
    PYTHONPATH=src python3 scripts/route_benchmark.py --max-n 3 --max-size 3 \\
        --mode symbolic
"""

import argparse
import sys
import time

from macdonald_interp.compositions import compositions_of
from macdonald_interp.interpolation import f_star
from macdonald_interp.queues import F_star
from macdonald_interp.scalars import SYMBOLIC, specialized
from macdonald_interp.tableaux import tableaux_sum_typed


def context(mode, seed):
    if mode == "symbolic":
        return SYMBOLIC
    return specialized(seed, 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-size", type=int, default=3)
    parser.add_argument("--mode", choices=["symbolic", "specialized"],
                        default="symbolic")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    ctx = context(args.mode, args.seed)
    routes = [
        ("hecke", f_star),
        ("queues", F_star),
        ("tableaux", tableaux_sum_typed),
    ]
    header = f"{'type':<14}" + "".join(f"{name + ' [s]':>14}"
                                       for name, _ in routes) + f"{'agree':>8}"
    print(header)
    print("-" * len(header))
    totals = [0.0] * len(routes)
    for n in range(2, args.max_n + 1):
        for d in range(args.max_size + 1):
            for mu in compositions_of(d, n):
                values = []
                cells = []
                for k, (name, func) in enumerate(routes):
                    start = time.perf_counter()
                    values.append(func(mu, ctx))
                    dt = time.perf_counter() - start
                    totals[k] += dt
                    cells.append(f"{dt:>14.4f}")
                agree = values[0] == values[1] == values[2]
                print(f"{str(mu):<14}" + "".join(cells)
                      + f"{'yes' if agree else 'NO':>8}")
                if not agree:
                    sys.exit(1)
    print("-" * len(header))
    print(f"{'total':<14}" + "".join(f"{t:>14.4f}" for t in totals))


if __name__ == "__main__":
    main()
