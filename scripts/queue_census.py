#!/usr/bin/env python3
"""Census of signed multiline queues by type.

For every type within the bounds, report the number of queues (equals the
number of typed tableaux through the strand bijection), how the count
splits by number of signed rows actually used, and the monomial support
size of the resulting polynomial.  Optionally prints one sample queue.

Example:
    PYTHONPATH=src python3 scripts/queue_census.py --max-n 3 --max-size 3 \\
        --sample 0,2
"""

import argparse
import collections

from macdonald_interp.compositions import compositions_of, sort_desc
from macdonald_interp.interpolation import f_star
from macdonald_interp.queues import enumerate_smlq
from macdonald_interp.render import queue_text
from macdonald_interp.scalars import SYMBOLIC
from macdonald_interp.tableaux import enumerate_tableaux_typed


def census_row(mu):
    queues = list(enumerate_smlq(mu))
    tabs = enumerate_tableaux_typed(sort_desc(mu), mu)
    by_height = collections.Counter(len(Q.rows) for Q in queues)
    support = len(f_star(mu, SYMBOLIC).terms)
    heights = " ".join(f"{h}r:{c}" for h, c in sorted(by_height.items()))
    return len(queues), len(tabs), support, heights


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-size", type=int, default=3)
    parser.add_argument("--sample", default=None,
                        help="Also print every queue of this type, e.g. 0,2.")
    args = parser.parse_args()

    header = (f"{'type':<14}{'queues':>8}{'tableaux':>10}{'terms':>8}"
              f"  rows used")
    print(header)
    print("-" * len(header))
    for n in range(2, args.max_n + 1):
        for d in range(args.max_size + 1):
            for mu in compositions_of(d, n):
                queues, tabs, support, heights = census_row(mu)
                flag = "" if queues == tabs else "  MISMATCH"
                print(f"{str(mu):<14}{queues:>8}{tabs:>10}{support:>8}"
                      f"  {heights}{flag}")

    if args.sample:
        mu = tuple(int(p) for p in args.sample.split(","))
        print(f"\nqueues of type {mu}:")
        for Q in enumerate_smlq(mu):
            print(queue_text(Q))
            print(f"  weight: {Q.weight(SYMBOLIC)}\n")


if __name__ == "__main__":
    main()
