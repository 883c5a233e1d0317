"""Workload definitions: the requests each workload sends, from its seed.

Nothing here imports the package under test.  The index helpers
(compositions, partitions, rearrangements, sign patterns, spectral
statistics) are the benchmark's own, so the output checks in `checks.py`
do not lean on the program to decide what a correct answer is.

A request is a JSON-friendly tuple whose first entry names the call:

    ("E*", mu)            interpolation.solve_E_star(mu, Q(q,t))
    ("f*", mu)            interpolation.f_star(mu, Q(q,t))
    ("P*", lam, n)        interpolation.solve_P_star(lam, n, Q(q,t))
    ("e*", k, n)          interpolation.e_star_k(k, n, Q(q,t))
    ("F*", mu)            queues.F_star(mu, ctx)
    ("T", mu)             tableaux.tableaux_sum_typed(mu, ctx)
    ("a", mu)             {nu: queues.a_coeff(nu, mu, ctx)}
                          for nu in classic_tops(mu)
    ("G", mu)             {alpha: queues.g_coeff(alpha, mu, ctx)}
                          for alpha in signed_tops(mu)
    ("b", mu)             hecke.unpack_coeffs(mu, ctx)
    ("suite", name, max_n, max_size)
                          one verify suite; every report is one operation
"""

import json
import random
from itertools import permutations

WORKLOADS = ("solve-symbolic", "queues-specialized", "queues-symbolic",
             "verify-suites")

# Sizes fixed so that one round (one fresh process answering every request
# once) takes a few seconds here: the symbolic n = 3 family at size 4 alone
# takes about 38 s, and the specialized n = 4 sums at size 4 about 24 s.
# Specialized rounds are kept short so that a run averages over several
# rational points, whose heights change the cost of every operation.
FULL = {
    "solve-symbolic": {"nonsym": {2: 4, 3: 3}, "sym": {2: 3, 3: 3}},
    "queues-specialized": {"types": {3: 3, 4: 3}},
    "queues-symbolic": {"types": {2: 3, 3: 3}},
    # packed-recursion runs at size 3: its default size 4 forces the
    # symbolic n = 3 family to size 4 (about 41 s in a fresh process).
    "verify-suites": {"suites": [
        ("golden-example", 2, 2),
        ("counts", 2, 2),
        ("weight-golden", 8, 10),
        ("hecke-relations", 4, 4),
        ("hecke-action", 3, 3),
        ("packed-recursion", 3, 3),
        ("decomposition", 3, 3),
        ("twoline-recursion", 4, 4),
        ("factorization-q1", 3, 4),
    ]},
}

# The same workloads shrunk to a fraction of a second, for the tests.
TINY = {
    "solve-symbolic": {"nonsym": {2: 2, 3: 1}, "sym": {2: 2, 3: 1}},
    "queues-specialized": {"types": {3: 2}},
    "queues-symbolic": {"types": {2: 2}},
    "verify-suites": {"suites": [
        ("golden-example", 2, 2),
        ("counts", 2, 2),
        ("twoline-recursion", 2, 2),
    ]},
}


# ---------------------------------------------------------------------------
# index helpers
# ---------------------------------------------------------------------------


def compositions_upto(d, n):
    """Weak compositions with n parts and size at most d, by size."""
    def of(s, k):
        if k == 1:
            yield (s,)
            return
        for first in range(s + 1):
            for rest in of(s - first, k - 1):
                yield (first,) + rest

    return [mu for s in range(d + 1) for mu in of(s, n)]


def partitions_upto(d, n):
    """Partitions of size at most d with at most n parts, padded to n."""
    return sorted({tuple(sorted(mu, reverse=True))
                   for mu in compositions_upto(d, n)},
                  key=lambda lam: (sum(lam), tuple(-v for v in lam)))


def arrangements(mu):
    return sorted(set(permutations(mu)))


def signed_variants(mu):
    """Every sign choice on the nonzero entries of mu."""
    out = [()]
    for m in mu:
        out = [o + (s * m,) for o in out for s in ((1, -1) if m else (1,))]
    return sorted(out)


def signed_tops(mu):
    """Every signed top row over mu: the signed rearrangements of its
    parts, the index set of the b table of mu."""
    return [alpha for nu in arrangements(sorted(mu, reverse=True))
            for alpha in signed_variants(nu)]


def classic_tops(mu):
    """Every classic top row over mu: the rearrangements of its parts
    >= 2, padded with zeros."""
    big = tuple(v for v in sorted(mu, reverse=True) if v >= 2)
    return arrangements(big + (0,) * (len(mu) - len(big)))


def k_stat(mu):
    """k_i = #{j < i : mu_j > mu_i} + #{j > i : mu_j >= mu_i}."""
    n = len(mu)
    return tuple(
        sum(1 for j in range(i) if mu[j] > mu[i])
        + sum(1 for j in range(i + 1, n) if mu[j] >= mu[i])
        for i in range(n))


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def _solve_symbolic(b):
    reqs = []
    for n, d in b["nonsym"].items():
        for mu in compositions_upto(d, n):
            reqs += [("E*", mu), ("f*", mu)]
    for n, d in b["sym"].items():
        reqs += [("P*", lam, n) for lam in partitions_upto(d, n)]
        reqs += [("e*", k, n) for k in range(min(n, d) + 1)]
    return reqs


def _queues_specialized(b):
    return [(kind, mu) for n, d in b["types"].items()
            for mu in compositions_upto(d, n) for kind in ("F*", "T")]


def _queues_symbolic(b):
    return [(kind, mu) for n, d in b["types"].items()
            for mu in compositions_upto(d, n)
            for kind in ("F*", "T", "b", "G", "a")]


def _verify_suites(b):
    return [("suite",) + tuple(s) for s in b["suites"]]


_REQUESTS_OF = {
    "solve-symbolic": _solve_symbolic,
    "queues-specialized": _queues_specialized,
    "queues-symbolic": _queues_symbolic,
    "verify-suites": _verify_suites,
}


# Within one size, requests arrive kind by kind in this order, so the same
# kind of request always pays for work that several kinds memoize.
KINDS = ("E*", "f*", "P*", "e*", "F*", "T", "b", "G", "a", "suite")


def size(req):
    """Total degree of a request: |mu| for the polynomial families and
    the two-row tables, k for e*_k, the size bound for a suite."""
    kind = req[0]
    if kind == "suite":
        return req[3]
    if kind == "e*":
        return req[1]
    return sum(req[1])


def requests(workload, round_seed, bounds=None):
    """The requests of one round, in the order fixed by its seed.

    Requests arrive by size and, within a size, kind by kind, as from a
    client tabulating the families; the seed permutes the requests of equal
    size and kind.  In a fully random order the first request of each
    variable count would solve its whole memoized family, so the latency
    quantiles would measure the permutation more than the program."""
    if bounds is None:
        bounds = FULL[workload]
    reqs = _REQUESTS_OF[workload](bounds)
    random.Random(round_seed).shuffle(reqs)
    reqs.sort(key=lambda req: (size(req), KINDS.index(req[0])))
    return reqs


def round_seed(seed, k):
    """Seed of round k of a run with the given workload seed."""
    return random.Random(f"{seed}/{k}").getrandbits(31)


def key(req):
    """Stable text key of a request (also used for the traced-op id)."""
    return json.dumps(req, separators=(",", ":"))
