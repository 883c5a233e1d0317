"""Compositions, partitions, and the combinatorial bookkeeping around them.

Compositions are tuples of nonnegative ints (weak compositions); signed
compositions allow negative entries.  This module has the evaluation-point
machinery (the spectral vector a composition is tested against), the
word of adjacent swaps that carries a composition to a rearrangement
(`swap_word`: the Hecke words from a partition to a composition and from
a packed composition to its unpacked one), and the statistic of the
shape-permuting operators.
"""

from __future__ import annotations

from itertools import permutations as iter_permutations


# ---------------------------------------------------------------------------
# basic shapes
# ---------------------------------------------------------------------------


def is_partition(mu):
    return all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))

def fit_partition(lam, n):
    """lam as n parts: zero parts dropped, then zeros padded.  Raises
    ValueError unless lam is a partition of at most n nonzero parts."""
    if not is_partition(lam):
        raise ValueError("index must be a partition")
    parts = tuple(p for p in lam if p)
    if len(parts) > n:
        raise ValueError("partition longer than variable count")
    return parts + (0,) * (n - len(parts))

def sort_desc(mu):
    return tuple(sorted(mu, reverse=True))

def absolute(alpha):
    """Entrywise absolute value of a signed composition."""
    return tuple(abs(a) for a in alpha)

def minus_one(mu):
    """Decrement every positive part: (mu_i - 1)+ entrywise."""
    return tuple(max(m - 1, 0) for m in mu)

def support(mu):
    return frozenset(i for i, m in enumerate(mu) if m > 0)

def is_packed(mu):
    """True when the nonzero parts occupy an initial run of columns."""
    seen_zero = False
    for m in mu:
        if m == 0:
            seen_zero = True
        elif seen_zero:
            return False
    return True


def compositions_of(d, n):
    """All weak compositions of d into n parts."""
    if n == 0:
        if d == 0:
            yield ()
        return
    for first in range(d + 1):
        for rest in compositions_of(d - first, n - 1):
            yield (first,) + rest


def compositions_upto(d, n):
    for k in range(d + 1):
        yield from compositions_of(k, n)


def partitions_of(d, max_parts=None, max_part=None):
    """Partitions of d as weakly decreasing tuples."""
    if max_part is None:
        max_part = d
    if max_parts is None:
        max_parts = d
    if d == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(d, max_part), 0, -1):
        for rest in partitions_of(d - first, max_parts - 1, first):
            yield (first,) + rest


def partitions_upto(d, n):
    """Partitions of size <= d with at most n parts, padded to length n."""
    for k in range(d + 1):
        for lam in partitions_of(k, max_parts=n):
            yield lam + (0,) * (n - len(lam))


def arrangements(mu):
    """Distinct rearrangements of mu."""
    return sorted(set(iter_permutations(mu)))


def conjugate(lam):
    """Conjugate partition (zeros dropped)."""
    lam = [p for p in lam if p > 0]
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, max(lam) + 1))


# ---------------------------------------------------------------------------
# evaluation points
# ---------------------------------------------------------------------------


def k_stat(mu):
    """k_i = #{j<i : mu_j > mu_i} + #{j>i : mu_j >= mu_i} for each i."""
    n = len(mu)
    return tuple(
        sum(1 for j in range(i) if mu[j] > mu[i])
        + sum(1 for j in range(i + 1, n) if mu[j] >= mu[i])
        for i in range(n)
    )


def tilde_point(mu, ctx):
    """The spectral point of mu: coordinate i is q^{mu_i} t^{-k_i}."""
    ks = k_stat(mu)
    return tuple(ctx.qt(m, -k) for m, k in zip(mu, ks))


# ---------------------------------------------------------------------------
# words of adjacent swaps
# ---------------------------------------------------------------------------


def swap_word(start, target):
    """The adjacent swaps that carry `start` to its rearrangement `target`,
    equal entries keeping their order, as 1-based indices in application
    order.  Each step swaps the leftmost neighbouring pair whose
    destinations are out of order, so the word is reduced.  Raises
    ValueError unless `target` rearranges `start`.
    """
    if sorted(start) != sorted(target):
        raise ValueError(f"{tuple(target)} does not rearrange {tuple(start)}")
    slots = {}
    for j, v in enumerate(target):
        slots.setdefault(v, []).append(j)
    dest = [slots[v].pop(0) for v in start]
    word = []
    while True:
        i = next((i for i in range(len(dest) - 1) if dest[i] > dest[i + 1]),
                 None)
        if i is None:
            return tuple(word)
        dest[i], dest[i + 1] = dest[i + 1], dest[i]
        word.append(i + 1)


# ---------------------------------------------------------------------------
# shape-permuting statistics
# ---------------------------------------------------------------------------


def r_stat(nu, i):
    """#{j<i : nu_{i+1} < nu_j <= nu_i} + #{j>i : nu_{i+1} <= nu_j < nu_i}
    for a composition with nu_i > nu_{i+1}; i is 1-based and the second
    count includes j = i+1 (so r_stat >= 1)."""
    a, b = nu[i - 1], nu[i]
    if a <= b:
        raise ValueError("r_stat needs nu_i > nu_{i+1}")
    left = sum(1 for j in range(i - 1) if b < nu[j] <= a)
    right = sum(1 for j in range(i, len(nu)) if b <= nu[j] < a)
    return left + right


# ---------------------------------------------------------------------------
# signed compositions
# ---------------------------------------------------------------------------


def signed_variants(mu):
    """All sign choices on the nonzero parts of mu."""
    out = [()]
    for m in mu:
        if m == 0:
            out = [o + (0,) for o in out]
        else:
            out = [o + (m,) for o in out] + [o + (-m,) for o in out]
    return sorted(out)


def flip_pair(alpha, i):
    """Negate entries i, i+1 (1-based i)."""
    out = list(alpha)
    out[i - 1] = -out[i - 1]
    out[i] = -out[i]
    return tuple(out)


def swap_pair(alpha, i):
    out = list(alpha)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)
