"""Multiline queues, their signed variants, and the generating sums.

A queue of type mu (a composition with n columns) stacks rows of balls:

* homogeneous queues: rows 1..L bottom up (L = largest part), row r holding
  one ball labeled a for every part a >= r of sort(mu), row 1 placed as mu.
* signed queues: rows 1, 1', 2, 2', ..., L, L' bottom up; row r and row r'
  hold the same multiset; primed rows carry signs on their balls.

Placement rules (upper ball over the column below it):
* classic rows: a ball labeled a sits over an empty column or a ball of
  absolute label >= a; equality forces a trivial pairing.
* primed rows: a positive ball +a sits over a ball of label >= a (equality
  forces the trivial pairing); a negative ball -a sits over an empty column
  or a ball of label <= a.

Pairings go layer by layer: each primed row r' pairs its balls bijectively
per absolute label with row r below, never wrapping (partner column >=
ball column); each classic row r pairs per label with row (r-1)' below,
wrapping allowed.

The row plan states this structure once: `_signed_rows(mu)` lists the rows
of a signed queue above its bottom row as (primed, contents, r), that is
1', 2, 2', ..., L', and `_classic_rows(mu)` lists rows 2, ..., L of a
homogeneous queue.  Enumeration (`_stack`), the row walk (`F_star`,
`F_hom`) and the per-queue weights (`weight_parts`) all read it.

Weights: the balls of primed row r' contribute `_primed_factor`: x_i for a
positive ball at column i and -q^(r-1)/t^(n-1) for a negative one;
classic-row balls contribute nothing (in homogeneous queues every ball
contributes x_i).  Nontrivial classic pairings from row r with label a
contribute (1-t) t^skipped / (1 - q^(a-r+1) t^free), times q^(a-r+1) when
they wrap, where free counts the not-yet-matched lower balls at placement
time and skipped counts the free balls strictly between ball and partner.
Labels are placed downward, trivial pairs first, then the nontrivial ones
right to left: by their own column (the original order) or by the top
column of their strand, `tops` (the strand order).  Nontrivial primed
pairings contribute +-(1-t) t^(skipped+empty) with the sign of the upper
ball; their skipped/empty counts are position-static.

A queue's weight is a product of factors that each read one layer (two
adjacent rows and their matching) or one primed row.  So the generating
sums F*_mu (`F_star`) and F_mu (`F_hom`) are built row by row, a product of
transfer matrices indexed by rows: the state maps each top row to the sum
of the weights of the partial queues below it, and each step multiplies in
a memoized layer sum over matchings (`signed_layer_sum`,
`classic_layer_sum`).  The orbit sums Z*_lam and Z_lam add these over the
arrangements of lam.  No queue is listed or weighed on the way; the
per-queue enumeration (`enumerate_smlq`, `enumerate_mlq`, `weight_parts`)
remains for listing, counting and the bijection and order checks.

Two-row specializations give scalar transition coefficients: `a_coeff`
(classic, bottom 1s left unpaired) and `g_coeff` (signed, in Z[t]), the
layer sums of row 2 over row 1 and of row 1' over row 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product
from operator import add

from .compositions import absolute, arrangements, fit_partition, sort_desc
from .xpoly import XPoly


# ---------------------------------------------------------------------------
# row placement
# ---------------------------------------------------------------------------


def multiset_placements(values, n):
    """All ways to place the labels `values` into n columns (0 = empty)."""
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    distinct = sorted(counts.items(), reverse=True)

    def rec(k, free_cols):
        if k == len(distinct):
            yield ()
            return
        v, m = distinct[k]
        for pos in combinations(free_cols, m):
            rest = tuple(c for c in free_cols if c not in pos)
            for tail in rec(k + 1, rest):
                yield tuple((p, v) for p in pos) + tail

    for placed in rec(0, tuple(range(n))):
        row = [0] * n
        for c, v in placed:
            row[c] = v
        yield tuple(row)


def classic_sits(arr, lower):
    """Every ball of arr sits over an empty column or abs label >= its own."""
    return all(
        v == 0 or lower[c] == 0 or abs(lower[c]) >= v
        for c, v in enumerate(arr)
    )


def signed_sign_options(col_label, lower_val):
    """Allowed signs for a primed ball of this label over lower_val."""
    opts = []
    if lower_val >= col_label:
        opts.append(1)
    if lower_val == 0 or lower_val <= col_label:
        opts.append(-1)
    return opts


def signed_sits(alpha, lower):
    """Every signed ball of alpha sits over lower by the primed rules."""
    for v, w in zip(alpha, lower):
        if v and (1 if v > 0 else -1) not in signed_sign_options(abs(v), w):
            return False
    return True


def classic_row_arrangements(values, lower, n):
    for arr in multiset_placements(values, n):
        if classic_sits(arr, lower):
            yield arr


def signed_row_arrangements(values, lower, n):
    """Signed placements of `values` over a classic row, per the primed
    sitting rules."""
    for arr in multiset_placements(values, n):
        yield from product(*(
            [s * v for s in signed_sign_options(v, w)] if v else (0,)
            for v, w in zip(arr, lower)))


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


def _label_pairings(ups, lows, forced):
    """The pairings of one label's balls (columns `ups`) with its partners
    (columns `lows`), as dicts: each ball in `forced` pairs with its own
    column, and the others biject onto the remaining partners."""
    free = [j for j in ups if j not in forced]
    avail = [k for k in lows if k not in forced]
    if len(free) != len(avail):
        return []
    return [{**{j: j for j in forced}, **dict(zip(free, perm))}
            for perm in permutations(avail)]


def _merge(choices):
    """One matching per choice of a pairing for each label, the first
    label varying fastest."""
    for combo in product(*reversed(choices)):
        m = {}
        for part in reversed(combo):
            m.update(part)
        yield m


def classic_matchings(upper, lower):
    """All pairings of a classic row over a primed (or classic) row.

    For each label a in the upper row, its balls pair bijectively with the
    lower balls of absolute label a; sitting on absolute label a forces the
    trivial pairing; wrapping is allowed.  Lower balls of labels absent
    above stay unpaired.  Yields {upper_col: lower_col} (1-based).
    """
    choices = []
    for a in sorted({v for v in upper if v}, reverse=True):
        ups = [j for j, v in enumerate(upper, 1) if v == a]
        choices.append(_label_pairings(
            ups, [k for k, v in enumerate(lower, 1) if abs(v) == a],
            [j for j in ups if abs(lower[j - 1]) == a]))
    yield from _merge(choices)


def signed_matchings(upper, lower):
    """All pairings of a primed row over the classic row below.

    Per absolute label, upper balls pair bijectively with lower balls,
    never wrapping (partner column >= ball column); a positive ball sitting
    on its own label is forced to pair trivially.
    """
    choices = []
    for a in sorted({abs(v) for v in upper if v}, reverse=True):
        ups = [j for j, v in enumerate(upper, 1) if abs(v) == a]
        pairings = _label_pairings(
            ups, [k for k, v in enumerate(lower, 1) if v == a],
            [j for j in ups if upper[j - 1] > 0 and lower[j - 1] == a])
        choices.append([m for m in pairings
                        if all(k >= j for j, k in m.items())])
    yield from _merge(choices)


# ---------------------------------------------------------------------------
# layer weights
# ---------------------------------------------------------------------------


def _cyclic_window(j, k, n):
    """Columns strictly between j and k moving rightward (wrapping)."""
    if j < k:
        return range(j + 1, k)
    return [c for c in range(j + 1, n + 1)] + [c for c in range(1, k)]


def signed_layer_weight(upper, lower, matching, ctx):
    """Product of pairing weights of one primed-over-classic layer.

    Static: a nontrivial pairing j -> k of absolute label a contributes
    +-(1-t) t^(skipped+empty), skipped counting lower balls in (j,k) of
    smaller label or of label a whose own ball sits left of j, empty
    counting empty columns in (j,k).
    """
    inv = {w: j for j, w in matching.items()}
    total = ctx.one
    one_minus_t = ctx.binom(0, 1)
    for j, k in matching.items():
        if k == j:
            continue
        a = abs(upper[j - 1])
        skipped = empty = 0
        for m in range(j + 1, k):
            c = lower[m - 1]
            if c == 0:
                empty += 1
            elif c < a or (c == a and inv[m] < j):
                skipped += 1
        w = one_minus_t * ctx.qt(0, skipped + empty)
        if upper[j - 1] < 0:
            w = -w
        total = total * w
    return total


def classic_layer_weight(upper, lower, matching, r, ctx, tops=None):
    """Product of pairing weights of one classic layer with upper row r.

    Processes labels downward.  Within a label the trivial pairings are
    marked first, then the nontrivial ones from right to left: by the ball's
    column j, or by tops[j] when `tops` is given (the top column of the
    strand through the ball at column j, the strand order).  A nontrivial
    pairing j -> k of label a contributes
    (1-t) t^skipped / (1 - q^(a-r+1) t^free), and q^(a-r+1) when k < j.
    """
    n = len(upper)
    key = None if tops is None else tops.__getitem__
    matched = set()
    total = ctx.one
    one_minus_t = ctx.binom(0, 1)
    for a in sorted({v for v in upper if v}, reverse=True):
        ups = [j for j in range(1, n + 1) if upper[j - 1] == a]
        matched.update(j for j in ups if matching[j] == j)
        nontrivial = sorted((j for j in ups if matching[j] != j),
                            key=key, reverse=True)
        e = a - r + 1
        for j in nontrivial:
            k = matching[j]
            free_cols = {
                m for m in range(1, n + 1)
                if lower[m - 1] != 0 and m not in matched
            }
            skipped = sum(1 for m in _cyclic_window(j, k, n) if m in free_cols)
            w = one_minus_t * ctx.qt(0, skipped) / ctx.binom(e, len(free_cols))
            if k < j:
                w = w * ctx.qt(e, 0)
            total = total * w
            matched.add(k)
    return total


# ---------------------------------------------------------------------------
# queues
# ---------------------------------------------------------------------------


def row_multisets(lam):
    """Row contents for shape lam: row r holds every part >= r."""
    lam = [p for p in lam if p > 0]
    L = lam[0] if lam else 0
    return [tuple(p for p in lam if p >= r) for r in range(1, L + 1)]


def _signed_rows(mu):
    """The rows of a signed queue of type mu above its bottom row, bottom
    up, as (primed, contents, r): rows 1', 2, 2', ..., L'."""
    return [(primed, values, r)
            for r, values in enumerate(row_multisets(sort_desc(mu)), 1)
            for primed in (False, True) if primed or r > 1]


def _classic_rows(mu):
    """The rows of a homogeneous queue of type mu above its bottom row,
    bottom up, as (False, contents, r): rows 2, ..., L."""
    return [(False, values, r)
            for r, values in enumerate(row_multisets(sort_desc(mu)), 1)
            if r > 1]


def _balls(row):
    """Exponent vector with x_c for each positive ball of row."""
    return tuple(1 if v > 0 else 0 for v in row)


def _primed_factor(row, r, ctx):
    """The balls of primed row r' as (exponents, scalar): x_c for each
    positive ball at column c, -q^(r-1)/t^(n-1) for each negative ball."""
    k = sum(1 for v in row if v < 0)
    if not k:
        return _balls(row), ctx.one
    return _balls(row), ctx.qt(k * (r - 1), -k * (len(row) - 1), (-1) ** k)


@dataclass(frozen=True)
class SignedQueue:
    """Rows bottom-up 1, 1', 2, 2', ..., L, L' with per-layer matchings.

    rows[i] is a tuple of (signed) labels per column; matchings[i] pairs
    rows[i+1] (upper) into rows[i] (lower) as a tuple of (upper_col,
    lower_col) pairs.
    """

    n: int
    rows: tuple
    matchings: tuple

    def strands(self):
        """Maps ball -> strand and strand data, one strand per part.

        Returns (strand_of, tops) where strand_of[(row_idx, col)] is the
        0-based strand index (parts sorted decreasingly, equal sizes taking
        top balls right to left) and tops[row_idx][col] is the top-row
        column of that ball's strand.
        """
        lam = sort_desc([abs(v) for v in self.rows[0] if v])
        strand_of = {}
        tops = [{} for _ in self.rows]
        # group strands by part size, largest first; within a size, top
        # balls right to left
        c = 0
        for a in dict.fromkeys(lam):
            top_idx = 2 * a - 1
            top_cols = sorted(
                (j for j, v in enumerate(self.rows[top_idx], 1) if abs(v) == a),
                reverse=True,
            )
            for j in top_cols:
                col = j
                for idx in range(top_idx, -1, -1):
                    strand_of[(idx, col)] = c
                    tops[idx][col] = j
                    if idx > 0:
                        col = dict(self.matchings[idx - 1])[col]
                c += 1
        return strand_of, tops

    def weight_parts(self, ctx, order="original"):
        """(exponents, scalar) of the weight: the primed balls' factors
        times every layer's pairing weights, the classic pairings placed
        in the "original" or the "strand" order."""
        if order not in ("original", "strand"):
            raise ValueError(f"unknown pairing order {order!r}")
        tops = self.strands()[1] if order == "strand" else None
        exps = (0,) * self.n
        total = ctx.one
        for idx, (primed, _, r) in enumerate(_signed_rows(self.rows[0]), 1):
            upper, lower = self.rows[idx], self.rows[idx - 1]
            m = dict(self.matchings[idx - 1])
            if primed:
                balls, factor = _primed_factor(upper, r, ctx)
                exps = tuple(map(add, exps, balls))
                total = total * factor * signed_layer_weight(
                    upper, lower, m, ctx)
            else:
                total = total * classic_layer_weight(
                    upper, lower, m, r, ctx, tops and tops[idx])
        return exps, total

    def weight(self, ctx, order="original"):
        exps, scal = self.weight_parts(ctx, order=order)
        return XPoly(self.n, ctx, {exps: scal})


@dataclass(frozen=True)
class Queue:
    """Homogeneous queue: classic rows 1..L with per-layer matchings."""

    n: int
    rows: tuple
    matchings: tuple

    def weight_parts(self, ctx):
        exps = tuple(map(sum, zip(*map(_balls, self.rows))))
        total = ctx.one
        for idx, (_, _, r) in enumerate(_classic_rows(self.rows[0]), 1):
            total = total * classic_layer_weight(
                self.rows[idx], self.rows[idx - 1],
                dict(self.matchings[idx - 1]), r, ctx)
        return exps, total

    def weight(self, ctx):
        exps, scal = self.weight_parts(ctx)
        return XPoly(self.n, ctx, {exps: scal})


def _stack(mu, rows, make):
    """Every queue make(n, rows, matchings) with bottom row mu and the
    planned rows (primed, contents, r) stacked on it, bottom up."""
    n = len(mu)

    def rec(stacked, matchings):
        if len(stacked) > len(rows):
            yield make(n, tuple(stacked), tuple(matchings))
            return
        primed, values, _ = rows[len(stacked) - 1]
        lower = stacked[-1]
        if primed:
            arrs = signed_row_arrangements(values, lower, n)
            matcher = signed_matchings
        else:
            arrs = classic_row_arrangements(values, lower, n)
            matcher = classic_matchings
        for arr in arrs:
            for m in matcher(arr, lower):
                yield from rec(stacked + [arr],
                               matchings + [tuple(sorted(m.items()))])

    return rec([tuple(mu)], [])


def enumerate_smlq(mu):
    """All signed queues of type mu."""
    yield from _stack(mu, _signed_rows(mu), SignedQueue)


def enumerate_mlq(mu):
    """All homogeneous queues of type mu."""
    yield from _stack(mu, _classic_rows(mu), Queue)


# ---------------------------------------------------------------------------
# layer sums and generating sums
# ---------------------------------------------------------------------------


def _add_up(values, ctx):
    """ctx.sum of a list, without the call for fewer than two values."""
    if len(values) > 1:
        return ctx.sum(values)
    return values[0] if values else ctx.zero


@cache
def signed_layer_sum(upper, lower, ctx):
    """Sum of the signed layer weights over the matchings of a primed row
    over a classic row."""
    return _add_up([signed_layer_weight(upper, lower, m, ctx)
                    for m in signed_matchings(upper, lower)], ctx)


@cache
def classic_layer_sum(upper, lower, r, ctx):
    """Sum of the classic layer weights over the matchings of classic row r
    over the row below.  Only the absolute values of `lower` are read, so
    callers pass those and the sign variants of a primed row share one
    entry."""
    return _add_up([classic_layer_weight(upper, lower, m, r, ctx)
                    for m in classic_matchings(upper, lower)], ctx)


@cache
def _primed_steps(values, lower, r, ctx):
    """The primed rows r' of `values` over classic row `lower`, as (their
    absolute values, exponents, weight): the layer sum times the
    `_primed_factor` of the row."""
    steps = []
    for arr in signed_row_arrangements(values, lower, len(lower)):
        w = signed_layer_sum(arr, lower, ctx)
        if w:
            balls, factor = _primed_factor(arr, r, ctx)
            steps.append((absolute(arr), balls, w * factor))
    return tuple(steps)


@cache
def _classic_steps(values, lower, r, ctx):
    """The classic rows r of `values` over `lower` (unsigned), as (row, no
    exponents, weight)."""
    n = len(lower)
    steps = []
    for arr in classic_row_arrangements(values, lower, n):
        w = classic_layer_sum(arr, lower, r, ctx)
        if w:
            steps.append((arr, (0,) * n, w))
    return tuple(steps)


@cache
def _hom_steps(values, lower, r, ctx):
    """`_classic_steps` with x_c for each ball of the new row."""
    return tuple((arr, _balls(arr), w)
                 for arr, _, w in _classic_steps(values, lower, r, ctx))


def _walk(mu, exps, layers, ctx):
    """Sum over the chains of rows stacked on bottom row mu.

    Each layer is (step, values, r), and step(values, lower, r, ctx) lists
    the rows that sit on `lower` with the exponents they add and their
    weight.  The state maps each top row to {exponents: scalar}, summed
    over the chains that reach it: a product of transfer matrices indexed
    by rows.
    """
    state = {mu: {exps: ctx.one}}
    for step, values, r in layers:
        groups = {}
        for lower, poly in state.items():
            for upper, step_exps, w in step(values, lower, r, ctx):
                acc = groups.setdefault(upper, {})
                for e, c in poly.items():
                    key = tuple(map(add, e, step_exps))
                    acc.setdefault(key, []).append(c * w)
        state = {upper: _sums(acc, ctx) for upper, acc in groups.items()}
    total = {}
    for poly in state.values():
        for e, c in poly.items():
            total.setdefault(e, []).append(c)
    return XPoly(len(mu), ctx, _sums(total, ctx))


def _sums(groups, ctx):
    return {e: s for e, vs in groups.items() if (s := _add_up(vs, ctx))}


@cache
def F_star(mu, ctx):
    """Generating sum of the signed queues of type mu: rows 1', 2, 2', ...,
    L' stacked on mu one at a time."""
    layers = [(_primed_steps if primed else _classic_steps, values, r)
              for primed, values, r in _signed_rows(mu)]
    return _walk(tuple(mu), (0,) * len(mu), layers, ctx)


@cache
def F_hom(mu, ctx):
    """Generating sum of the homogeneous queues of type mu: rows 2, ..., L
    stacked on mu, every ball weighing x_c."""
    layers = [(_hom_steps, values, r) for _, values, r in _classic_rows(mu)]
    return _walk(tuple(mu), _balls(mu), layers, ctx)


def _orbit_sum(F, lam, n, ctx):
    """Sum of F(mu, ctx) over all arrangements mu of lam in n columns;
    ValueError unless lam is a partition of at most n nonzero parts."""
    total = XPoly(n, ctx)
    for mu in arrangements(fit_partition(lam, n)):
        total = total + F(mu, ctx)
    return total


def Z_star(lam, n, ctx):
    """Orbit sum of F_star over the arrangements of lam in n columns."""
    return _orbit_sum(F_star, lam, n, ctx)


def Z_hom(lam, n, ctx):
    """Orbit sum of F_hom over the arrangements of lam in n columns."""
    return _orbit_sum(F_hom, lam, n, ctx)


# ---------------------------------------------------------------------------
# two-row transition coefficients
# ---------------------------------------------------------------------------


def _a_fits(nu, mu):
    """nu has no 1s, rearranges the parts of mu that are >= 2, and sits
    legally on mu."""
    return (all(v != 1 for v in nu)
            and sort_desc([v for v in nu if v])
            == sort_desc([v for v in mu if v >= 2])
            and classic_sits(nu, mu))


def _g_fits(alpha, mu):
    """|alpha| rearranges the parts of mu, sits on mu by the signed rules,
    and has a matching: per label, the k-th unforced ball from the left
    lies at or left of the k-th unforced partner.  A coefficient without
    a matching so returns zero at once and leaves no memo entry."""
    if not (sort_desc([abs(v) for v in alpha if v])
            == sort_desc([v for v in mu if v])
            and signed_sits(alpha, mu)):
        return False
    for a in {abs(v) for v in alpha if v}:
        free = [j for j, v in enumerate(alpha)
                if abs(v) == a and not (v > 0 and mu[j] == a)]
        avail = [k for k, v in enumerate(mu)
                 if v == a and not (alpha[k] == a)]
        if any(k < j for j, k in zip(free, avail)):
            return False
    return True


def a_matchings(nu, mu):
    """The classic matchings that `a_coeff` sums."""
    return list(classic_matchings(nu, mu)) if _a_fits(nu, mu) else []


def g_matchings(alpha, mu):
    """The signed matchings that `g_coeff` sums."""
    return list(signed_matchings(alpha, mu)) if _g_fits(alpha, mu) else []


def a_coeff(nu, mu, ctx):
    """Classic two-row coefficient: top row nu (no 1s) over bottom mu.

    The classic layer sum of row 2 over mu; bottom 1s stay unpaired but
    count as free balls.
    """
    return classic_layer_sum(nu, mu, 2, ctx) if _a_fits(nu, mu) else ctx.zero


def g_coeff(alpha, mu, ctx):
    """Signed two-row coefficient: signed top row alpha over bottom mu.

    The signed layer sum of alpha over mu (a polynomial in t).
    """
    return signed_layer_sum(alpha, mu, ctx) if _g_fits(alpha, mu) else ctx.zero
