"""Signed queue tableaux: column fillings in bijection with signed queues.

A partition shape lam doubles into a diagram whose i-th column stacks
2*lam_i boxes, read bottom-up in alternating levels 1, 1', 2, 2', ..., L,
L'.  A filling writes a signed position from {+-1, ..., +-n} into every
box; reading a signed queue strand by strand (longest strands first, ties
broken by the rightmost top ball) produces exactly such fillings, each
column tracing one strand's ball positions through the queue rows with
signs marking signed balls.

The filling rules mirror the queue's placement rules, and the attack rules
mirror its forbidden configurations:

* classic levels r hold positive entries, primed levels r' signed ones;
* a primed entry sits weakly under its column's entry below (pairings from
  signed rows never wrap), and a positive primed entry must reappear in the
  classic level below (a regular signed ball never floats over a gap);
* tops of equal-height columns decrease in absolute value left to right
  (the strand reading order);
* entries at the same level are distinct in absolute value, a positive
  entry also differs from every below-level entry in a weakly shorter
  column, and a negative entry differs from the below-level entries in
  strictly taller columns to its left.

Enumeration fills the diagram level by level from the bottom, each level
a tuple of entries legal over the level below.  The type of a tableau is
read off its bottom level, so the tableaux of one type come from the same
recursion with the bottom level restricted: column c only takes positions
a with mu_a = lam_c.

`tab` / `tab_inverse` realize the bijection with signed queues of the
rearranged type.  Tableau statistics (wrap counts, coinversion triples,
label gaps, restricted boxes, leg/arm) recover the queue weight without
replaying the pairing process, and a regrouped variant produces the
integral normalization whose coefficients clear denominators.  Its hook
product depends only on the shape: the multiset of (leg, arm+1) over the
primed boxes is the same for every filling.  That multiset is collected
once per (lam, n), with its constancy asserted, and each scalar context
multiplies its own factors from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .compositions import sort_desc
from .interpolation import f_star, solve_P_star
from .queues import SignedQueue
from .xpoly import XPoly


# ---------------------------------------------------------------------------
# diagrams and tableaux
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubledDiagram:
    """Bottom-justified columns, column i holding 2*lam_i boxes.

    lam keeps the positive parts only, weakly decreasing; n bounds the
    entry alphabet {+-1, ..., +-n}.  Level index idx counts box rows from
    the bottom starting at 0; even levels are classic (level 2r-2 is row r)
    and odd levels are primed (level 2r-1 is row r').
    """

    lam: tuple
    n: int

    @staticmethod
    def for_shape(lam, n):
        parts = tuple(p for p in lam if p)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"shape {tuple(lam)} is not weakly decreasing")
        if len(parts) > n or any(p < 0 for p in lam):
            raise ValueError(f"shape {tuple(lam)} does not fit {n} columns")
        return DoubledDiagram(parts, n)

    @property
    def levels(self):
        return 2 * self.lam[0] if self.lam else 0

    def width(self, idx):
        """Number of boxes at level idx (a prefix of the columns)."""
        return sum(1 for p in self.lam if 2 * p > idx)

    def boxes(self):
        return [
            (c, idx)
            for c in range(len(self.lam))
            for idx in range(2 * self.lam[c])
        ]

    @staticmethod
    def level_name(idx):
        """Bottom-up row name: even levels are classic, odd levels primed."""
        r = idx // 2 + 1
        return f"{r}'" if idx % 2 else f"{r}"


@dataclass(frozen=True)
class QueueTableau:
    """A filling of a doubled diagram, one signed entry per box.

    columns[c][idx] is the entry of column c at level idx (bottom-up).
    """

    diagram: DoubledDiagram
    columns: tuple

    def entry(self, c, idx):
        return self.columns[c][idx]

    def row_entries(self, idx):
        """Entries across level idx, left to right."""
        return tuple(
            self.columns[c][idx] for c in range(self.diagram.width(idx))
        )

    def restricted(self, c, idx):
        """Bottom-level boxes count as restricted; higher boxes are
        restricted when they repeat the absolute value below them."""
        if idx == 0:
            return True
        return abs(self.columns[c][idx]) == abs(self.columns[c][idx - 1])

    def type_of(self):
        """Composition whose i-th part is the height (in classic levels) of
        the column whose bottom entry is i; absent positions get 0."""
        mu = [0] * self.diagram.n
        for c, lam_c in enumerate(self.diagram.lam):
            mu[self.columns[c][0] - 1] = lam_c
        return tuple(mu)


def tableau_from_columns(n, columns):
    """Build a tableau from bottom-up column entry lists, validating it."""
    if any(len(col) % 2 for col in columns):
        raise ValueError("every doubled column has an even number of boxes")
    lam = tuple(len(col) // 2 for col in columns)
    t = QueueTableau(
        DoubledDiagram.for_shape(lam, n),
        tuple(tuple(col) for col in columns),
    )
    problems = filling_violations(t) + attack_violations(t)
    if problems:
        raise ValueError("; ".join(problems))
    return t


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------


def filling_violations(t):
    """Why the entries fail the placement rules (empty when they hold)."""
    diag = t.diagram
    n = diag.n
    out = []
    for c, lam_c in enumerate(diag.lam):
        if len(t.columns[c]) != 2 * lam_c:
            out.append(f"column {c + 1} has {len(t.columns[c])} boxes, "
                       f"wants {2 * lam_c}")
    if out:
        return out
    for c, idx in diag.boxes():
        e = t.entry(c, idx)
        name = f"column {c + 1} level {diag.level_name(idx)}"
        if e == 0 or abs(e) > n:
            out.append(f"{name}: entry {e} outside the alphabet")
        elif idx % 2 == 0 and e < 0:
            out.append(f"{name}: negative entry {e} in a classic level")
        elif idx % 2:
            if abs(t.entry(c, idx - 1)) < abs(e):
                out.append(f"{name}: entry {e} overhangs the "
                           f"{t.entry(c, idx - 1)} below")
            if e > 0 and e not in t.row_entries(idx - 1):
                out.append(f"{name}: positive entry {e} missing from the "
                           f"classic level below")
    for idx in range(diag.levels - 1, 0, -2):
        tops = [c for c, p in enumerate(diag.lam) if 2 * p - 1 == idx]
        vals = [abs(t.entry(c, idx)) for c in tops]
        if any(a <= b for a, b in zip(vals, vals[1:])):
            out.append(f"tops at level {diag.level_name(idx)} are not "
                       f"decreasing: {vals}")
    return out


def _attacked(diag, c, idx, positive):
    """Boxes whose absolute entry must differ from the box (c, idx)."""
    lam = diag.lam
    others = [(k, idx) for k in range(diag.width(idx)) if k != c]
    if idx == 0:
        return others
    below = range(diag.width(idx - 1))
    if positive:
        others += [(k, idx - 1) for k in below
                   if k != c and lam[c] >= lam[k]]
    else:
        others += [(k, idx - 1) for k in below
                   if k < c and lam[k] > lam[c]]
    return others


def attack_violations(t):
    """Attacking pairs that share an absolute value (empty when none do)."""
    diag = t.diagram
    out = []
    for c, idx in diag.boxes():
        e = t.entry(c, idx)
        for k, jdx in _attacked(diag, c, idx, e > 0):
            if (jdx, k) < (idx, c) and t.entry(k, jdx) > 0:
                continue  # the mirrored positive attack already covers it
            if abs(t.entry(k, jdx)) == abs(e):
                out.append(
                    f"column {c + 1} level {diag.level_name(idx)} ({e}) "
                    f"attacks column {k + 1} level {diag.level_name(jdx)} "
                    f"({t.entry(k, jdx)})")
    return out


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _level_fillings(diag, idx, below, mu=None):
    """All legal entry tuples for level idx over the level `below`; with a
    type mu, the bottom level puts each column c on a position a with
    mu[a-1] == lam[c]."""
    m = diag.width(idx)
    lam = diag.lam
    classic = idx % 2 == 0
    below_abs = None if below is None else [abs(v) for v in below]

    def rec(c, used, prev_top):
        if c == m:
            yield ()
            return
        top_here = (not classic) and 2 * lam[c] - 1 == idx
        for a in range(1, diag.n + 1):
            if a in used:
                continue
            if top_here and prev_top is not None and a >= prev_top:
                continue
            if below is None and mu is not None and mu[a - 1] != lam[c]:
                continue
            signs = (1,) if classic else (1, -1)
            for s in signs:
                if not classic:
                    if below_abs[c] < a:
                        continue
                    if s > 0 and a not in below:
                        continue
                if below is not None:
                    clash = (
                        (k for k in range(len(below))
                         if k != c and lam[c] >= lam[k])
                        if s > 0 else
                        (k for k in range(c) if lam[k] > lam[c])
                    )
                    if any(below_abs[k] == a for k in clash):
                        continue
                for tail in rec(c + 1, used | {a},
                                a if top_here else prev_top):
                    yield (s * a,) + tail

    yield from rec(0, frozenset(), None)


def enumerate_tableaux(lam, n, mu=None):
    """All signed queue tableaux of shape lam on the alphabet {+-1..+-n},
    or only those of type mu when it is given."""
    diag = DoubledDiagram.for_shape(lam, n)

    def rec(levels):
        idx = len(levels)
        if idx == diag.levels:
            cols = tuple(
                tuple(levels[j][c] for j in range(2 * p))
                for c, p in enumerate(diag.lam)
            )
            yield QueueTableau(diag, cols)
            return
        below = levels[-1] if levels else None
        for row in _level_fillings(diag, idx, below, mu):
            yield from rec(levels + [row])

    return list(rec([]))


def enumerate_tableaux_typed(lam, mu):
    """The tableaux of shape lam whose bottom level spells out type mu."""
    if sort_desc([p for p in mu if p]) != tuple(p for p in sort_desc(lam) if p):
        raise ValueError(f"type {tuple(mu)} does not rearrange {tuple(lam)}")
    return enumerate_tableaux(lam, len(mu), mu)


# ---------------------------------------------------------------------------
# the strand bijection
# ---------------------------------------------------------------------------


def tab(queue):
    """Read a signed queue strand by strand into a tableau.

    Strand s becomes column s; the entry at level idx is the queue column
    of the strand's ball in row idx, negated for signed balls.
    """
    strand_of, _ = queue.strands()
    count = len({s for s in strand_of.values()})
    cols = [{} for _ in range(count)]
    for (idx, col), s in strand_of.items():
        v = queue.rows[idx][col - 1]
        cols[s][idx] = col if v > 0 else -col
    lam = tuple(len(d) // 2 for d in cols)
    return QueueTableau(
        DoubledDiagram.for_shape(lam, queue.n),
        tuple(tuple(d[idx] for idx in range(len(d))) for d in cols),
    )


def tab_inverse(t):
    """Rebuild the signed queue whose strand reading gives this tableau.

    Raises ValueError when the filling breaks a placement or attack rule.
    """
    problems = filling_violations(t) + attack_violations(t)
    if problems:
        raise ValueError("; ".join(problems))
    diag = t.diagram
    n = diag.n
    if not diag.lam:
        return SignedQueue(n, ((0,) * n,), ())
    depth = diag.levels
    rows = [[0] * n for _ in range(depth)]
    for c, lam_c in enumerate(diag.lam):
        for idx, e in enumerate(t.columns[c]):
            rows[idx][abs(e) - 1] = lam_c if e > 0 else -lam_c
    matchings = []
    for idx in range(1, depth):
        pairs = {
            abs(t.entry(c, idx)): abs(t.entry(c, idx - 1))
            for c in range(diag.width(idx))
        }
        matchings.append(tuple(sorted(pairs.items())))
    return SignedQueue(n, tuple(map(tuple, rows)), tuple(matchings))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def leg(t, c, idx):
    """Classic boxes strictly above (c, idx) in its column."""
    return t.diagram.lam[c] - (idx // 2 + 1)


def arm(t, c, idx):
    """Companion count to leg, measured on the filled diagram.

    For a classic box: boxes below-right in strictly shorter columns, plus
    unrestricted boxes right of it at its own level in equal columns.  For
    a primed box it defers to the box above when that is unrestricted, and
    otherwise counts every box below-right plus the equal columns to its
    left whose classic box at the level above is present and unrestricted.
    """
    lam = t.diagram.lam
    if idx % 2 == 0:
        first = sum(
            1 for k in range(c + 1, len(lam))
            if 2 * lam[k] > idx - 1 >= 0 and lam[k] < lam[c]
        )
        second = sum(
            1 for k in range(c + 1, len(lam))
            if lam[k] == lam[c] and not t.restricted(k, idx)
        )
        return first + second
    above = idx + 1 < 2 * lam[c] and not t.restricted(c, idx + 1)
    if above:
        return arm(t, c, idx + 1)
    first = sum(1 for k in range(c + 1, len(lam)) if 2 * lam[k] > idx - 1)
    second = sum(
        1 for k in range(c)
        if lam[k] == lam[c]
        and idx + 1 < 2 * lam[k] and not t.restricted(k, idx + 1)
    )
    return first + second


def _triples(t):
    """Box triples (x, below-x, y) with y right of below-x at its level,
    in a strictly shorter column, or in an equal column with the box over y
    unrestricted."""
    lam = t.diagram.lam
    for c, idx in t.diagram.boxes():
        if idx == 0:
            continue
        for k in range(c + 1, t.diagram.width(idx - 1)):
            if lam[k] < lam[c] or (
                lam[k] == lam[c] and not t.restricted(k, idx)
            ):
                yield c, idx, k


def coinv(t):
    """Coinversion triples: the three absolute values sit in rightward
    cyclic order upper < right < lower.  The sign of the upper entry plays
    no role (pairing skips ignore signs); for a primed upper box only the
    unwrapped chain can occur, since its entries never overhang."""
    total = 0
    for c, idx, k in _triples(t):
        a = abs(t.entry(c, idx))
        b = abs(t.entry(k, idx - 1))
        d = abs(t.entry(c, idx - 1))
        if a < b < d or d < a < b or b < d < a:
            total += 1
    return total


def maj(t):
    return sum(
        leg(t, c, idx) + 1
        for c, idx in t.diagram.boxes()
        if idx % 2 == 0 and idx > 0
        and abs(t.entry(c, idx - 1)) < t.entry(c, idx)
    )


def negative_count(t):
    return sum(
        1 for c, idx in t.diagram.boxes()
        if t.entry(c, idx) < 0 and not t.restricted(c, idx)
    )


def empty_count(t):
    """Labels b missing from a classic level while some primed entry just
    above has absolute value a < b under an entry c0 > b."""
    total = 0
    for c, idx in t.diagram.boxes():
        if idx % 2 == 0:
            continue
        a = abs(t.entry(c, idx))
        c0 = t.entry(c, idx - 1)
        present = set(t.row_entries(idx - 1))
        total += sum(1 for b in range(a + 1, c0) if b not in present)
    return total


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def tableau_weight(t, ctx):
    """Scalar weight of a tableau.

    (-1)^negative q^maj t^(coinv+empty), times (1-t)/(1-q^(leg+1) t^(arm+1))
    per unrestricted classic box and (1-t) per unrestricted primed box.
    """
    w = ctx.qt(maj(t), coinv(t) + empty_count(t),
               -1 if negative_count(t) % 2 else 1)
    one_minus_t = ctx.binom(0, 1)
    for c, idx in t.diagram.boxes():
        if t.restricted(c, idx):
            continue
        if idx % 2 == 0:
            w = w * one_minus_t / ctx.binom(leg(t, c, idx) + 1,
                                            arm(t, c, idx) + 1)
        else:
            w = w * one_minus_t
    return w


def tableau_monomial(t, ctx):
    """Variable content of a tableau as a one-term polynomial.

    Each positive primed entry i contributes x_i; each negative primed
    entry at level r' contributes the constant -q^(r-1)/t^(n-1).
    """
    n = t.diagram.n
    exps = [0] * n
    scalar = ctx.one
    for c, idx in t.diagram.boxes():
        if idx % 2 == 0:
            continue
        e = t.entry(c, idx)
        if e > 0:
            exps[e - 1] += 1
        else:
            scalar = scalar * ctx.qt(idx // 2, -(n - 1), -1)
    return XPoly(n, ctx, {tuple(exps): scalar})


def tableau_term(t, ctx):
    return tableau_monomial(t, ctx) * tableau_weight(t, ctx)


@cache
def tableaux_sum_typed(mu, ctx):
    """Weight-generating sum over the tableaux of type mu."""
    total = XPoly(len(mu), ctx)
    for t in enumerate_tableaux_typed(sort_desc(mu), mu):
        total = total + tableau_term(t, ctx)
    return total


# ---------------------------------------------------------------------------
# the integral form
# ---------------------------------------------------------------------------


@cache
def _hook_pairs(lam, n):
    """The sorted (leg, arm+1) pairs over the primed boxes, one tuple for
    the shape.

    The per-box arm depends on the filling, but the multiset of pairs does
    not; it is read off every tableau of the shape and the agreement is
    asserted (a mismatch would mean the statistics are broken).
    """
    first = None
    for t in enumerate_tableaux(lam, n):
        pairs = tuple(sorted(
            (leg(t, c, idx), arm(t, c, idx) + 1)
            for c, idx in t.diagram.boxes() if idx % 2
        ))
        if first is None:
            first, witness = pairs, t
        elif pairs != first:
            raise ArithmeticError(
                f"hook pairs of shape {tuple(lam)} differ between fillings "
                f"{witness.columns} and {t.columns}: {first} vs {pairs}")
    return first


def hook_product(lam, n, ctx):
    """Product of (1 - q^leg t^(arm+1)) over the primed boxes."""
    h = ctx.one
    for a, b in _hook_pairs(lam, n):
        h = h * ctx.binom(a, b)
    return h


def classical_hook(lam, ctx):
    """Hook product over the ordinary diagram of lam.

    One factor (1 - q^arm t^(leg+1)) per cell, with arm counting cells
    right of it in its row and leg cells below it in its column.  Equality
    with `hook_product` is pinned by tests; the filling-based route stays
    the definition."""
    parts = [p for p in lam if p]
    out = ctx.one
    for r, p in enumerate(parts):
        for c in range(1, p + 1):
            armv = p - c
            legv = sum(1 for q in parts[r + 1:] if q >= c)
            out = out * ctx.binom(armv, legv + 1)
    return out


def J_star(lam, n, ctx):
    """The hook-scaled symmetric interpolation polynomial."""
    return solve_P_star(lam, n, ctx) * hook_product(lam, n, ctx)


def integral_weight(t, ctx):
    """Hook-scaled weight, regrouped so no denominators remain.

    (-1)^negative q^maj t^(coinv+empty), times (1-t) once per primed box
    whose box above is unrestricted and once per unrestricted primed box,
    times (1 - q^leg t^(arm+1)) per primed box whose box above is missing
    or restricted.
    """
    w = ctx.qt(maj(t), coinv(t) + empty_count(t),
               -1 if negative_count(t) % 2 else 1)
    one_minus_t = ctx.binom(0, 1)
    for c, idx in t.diagram.boxes():
        if idx % 2 == 0:
            continue
        above_unrestricted = (
            idx + 1 < 2 * t.diagram.lam[c] and not t.restricted(c, idx + 1)
        )
        if above_unrestricted:
            w = w * one_minus_t
        else:
            w = w * ctx.binom(leg(t, c, idx), arm(t, c, idx) + 1)
        if not t.restricted(c, idx):
            w = w * one_minus_t
    return w


def integral_term(t, ctx):
    return tableau_monomial(t, ctx) * integral_weight(t, ctx)


def integral_tableaux_sum(lam, n, ctx):
    total = XPoly(n, ctx)
    for t in enumerate_tableaux(lam, n):
        total = total + integral_term(t, ctx)
    return total


# ---------------------------------------------------------------------------
# integrality
# ---------------------------------------------------------------------------


def _cleared_coefficients(poly, size, n, ctx):
    """Scale each coefficient of poly by the t-power matching its degree
    drop below `size`, yielding (exponents, scaled coefficient)."""
    for exps, coeff in poly.terms.items():
        drop = size - sum(exps)
        yield exps, ctx.qt(0, (n - 1) * drop) * coeff


def integrality_check(lam, n, ctx):
    """Whether every cleared coefficient of the hook-scaled symmetric
    polynomial is an integer polynomial in q and t."""
    if not ctx.is_symbolic:
        raise ValueError("integrality is a symbolic-mode check")
    J = J_star(lam, n, ctx)
    size = sum(lam)
    return all(
        c.in_zqt() for _, c in _cleared_coefficients(J, size, n, ctx)
    )


def integrality_check_asep(mu, ctx):
    """Whether every cleared coefficient of the hook-scaled nonsymmetric
    polynomial is an integer polynomial in q and t."""
    if not ctx.is_symbolic:
        raise ValueError("integrality is a symbolic-mode check")
    n = len(mu)
    g = f_star(mu, ctx) * hook_product(sort_desc(mu), n, ctx)
    size = sum(mu)
    return all(
        c.in_zqt() for _, c in _cleared_coefficients(g, size, n, ctx)
    )
