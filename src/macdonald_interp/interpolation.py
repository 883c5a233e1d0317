"""Interpolation polynomials from their vanishing characterization.

The nonsymmetric family indexed by compositions mu: the unique polynomial
of degree <= |mu| with unit coefficient on x^mu vanishing at the spectral
point of every other composition of size <= |mu|.

`solve_E_star` builds the whole nonsymmetric family up to a size bound by
graded elimination: one seed per sorted type, obtained by subtracting
already-built polynomials to kill one spectral point at a time, then the
rest of the type class via the shape-permuting operators.  `solve_square`
is a dense fraction-free solver over the context's scalars; the tests pose
the vanishing conditions to it as one square system, the independent
reference that the graded elimination is checked against.

The ASEP-indexed family f* arises from the dominant interpolation
polynomial by applying Hecke operators along the shortest permutation; its
homogeneous top part is the ASEP polynomial.  The symmetric family P*
indexed by partitions is the orbit sum of f* over the rearrangements of
the partition, so it comes from the same family.  Also here: the elementary
interpolation products (0/1 types), the extended signed-index family, the
hatted decomposition, the two-row recursion right-hand sides, the
characterization check of f*, and the q=1 factorization checks.
"""

from __future__ import annotations

from functools import cache

from .compositions import (
    absolute,
    arrangements,
    compositions_upto,
    conjugate,
    fit_partition,
    is_packed,
    minus_one,
    partitions_of,
    sort_desc,
    support,
    swap_pair,
    swap_word,
    tilde_point,
)
from .hecke import hat_transform, hecke_word, shape_permute_star, unpack_coeffs
from .queues import F_star_sum, a_coeff
from .xpoly import XPoly


class SingularSystemError(ArithmeticError):
    """The vanishing conditions did not determine a unique polynomial."""


# ---------------------------------------------------------------------------
# dense exact linear algebra
# ---------------------------------------------------------------------------


def solve_square(M, rhs, ctx):
    """Exact solve of M x = rhs by fraction-free Gauss-Jordan elimination
    over the context's scalars.

    When the entries are Laurent polynomials in q, t, every division by the
    previous pivot is exact, so the intermediate entries stay polynomials;
    the returned scalars all share the final pivot as denominator.
    """
    m = len(M)
    A = [list(row) + [rhs[i]] for i, row in enumerate(M)]
    prev = ctx.one
    for k in range(m):
        piv = next((r for r in range(k, m) if A[r][k]), None)
        if piv is None:
            raise SingularSystemError("singular linear system")
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
        p = A[k][k]
        for i in range(m):
            if i == k:
                continue
            aik = A[i][k]
            row_k = A[k]
            row_i = A[i]
            # Every off-pivot entry is rescaled by p/prev (exactly), so all
            # diagonals end up equal to the last pivot.
            if not aik:
                for j in range(m + 1):
                    if row_i[j]:
                        row_i[j] = p * row_i[j] / prev
            else:
                for j in range(m + 1):
                    row_i[j] = (p * row_i[j] - aik * row_k[j]) / prev
        prev = p
    return [A[i][m] / A[i][i] for i in range(m)]


# ---------------------------------------------------------------------------
# the full nonsymmetric family by graded elimination
# ---------------------------------------------------------------------------


class _Family:
    """All interpolation polynomials with n variables up to a size bound,
    plus their values at their own spectral points."""

    __slots__ = ("n", "ctx", "polys", "own", "points", "order", "size")

    def __init__(self, n, ctx):
        self.n = n
        self.ctx = ctx
        self.polys = {}
        self.own = {}
        self.points = {}
        self.order = []
        self.size = -1

    def _register(self, nu, poly):
        ctx = self.ctx
        point = tilde_point(nu, ctx)
        value = poly.evaluate(point)
        if not value:
            raise SingularSystemError(
                f"interpolation polynomial of {nu} vanishes at its own point"
                " (degenerate q, t)")
        self.polys[nu] = poly
        self.own[nu] = value
        self.points[nu] = point
        self.order.append(nu)

    def _seed(self, lam):
        """The dominant member of a type class, by killing the value at
        every completed spectral point in turn."""
        ctx = self.ctx
        g = XPoly.monomial(self.n, ctx, lam)
        for tau in self.order:
            v = g.evaluate(self.points[tau])
            if v:
                g = g - self.polys[tau] * (v / self.own[tau])
        return g

    def _complete_class(self, lam, poly):
        """Spread a dominant-indexed polynomial over its rearrangement
        class with the shape-permuting operators."""
        self._register(lam, poly)
        frontier = [(lam, poly)]
        seen = {lam}
        while frontier:
            nu, p = frontier.pop(0)
            for i in range(1, self.n):
                if nu[i - 1] > nu[i]:
                    s_nu = swap_pair(nu, i)
                    if s_nu not in seen:
                        seen.add(s_nu)
                        p2, _ = shape_permute_star(p, nu, i)
                        self._register(s_nu, p2)
                        frontier.append((s_nu, p2))

    def extend(self, d):
        for s in range(self.size + 1, d + 1):
            # within a grade, types ascend in dominance order so that every
            # index below in the triangular order is completed before it is
            # needed
            def partial_sums(lam):
                total, out = 0, []
                for v in lam:
                    total += v
                    out.append(total)
                return tuple(out)

            for lam in sorted(partitions_of(s, max_parts=self.n),
                              key=partial_sums):
                full = lam + (0,) * (self.n - len(lam))
                self._complete_class(full, self._seed(full))
            self.size = s


@cache
def _family_of(n, ctx):
    """The one family of this process for n variables over ctx."""
    return _Family(n, ctx)


def _family(n, ctx, d):
    fam = _family_of(n, ctx)
    fam.extend(d)
    return fam


def solve_E_star(mu, ctx):
    """Nonsymmetric interpolation polynomial: unit coefficient on x^mu,
    vanishing at the spectral point of every other composition of size at
    most |mu|."""
    mu = tuple(mu)
    return _family(len(mu), ctx, sum(mu)).polys[mu]


E_star = solve_E_star


@cache
def solve_P_star(lam, n, ctx):
    """Symmetric interpolation polynomial in n variables: unit coefficient
    on the monomial symmetric function of lam, vanishing at the spectral
    points of all other partitions of size at most |lam|.

    Built as the orbit sum of the ASEP-indexed family over the
    rearrangements of lam (the symmetrization identity)."""
    poly = XPoly.zero(n, ctx)
    for mu in arrangements(fit_partition(lam, n)):
        poly = poly + f_star(mu, ctx)
    return poly


P_star = solve_P_star


@cache
def f_star(mu, ctx):
    """ASEP-indexed interpolation polynomial: Hecke word applied to the
    dominant one."""
    lam = sort_desc(mu)
    return hecke_word(solve_E_star(lam, ctx), swap_word(lam, mu))


def f_hom(mu, ctx):
    return f_star(mu, ctx).top_part()


# ---------------------------------------------------------------------------
# the characterization check
# ---------------------------------------------------------------------------


def verify_characterization(g, mu, ctx):
    """True iff g behaves like the ASEP-indexed interpolation polynomial
    of mu: it vanishes at every spectral point of size <= |mu| outside the
    rearrangement orbit of mu, and on the orbit its coefficients pick out
    x^mu alone."""
    mu = tuple(mu)
    n, d = len(mu), sum(mu)
    orbit = set(arrangements(mu))
    for nu in compositions_upto(d, n):
        if nu in orbit:
            continue
        if g.evaluate(tilde_point(nu, ctx)):
            return False
    for tau in orbit:
        c = g.coefficient(tau)
        if tau == mu:
            if c != ctx.one:
                return False
        elif c:
            return False
    return True


# ---------------------------------------------------------------------------
# product formulas (0/1 types and the elementary family)
# ---------------------------------------------------------------------------


def support_product(S, n, ctx):
    """prod over i in S of (x_i - t^c(i)/t^(n-1)) with c(i) counting the
    complement positions before i; S is a set of 1-based columns."""
    S = set(S)
    poly = XPoly.one(n, ctx)
    for i in sorted(S):
        c = sum(1 for j in range(1, i) if j not in S)
        poly = poly * (XPoly.var(n, ctx, i) - XPoly.const(n, ctx, ctx.qt(0, c - (n - 1))))
    return poly


def e_star_k(k, n, ctx):
    """Elementary interpolation polynomial: sum of support_product over all
    k-subsets of columns."""
    from itertools import combinations

    total = XPoly.zero(n, ctx)
    for S in combinations(range(1, n + 1), k):
        total = total + support_product(S, n, ctx)
    return total


def zero_one_f_star(mu, ctx):
    """For 0/1 types the interpolation polynomial is the single support
    product; holds at general q, t."""
    if any(v not in (0, 1) for v in mu):
        raise ValueError("entries must be 0 or 1")
    S = {i + 1 for i in support(mu)}
    return support_product(S, len(mu), ctx)


def q1_sector_product(S, lam, n, ctx):
    """Product form of the fixed-support sum at q = 1: the support product
    times elementary interpolation polynomials of the conjugate column
    heights 2, 3, ...."""
    lam = sort_desc(lam)
    conj = conjugate(lam)
    if len(S) != (conj[0] if conj else 0):
        raise ValueError("support size must match the number of nonzero parts")
    poly = support_product(S, n, ctx)
    for height in conj[1:]:
        poly = poly * e_star_k(height, n, ctx)
    return poly


def q1_symmetric_product(lam, n, ctx):
    """Product form of the symmetric family at q = 1: elementary
    interpolation polynomials over all conjugate column heights."""
    poly = XPoly.one(n, ctx)
    for height in conjugate(sort_desc(lam)):
        poly = poly * e_star_k(height, n, ctx)
    return poly


def factorization_q1_checks(lam, n, ctx):
    """At q = 1 (ctx must specialize q to 1): whether the symmetric
    interpolation polynomial factors into elementary ones over the
    conjugate column heights, and, for each support S (1-based columns, in
    increasing order), whether the sum over the types of shape lam with
    support S equals its product form, as (ok, {S: ok}).

    The left sides are queue generating sums, whose weights stay regular at
    q = 1; the spectral points collide there, so the solver route to P* is
    unavailable.  Each support's sum is one walk from its types, and the
    orbit sum is the sum of those."""
    lam = fit_partition(sort_desc(lam), n)
    types = {}
    for mu in arrangements(lam):
        types.setdefault(tuple(i + 1 for i, v in enumerate(mu) if v),
                         []).append(mu)
    sums = {S: F_star_sum(mus, ctx) for S, mus in sorted(types.items())}
    orbit = sum(sums.values(), XPoly.zero(n, ctx))
    return orbit == q1_symmetric_product(lam, n, ctx), {
        S: total == q1_sector_product(set(S), lam, n, ctx)
        for S, total in sums.items()}


# ---------------------------------------------------------------------------
# extended signed-index family and the hatted decomposition
# ---------------------------------------------------------------------------


def extended_f(alpha, ctx):
    """Signed-index homogeneous family: divide the homogeneous polynomial
    of |alpha| by -t^(n-1) x_i for every negative alpha_i; the result is
    again a polynomial (positions with a negative index always carry a
    ball, hence a factor x_i)."""
    alpha = tuple(alpha)
    n = len(alpha)
    base = f_hom(absolute(alpha), ctx)
    neg = [i for i, a in enumerate(alpha) if a < 0]
    if not neg:
        return base
    scalar = ctx.qt(0, -(n - 1) * len(neg), (-1) ** len(neg))
    out = {}
    for e, coeff in base.terms.items():
        e2 = list(e)
        for i in neg:
            e2[i] -= 1
            if e2[i] < 0:
                raise ValueError(
                    f"monomial {e} of the homogeneous polynomial of "
                    f"{absolute(alpha)} is not divisible by x_{i + 1}")
        out[tuple(e2)] = coeff * scalar
    return XPoly(n, ctx, out)


def wt_sign_monomial(alpha, ctx):
    """x_i per positive entry, -1/t^(n-1) per negative entry."""
    n = len(alpha)
    exps = [0] * n
    scal = ctx.one
    for i, a in enumerate(alpha):
        if a > 0:
            exps[i] = 1
        elif a < 0:
            scal = scal * ctx.qt(0, -(n - 1), -1)
    return XPoly(n, ctx, {tuple(exps): scal})


def _two_row_tops(mu):
    big = tuple(v for v in mu if v >= 2)
    pad = big + (0,) * (len(mu) - len(big))
    return arrangements(pad)


@cache
def h_poly(alpha, ctx):
    """Signed-index interpolation building block: the sign-weight monomial
    times the a-weighted sum of hatted polynomials of the decremented
    tops."""
    mu = absolute(alpha)
    n = len(mu)
    total = XPoly.zero(n, ctx)
    for nu in _two_row_tops(mu):
        coeff = a_coeff(nu, mu, ctx)
        if not coeff:
            continue
        numi = minus_one(nu)
        total = total + hat_transform(f_star(numi, ctx), d=sum(numi)) * coeff
    return wt_sign_monomial(alpha, ctx) * total


def general_decomposition_rhs(mu, ctx):
    """Expansion of f* through the signed-index coefficients: the sum of
    unpack_coeffs[alpha] * h_poly(alpha)."""
    mu = tuple(mu)
    n = len(mu)
    total = XPoly.zero(n, ctx)
    for alpha, c in sorted(unpack_coeffs(mu, ctx).items()):
        total = total + h_poly(alpha, ctx) * c
    return total


def packed_recursion_rhs(mu, ctx):
    """Two-row peeling for types whose support is an initial column block:
    prod_{i<=k} (x_i - t^(1-n)) times the a-weighted sum of q-rescaled
    decremented polynomials."""
    mu = tuple(mu)
    n = len(mu)
    k = len([v for v in mu if v])
    if not is_packed(mu):
        raise ValueError("nonzero parts must occupy the first columns")
    front = XPoly.one(n, ctx)
    for i in range(1, k + 1):
        front = front * (XPoly.var(n, ctx, i) - XPoly.const(n, ctx, ctx.qt(0, 1 - n)))
    total = XPoly.zero(n, ctx)
    for nu in _two_row_tops(mu):
        c = a_coeff(nu, mu, ctx)
        if not c:
            continue
        numi = minus_one(nu)
        total = total + hat_transform(f_star(numi, ctx), d=sum(numi)) * c
    return front * total
