"""Reference implementations that the tests hold the package routes against.

Brute-force orders and permutations, symmetric-polynomial helpers, a dense
solve of the vanishing conditions, second constructions of E* and of the
signed-index family, the queue generating sums weighed queue by queue, and
typed tableaux by filtering all tableaux of a shape.  No package route
needs them.  Pytest does not collect this module; the test modules import
it.

Also here, because only the tests read them: the triangular order
`comp_lt` and the precedence order `precedes` on compositions; the
vanishing checks `vanishing_violations`, `triangularity_violations`,
`symmetric_vanishing_violations` and `extra_vanishing_check`, and
`E_star_own_value`; and the tableau sums `tableaux_sum` (all tableaux of a
shape) and `integral_tableaux_sum_typed` (the integral form of one type).
"""

from itertools import permutations

from macdonald_interp.compositions import (
    absolute,
    arrangements,
    compositions_upto,
    k_stat,
    minus_one,
    partitions_upto,
    sort_desc,
    tilde_point,
    word_from_partition,
)
from macdonald_interp.hecke import shape_permute_star
from macdonald_interp.interpolation import (
    _family,
    _two_row_tops,
    f_hom,
    solve_E_star,
    solve_square,
    wt_sign_monomial,
)
from macdonald_interp.queues import a_coeff, enumerate_mlq, enumerate_smlq
from macdonald_interp.tableaux import (
    enumerate_tableaux,
    enumerate_tableaux_typed,
    integral_term,
    tableau_term,
)
from macdonald_interp.xpoly import XPoly


# ---------------------------------------------------------------------------
# permutations and compositions
# ---------------------------------------------------------------------------


def perm_act(sigma, mu):
    """sigma acting on positions: result_i = mu_{sigma^{-1}(i)}.

    sigma is one-line notation as a tuple of 1-based values.
    """
    n = len(sigma)
    inv = [0] * n
    for i, v in enumerate(sigma):
        inv[v - 1] = i
    return tuple(mu[inv[i]] for i in range(n))


def perm_length(sigma):
    """Number of inversions of sigma."""
    n = len(sigma)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
    )


def apply_word_to_comp(lam, word):
    """Swap positions w, w+1 of lam for each w of the word, in order."""
    cur = list(lam)
    for i in word:
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
    return tuple(cur)


def precedes_brute(mu, nu):
    """``precedes`` by trying every permutation pi."""
    n = len(mu)
    for pi in permutations(range(n)):
        if all(
            mu[i] <= nu[pi[i]] and (mu[i] < nu[pi[i]] or i <= pi[i])
            for i in range(n)
        ):
            return True
    return False


def _dominance_lt_eq(lam, nu):
    """Partitions of equal size: lam < nu in dominance (strict)."""
    if lam == nu:
        return False
    s1 = s2 = 0
    le_all = True
    for a, b in zip(lam, nu):
        s1 += a
        s2 += b
        if s1 > s2:
            le_all = False
            break
    return le_all


def comp_lt(kappa, nu):
    """Strict order on compositions used for triangular expansions.

    kappa < nu when sort(kappa) precedes sort(nu) (smaller size, or equal
    size and dominance-smaller), or the sorted shapes agree and every
    partial sum of kappa is >= that of nu with kappa != nu.  Antidominant
    arrangements are maximal within an orbit.
    """
    ks, ns = sort_desc(kappa), sort_desc(nu)
    if sum(kappa) != sum(nu):
        return sum(kappa) < sum(nu)
    if ks != ns:
        return _dominance_lt_eq(ks, ns)
    if kappa == nu:
        return False
    s1 = s2 = 0
    for a, b in zip(kappa, nu):
        s1 += a
        s2 += b
        if s1 < s2:
            return False
    return True


def precedes(mu, nu):
    """mu precedes nu: there is a permutation pi with mu_i <= nu_{pi(i)}
    for all i, strict whenever i > pi(i).

    Decided as a perfect matching problem on the bipartite graph with an
    edge i -> j whenever mu_i <= nu_j and (i <= j or mu_i < nu_j).
    """
    n = len(mu)
    if len(nu) != n:
        raise ValueError("compositions must have the same length")
    adj = [
        [j for j in range(n) if mu[i] <= nu[j] and (i <= j or mu[i] < nu[j])]
        for i in range(n)
    ]
    match_of_j = [-1] * n

    def augment(i, seen):
        for j in adj[i]:
            if seen[j]:
                continue
            seen[j] = True
            if match_of_j[j] < 0 or augment(match_of_j[j], seen):
                match_of_j[j] = i
                return True
        return False

    for i in range(n):
        if not augment(i, [False] * n):
            return False
    return True


# ---------------------------------------------------------------------------
# symmetric polynomials
# ---------------------------------------------------------------------------


def swap(poly, i):
    """poly with x_i and x_{i+1} exchanged (1-based i)."""
    out = {}
    for e, c in poly.terms.items():
        k = list(e)
        k[i - 1], k[i] = k[i], k[i - 1]
        out[tuple(k)] = c
    return XPoly(poly.n, poly.ctx, out)


def is_symmetric(poly):
    """True when every adjacent transposition of the variables fixes poly."""
    return all(swap(poly, i) == poly for i in range(1, poly.n))


def monomial_symmetric(n, ctx, lam):
    """Monomial symmetric polynomial m_lam in n variables."""
    lam = tuple(lam) + (0,) * (n - len(lam))
    if len(lam) > n:
        raise ValueError("partition longer than variable count")
    return XPoly(n, ctx, {e: ctx.one for e in arrangements(lam)})


# ---------------------------------------------------------------------------
# interpolation polynomials by other constructions
# ---------------------------------------------------------------------------


def _point_monomial(kappa, exps):
    """Exponents (A, B) with (spectral point of kappa)^exps = q^A t^B."""
    ks = k_stat(kappa)
    A = sum(k * e for k, e in zip(kappa, exps))
    B = -sum(k * e for k, e in zip(ks, exps))
    return A, B


def solve_E_star_dense(mu, ctx):
    """Nonsymmetric interpolation polynomial via one dense linear solve
    over the full monomial basis of degree <= |mu|."""
    mu = tuple(mu)
    n, d = len(mu), sum(mu)
    others = [nu for nu in compositions_upto(d, n) if nu != mu]
    M = []
    rhs = []
    for kappa in others:
        M.append([ctx.qt(*_point_monomial(kappa, nu)) for nu in others])
        rhs.append(ctx.qt(*_point_monomial(kappa, mu), -1))
    coeffs = solve_square(M, rhs, ctx) if others else []
    terms = {mu: ctx.one}
    for nu, c in zip(others, coeffs):
        terms[nu] = c
    return XPoly(n, ctx, terms)


def E_star_via_permute(mu, ctx):
    """Same polynomial as solve_E_star, built by one shape-permuting chain
    from the dominant rearrangement."""
    mu = tuple(mu)
    lam = sort_desc(mu)
    poly = solve_E_star(lam, ctx)
    nu = lam
    for i in word_from_partition(lam, mu):
        poly, nu = shape_permute_star(poly, nu, i)
    if nu != mu:
        raise AssertionError(f"permutation chain landed on {nu}, wanted {mu}")
    return poly


def extended_f_via_tops(alpha, ctx):
    """``interpolation.extended_f`` through the two-row coefficients: the
    sign-weight monomial times the a-weighted sum of homogeneous
    polynomials of the decremented tops."""
    alpha = tuple(alpha)
    mu = absolute(alpha)
    n = len(mu)
    total = XPoly.zero(n, ctx)
    for nu in _two_row_tops(mu):
        coeff = a_coeff(nu, mu, ctx)
        if not coeff:
            continue
        total = total + f_hom(minus_one(nu), ctx) * coeff
    return wt_sign_monomial(alpha, ctx) * total


# ---------------------------------------------------------------------------
# characterization checks
# ---------------------------------------------------------------------------


def E_star_own_value(mu, ctx):
    """Value of the interpolation polynomial at its own spectral point
    (never zero)."""
    mu = tuple(mu)
    return _family(len(mu), ctx, sum(mu)).own[mu]


def vanishing_violations(poly, mu, ctx, extra=0):
    """Spectral points of size <= |mu| (+extra) where poly fails to act
    like the interpolation polynomial of mu.

    Checks value 0 at every composition nu != mu with |nu| <= |mu|, value
    nonzero at mu itself, and (for extra > 0) the precedence-driven
    vanishing at larger compositions.
    """
    mu = tuple(mu)
    n, d = len(mu), sum(mu)
    bad = []
    for nu in compositions_upto(d + extra, n):
        v = poly.evaluate(tilde_point(nu, ctx))
        if nu == mu:
            if not v:
                bad.append((nu, "vanishes at its own point"))
        elif sum(nu) <= d:
            if v:
                bad.append((nu, "nonzero"))
        elif not precedes(mu, nu):
            if v:
                bad.append((nu, "nonzero beyond degree"))
    return bad


def triangularity_violations(poly, mu):
    """Monomials of poly not below mu in the triangular order."""
    return [e for e in poly.terms if e != tuple(mu) and not comp_lt(e, tuple(mu))]


def symmetric_vanishing_violations(poly, lam, n, ctx):
    lam = tuple(lam) + (0,) * (n - len(lam))
    bad = []
    for nu in partitions_upto(sum(lam), n):
        v = poly.evaluate(tilde_point(nu, ctx))
        if nu == lam:
            if not v:
                bad.append((nu, "vanishes at its own point"))
        elif v:
            bad.append((nu, "nonzero"))
    return bad


def extra_vanishing_check(mu, nu, ctx):
    """True iff the precedence order explains the value of the
    interpolation polynomial of mu at nu's spectral point: either mu
    precedes nu, or the value is zero."""
    if precedes(mu, nu):
        return True
    v = solve_E_star(mu, ctx).evaluate(tilde_point(nu, ctx))
    return not v


# ---------------------------------------------------------------------------
# queue generating sums, one queue at a time
# ---------------------------------------------------------------------------


def _queue_sum(queues, n, ctx):
    """The weights of the listed queues, summed per monomial."""
    groups = {}
    for Q in queues:
        exps, scal = Q.weight_parts(ctx)
        groups.setdefault(exps, []).append(scal)
    return XPoly(n, ctx, {e: ctx.sum(vs) for e, vs in groups.items()})


def F_star_by_queues(mu, ctx):
    """``queues.F_star`` as the sum of the weights of the signed queues."""
    return _queue_sum(enumerate_smlq(mu), len(mu), ctx)


def F_hom_by_queues(mu, ctx):
    """``queues.F_hom`` as the sum of the weights of the homogeneous
    queues."""
    return _queue_sum(enumerate_mlq(mu), len(mu), ctx)


# ---------------------------------------------------------------------------
# tableau sums
# ---------------------------------------------------------------------------


def tableaux_of_type_by_filter(lam, mu):
    """``tableaux.enumerate_tableaux_typed`` by keeping the tableaux of
    shape lam whose type is mu."""
    return [t for t in enumerate_tableaux(lam, len(mu))
            if t.type_of() == tuple(mu)]


def tableaux_sum(lam, n, ctx):
    """Weight-generating sum over all tableaux of shape lam."""
    total = XPoly(n, ctx)
    for t in enumerate_tableaux(lam, n):
        total = total + tableau_term(t, ctx)
    return total


def integral_tableaux_sum_typed(mu, ctx):
    """Hook-scaled weight-generating sum over the tableaux of type mu."""
    total = XPoly(len(mu), ctx)
    for t in enumerate_tableaux_typed(sort_desc(mu), mu):
        total = total + integral_term(t, ctx)
    return total
