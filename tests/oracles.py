"""Reference implementations that the tests hold the package routes against.

Brute-force orders and permutations, symmetric-polynomial helpers, a dense
solve of the vanishing conditions, second constructions of E* and of the
signed-index family, and the queue generating sums weighed queue by
queue.  No package route needs them.  Pytest does not collect this module;
the test modules import it.
"""

from itertools import permutations

from macdonald_interp.compositions import (
    absolute,
    arrangements,
    compositions_upto,
    k_stat,
    minus_one,
    sort_desc,
    word_from_partition,
)
from macdonald_interp.hecke import shape_permute_star
from macdonald_interp.interpolation import (
    _two_row_tops,
    f_hom,
    solve_E_star,
    solve_square,
    wt_sign_monomial,
)
from macdonald_interp.queues import a_coeff, enumerate_mlq, enumerate_smlq
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
    """``compositions.precedes`` by trying every permutation pi."""
    n = len(mu)
    for pi in permutations(range(n)):
        if all(
            mu[i] <= nu[pi[i]] and (mu[i] < nu[pi[i]] or i <= pi[i])
            for i in range(n)
        ):
            return True
    return False


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
