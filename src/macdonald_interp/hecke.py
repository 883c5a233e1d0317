"""Hecke-algebra operators on polynomials and the recursions driven by them.

T_i f = t f - (t x_i - x_{i+1}) delta_i(f) with delta_i the divided
difference.  The operators satisfy the quadratic relation
(T_i - t)(T_i + 1) = 0 and the braid relations, commute with
multiplication by x_i x_{i+1}, and act on Laurent polynomials (delta_i is
computed term by term, so no denominators appear).

Also here: the one-step "shape permuting" recursions that move a polynomial
indexed by nu to one indexed by s_i nu, the explicit transition table for
the signed-index family (swap / flip cases), and the coefficient recursion
that unpacks zeros through a composition.
"""

from __future__ import annotations

from .compositions import flip_pair, r_stat, signed_variants, swap_pair, unpack_path
from .xpoly import XPoly


def t_param(ctx):
    return ctx.qt(0, 1)


def hecke_T(f, i):
    """Apply T_i (1-based i < n)."""
    ctx = f.ctx
    t = t_param(ctx)
    ei = [0] * f.n
    ei[i - 1] = 1
    ej = [0] * f.n
    ej[i] = 1
    factor = XPoly(f.n, ctx, {tuple(ei): t, tuple(ej): -ctx.one})
    return f * t - factor * f.delta(i)


def hecke_word(f, word):
    for i in word:
        f = hecke_T(f, i)
    return f


def hat_transform(f, d=None):
    """q^d f(x/q): each term c x^e becomes q^(d-|e|) c x^e.

    Default d is the total degree, making the transform degree-preserving
    with top part fixed.
    """
    if d is None:
        d = f.degree()
    ctx = f.ctx
    return f.map_coeff(lambda e, c: c * ctx.qt(d - sum(e), 0))


def shape_permute_star(f, nu, i):
    """From the interpolation polynomial indexed by nu (with nu_i > nu_{i+1})
    to the one indexed by s_i nu.

    Returns (new_poly, s_i nu).  The added multiple of f is
    (1-t)/(1-q^(nu_i-nu_{i+1}) t^(r_i)) -- the same constant as in the
    homogeneous case, since the two expansions must agree on top-degree
    parts.
    """
    a, b = nu[i - 1], nu[i]
    if a <= b:
        raise ValueError("shape_permute_star needs nu_i > nu_{i+1}")
    ctx = f.ctx
    coeff = ctx.binom(0, 1) / ctx.binom(a - b, r_stat(nu, i))
    return hecke_T(f, i) + f * coeff, swap_pair(nu, i)


# ---------------------------------------------------------------------------
# transition table for the signed-index family
# ---------------------------------------------------------------------------


def transition_row(alpha, i, ctx):
    """Row alpha of the T_i transition matrix on the signed-index family.

    Returns {beta: coeff} with T_i g_alpha = sum_beta coeff * g_beta.  The
    support lies in {alpha, s_i alpha, flip_i alpha} where flip negates
    entries i, i+1.
    """
    a, b = alpha[i - 1], alpha[i]
    t = t_param(ctx)
    one_minus_t = ctx.binom(0, 1)
    sw = swap_pair(alpha, i)
    fl = flip_pair(alpha, i)
    if a >= 0 and b >= 0:
        if a > b:
            return {sw: ctx.one}
        if a == b:
            return {alpha: t}
        return {sw: t, alpha: -one_minus_t}
    if a < 0 and b < 0:
        if -a > -b:
            return {sw: ctx.one}
        if a == b:
            return {alpha: t}
        return {sw: t, alpha: -one_minus_t}
    if a >= 0 > b:
        if a > -b:
            return {sw: ctx.one, fl: one_minus_t}
        if a == -b:
            return {sw: ctx.one}
        return {sw: t}
    # a < 0 <= b
    if -a > b:
        return {sw: ctx.one, alpha: -one_minus_t}
    if -a == b:
        return {sw: t, alpha: -one_minus_t}
    return {sw: t, alpha: -one_minus_t, fl: -one_minus_t}


def transition_apply(coeffs, i, ctx):
    """Push a vector {alpha: c} through the T_i transition matrix."""
    out = {}
    for alpha, c in coeffs.items():
        if not c:
            continue
        for beta, w in transition_row(alpha, i, ctx).items():
            v = out.get(beta, ctx.zero) + c * w
            if not v:
                out.pop(beta, None)
            else:
                out[beta] = v
    return out


def unpack_coeffs(mu, ctx):
    """Signed-index expansion coefficients for the composition mu.

    For the left-packed arrangement every sign pattern on the parts gets
    coefficient 1; moving a zero left through a positive part applies the
    T_i transition matrix.  Returns {alpha: coeff in Z[t]}.
    """
    start, word = unpack_path(mu)
    coeffs = {alpha: ctx.one for alpha in signed_variants(start)}
    for i in word:
        coeffs = transition_apply(coeffs, i, ctx)
    return coeffs
