import random

from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald_interp.compositions import signed_variants
from macdonald_interp.hecke import (
    hat_transform,
    hecke_T,
    hecke_word,
    t_param,
    transition_apply,
    transition_row,
    unpack_coeffs,
)
from macdonald_interp.scalars import QQ, SYMBOLIC, SpecializedScalars, random_point
from macdonald_interp.xpoly import XPoly

from oracles import monomial_symmetric

SPEC = SpecializedScalars(QQ(2, 5), QQ(3, 7))


def rand_poly(n, rng, laurent=False):
    lo = -2 if laurent else 0
    terms = {}
    for _ in range(5):
        e = tuple(rng.randint(lo, 3) for _ in range(n))
        terms[e] = SPEC.from_qq(rng.randint(-4, 4))
    return XPoly(n, SPEC, terms)


def test_hecke_on_variables():
    # n=2: T_1 x1 = x2, T_1 x2 = t x1 - (1-t) x2
    x1 = XPoly.var(2, SPEC, 1)
    x2 = XPoly.var(2, SPEC, 2)
    t = t_param(SPEC)
    assert hecke_T(x1, 1) == x2
    assert hecke_T(x2, 1) == t * x1 - (1 - t) * x2


def test_quadratic_relation():
    rng = random.Random(0)
    t = t_param(SPEC)
    for _ in range(10):
        f = rand_poly(3, rng, laurent=True)
        for i in (1, 2):
            lhs = hecke_T(hecke_T(f, i), i)
            assert lhs == (t - 1) * hecke_T(f, i) + t * f


def test_braid_relation():
    rng = random.Random(1)
    for _ in range(10):
        f = rand_poly(3, rng)
        assert hecke_word(f, (1, 2, 1)) == hecke_word(f, (2, 1, 2))


def test_commuting_relation():
    rng = random.Random(2)
    for _ in range(5):
        f = rand_poly(4, rng)
        assert hecke_word(f, (1, 3)) == hecke_word(f, (3, 1))


def test_symmetric_polynomial_eigenvalue():
    t = t_param(SPEC)
    m = monomial_symmetric(3, SPEC, (2, 1, 0))
    for i in (1, 2):
        assert hecke_T(m, i) == t * m


def test_commutes_with_xi_xj_product():
    rng = random.Random(3)
    x1 = XPoly.var(3, SPEC, 1)
    x2 = XPoly.var(3, SPEC, 2)
    for _ in range(5):
        f = rand_poly(3, rng, laurent=True)
        assert hecke_T(x1 * x2 * f, 1) == x1 * x2 * hecke_T(f, 1)


def test_hat_transform():
    ctx = SYMBOLIC
    x1 = XPoly.var(2, ctx, 1)
    f = x1 ** 2 + x1 + 1  # degree 2
    g = hat_transform(f)
    assert g.coefficient((2, 0)) == ctx.one
    assert g.coefficient((1, 0)) == ctx.qt(1, 0)
    assert g.coefficient((0, 0)) == ctx.qt(2, 0)
    # explicit d overrides the degree default
    h = hat_transform(f, d=3)
    assert h.coefficient((2, 0)) == ctx.qt(1, 0)


signed_entries = st.integers(-3, 3)


@settings(max_examples=100, deadline=None)
@given(st.tuples(signed_entries, signed_entries, signed_entries), st.integers(1, 2))
def test_transition_quadratic(alpha, i):
    """The transition matrix satisfies N^2 = (t-1) N + t Id row-wise."""
    ctx = SPEC
    t = t_param(ctx)
    row = transition_row(alpha, i, ctx)
    sq = transition_apply(row, i, ctx)
    expect = {beta: (t - 1) * c for beta, c in row.items()}
    expect[alpha] = expect.get(alpha, ctx.zero) + t
    expect = {b: c for b, c in expect.items() if c != 0}
    assert sq == expect


@settings(max_examples=60, deadline=None)
@given(st.tuples(signed_entries, signed_entries, signed_entries))
def test_transition_braid(alpha):
    ctx = SPEC
    start = {alpha: ctx.one}
    lhs = transition_apply(transition_apply(transition_apply(start, 1, ctx), 2, ctx), 1, ctx)
    rhs = transition_apply(transition_apply(transition_apply(start, 2, ctx), 1, ctx), 2, ctx)
    assert lhs == rhs


def test_transition_reduces_to_unsigned_cases():
    ctx = SPEC
    t = t_param(ctx)
    assert transition_row((2, 0), 1, ctx) == {(0, 2): ctx.one}
    assert transition_row((1, 1), 1, ctx) == {(1, 1): t}
    assert transition_row((0, 2), 1, ctx) == {(2, 0): t, (0, 2): -(1 - t)}


def test_transition_signed_cases():
    ctx = SPEC
    t = t_param(ctx)
    one = ctx.one
    # mixed-sign cases keyed by comparison of |entries|
    assert transition_row((2, -1), 1, ctx) == {(-1, 2): one, (-2, 1): 1 - t}
    assert transition_row((1, -1), 1, ctx) == {(-1, 1): one}
    assert transition_row((1, -2), 1, ctx) == {(-2, 1): t}
    assert transition_row((-2, 1), 1, ctx) == {(1, -2): one, (-2, 1): -(1 - t)}
    assert transition_row((-1, 1), 1, ctx) == {(1, -1): t, (-1, 1): -(1 - t)}
    assert transition_row((-1, 2), 1, ctx) == {
        (2, -1): t, (-1, 2): -(1 - t), (1, -2): -(1 - t)}
    # both negative compares absolute values
    assert transition_row((-2, -1), 1, ctx) == {(-1, -2): one}
    assert transition_row((-1, -1), 1, ctx) == {(-1, -1): t}
    assert transition_row((-1, -2), 1, ctx) == {(-2, -1): t, (-1, -2): -(1 - t)}


def test_unpack_coeffs_base_case():
    ctx = SPEC
    got = unpack_coeffs((3, 2, 0), ctx)
    assert got == {a: ctx.one for a in signed_variants((3, 2, 0))}


def test_unpack_coeffs_one_step():
    ctx = SPEC
    t = t_param(ctx)
    got = unpack_coeffs((0, 2), ctx)
    assert got == {(0, 2): ctx.one, (0, -2): ctx.one, (-2, 0): -(1 - t)}


def test_unpack_coeffs_are_t_polynomials():
    # symbolic form: every coefficient has trivial denominator
    got = unpack_coeffs((0, 2, 0, 1), SYMBOLIC)
    for alpha, c in got.items():
        assert not c.factors
        assert all(e[0] == 0 for e in c.num.terms), (alpha, c)
