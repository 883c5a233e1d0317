from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from macdonald_interp import interpolation, scalars
from macdonald_interp.compositions import (
    arrangements,
    compositions_of,
    compositions_upto,
    partitions_upto,
    sort_desc,
    swap_pair,
    tilde_point,
)
from macdonald_interp.hecke import hecke_T, transition_row
from macdonald_interp.interpolation import (
    E_star,
    P_star,
    e_star_k,
    extended_f,
    f_hom,
    f_star,
    factorization_q1_check,
    general_decomposition_rhs,
    h_poly,
    packed_recursion_rhs,
    q1_sector_product,
    q1_symmetric_product,
    solve_square,
    support_product,
    support_sum_check,
    verify_characterization,
    zero_one_f_star,
)
from macdonald_interp.queues import F_star, Z_star
from macdonald_interp.scalars import (
    SYMBOLIC,
    QTPoly,
    RatQT,
    SpecializedScalars,
    random_point,
    specialized,
)
from macdonald_interp.xpoly import XPoly

from oracles import (
    E_star_own_value,
    E_star_via_permute,
    extended_f_via_tops,
    extra_vanishing_check,
    is_symmetric,
    solve_E_star_dense,
    symmetric_vanishing_violations,
    triangularity_violations,
    vanishing_violations,
)
from test_queues import golden_f_star_02


def sym():
    return SYMBOLIC


def x(i, n=2, ctx=SYMBOLIC):
    return XPoly.var(n, ctx, i)


def c(num, den=None, ctx=SYMBOLIC):
    r = RatQT(num, den if den is not None else QTPoly.const(1))
    return r


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------


def test_solve_square_specialized():
    ctx = SpecializedScalars(2, 3)
    Q = ctx.qt
    # 2x + y = 5, x - y = 1  ->  x = 2, y = 1
    M = [[Q(0, 0, 2), Q(0, 0, 1)], [Q(0, 0, 1), Q(0, 0, -1)]]
    sol = solve_square(M, [Q(0, 0, 5), Q(0, 0, 1)], ctx)
    assert sol == [2, 1]


def test_solve_square_symbolic():
    ctx = sym()
    Q = ctx.qt
    # [[q, 1], [1, 1]] x = [q^2, 1]  ->  x = [q+1, -q]
    M = [[Q(1, 0), Q(0, 0)], [Q(0, 0), Q(0, 0)]]
    sol = solve_square(M, [Q(2, 0), Q(0, 0)], ctx)
    assert sol[0] == ctx.qt(1, 0) + ctx.one
    assert sol[1] == ctx.qt(1, 0, -1)


def test_solve_square_pivoting():
    ctx = SpecializedScalars(2, 3)
    Q = ctx.qt
    M = [[Q(0, 0, 0), Q(0, 0, 1)], [Q(0, 0, 1), Q(0, 0, 0)]]
    sol = solve_square(M, [Q(0, 0, 7), Q(0, 0, 4)], ctx)
    assert sol == [4, 7]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_solve_square_random_systems(seed):
    import random

    rng = random.Random(seed)
    ctx = specialized(seed, 4)
    m = rng.randint(1, 4)
    sol_true = [ctx.from_qq(rng.randint(-5, 5)) / rng.randint(1, 3) for _ in range(m)]
    while True:
        M = [[ctx.from_qq(rng.randint(-4, 4)) for _ in range(m)] for _ in range(m)]
        # retry until invertible: solve against a known vector
        rhs = [sum((M[i][j] * sol_true[j] for j in range(m)), ctx.zero)
               for i in range(m)]
        try:
            sol = solve_square(M, rhs, ctx)
            break
        except ArithmeticError:
            continue
    assert sol == sol_true


# ---------------------------------------------------------------------------
# nonsymmetric interpolation family
# ---------------------------------------------------------------------------


def test_E_star_one_zero():
    # x1 - 1/t
    ctx = sym()
    expected = x(1) - XPoly.const(2, ctx, ctx.qt(0, -1))
    assert E_star((1, 0), ctx) == expected


def test_E_star_zero_one():
    # x2 + (1-t)/(1-qt) x1 - (1-qt^2)/(t(1-qt))
    ctx = sym()
    one_m_t = QTPoly.binomial(0, 1)
    one_m_qt = QTPoly.binomial(1, 1)
    one_m_qt2 = QTPoly.binomial(1, 2)
    expected = (x(2) + x(1) * RatQT(one_m_t, one_m_qt)
                - XPoly.const(2, ctx, RatQT(one_m_qt2, one_m_qt.shift(0, 1))))
    assert E_star((0, 1), ctx) == expected


def test_E_star_empty_is_one():
    ctx = sym()
    assert E_star((0, 0, 0), ctx) == XPoly.one(3, ctx)


@pytest.mark.parametrize("mu", [(2, 0), (0, 2), (1, 1), (0, 1, 1), (2, 1), (0, 0, 2)])
def test_E_star_characterization(mu):
    ctx = sym()
    poly = E_star(mu, ctx)
    assert poly.coefficient(mu) == ctx.one
    assert poly.degree() == sum(mu)
    assert vanishing_violations(poly, mu, ctx) == []


@pytest.mark.parametrize("mu", [(2, 0), (0, 2), (1, 0, 1), (2, 1)])
def test_E_star_triangular(mu):
    assert triangularity_violations(E_star(mu, sym()), mu) == []


def test_E_star_extra_vanishing():
    # beyond the degree bound, vanishing persists exactly at the
    # non-preceding spectral points
    ctx = sym()
    for mu in [(1, 0), (0, 1), (2, 0), (0, 2)]:
        assert vanishing_violations(E_star(mu, ctx), mu, ctx, extra=2) == []


def test_E_star_specialized_matches_symbolic():
    ctx = specialized(11, 4)
    for mu in [(0, 1), (2, 0), (1, 0, 1)]:
        sym_poly = E_star(mu, sym()).specialize(ctx.q0, ctx.t0, ctx)
        assert sym_poly == E_star(mu, ctx)


def test_dense_solver_matches():
    ctx = sym()
    before = scalars.opaque_divisors
    for mu in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (0, 1, 1)]:
        assert solve_E_star_dense(mu, ctx) == E_star(mu, ctx)
    # every pivot the elimination divides by splits into cyclotomic factors
    assert scalars.opaque_divisors == before
    spec = specialized(23, 4)
    for mu in [(2, 1), (0, 2, 1), (3, 0)]:
        assert solve_E_star_dense(mu, spec) == E_star(mu, spec)


def test_E_star_own_value_nonzero():
    ctx = sym()
    for mu in [(0, 0), (1, 0), (0, 2), (1, 1, 0)]:
        assert E_star_own_value(mu, ctx)
        v = E_star(mu, ctx).evaluate(tilde_point(mu, ctx))
        assert v == E_star_own_value(mu, ctx)


@pytest.mark.parametrize("lam", [(1, 0), (2, 0), (1, 1), (2, 1, 0)])
def test_E_star_via_permute_matches_solver(lam):
    ctx = sym()
    for mu in arrangements(lam):
        assert E_star_via_permute(mu, ctx) == E_star(mu, ctx)


def test_E_hom_is_homogeneous_top():
    ctx = sym()
    for mu in [(0, 2), (1, 0, 1), (2, 1)]:
        top = E_star(mu, ctx).top_part()
        d = sum(mu)
        assert all(sum(e) == d for e in top.terms)
        assert top.coefficient(mu) == ctx.one


# ---------------------------------------------------------------------------
# ASEP-indexed family
# ---------------------------------------------------------------------------


def test_f_star_partition_is_E_star():
    ctx = sym()
    assert f_star((2, 0), ctx) == E_star((2, 0), ctx)
    assert f_star((1, 1), ctx) == E_star((1, 1), ctx)


def test_f_star_zero_one_case():
    ctx = sym()
    assert f_star((0, 1), ctx) == x(2) - XPoly.one(2, ctx)
    assert f_star((0, 1), ctx) != E_star((0, 1), ctx)


def test_f_star_golden_02():
    assert f_star((0, 2), sym()) == golden_f_star_02()


@pytest.mark.parametrize("mu", [(0, 2), (1, 0), (0, 1), (1, 1), (2, 0)])
def test_f_star_matches_queue_sum_symbolic(mu):
    ctx = sym()
    assert f_star(mu, ctx) == F_star(mu, ctx)


@pytest.mark.parametrize("mu", [(0, 2, 1), (1, 0, 2), (0, 0, 3), (2, 0, 1), (0, 1, 1)])
def test_f_star_matches_queue_sum_specialized(mu):
    ctx = specialized(5, 4)
    assert f_star(mu, ctx) == F_star(mu, ctx)


def test_f_star_hecke_case_table():
    ctx = sym()
    t = ctx.qt(0, 1)
    for mu in [(2, 0), (0, 2), (1, 1), (2, 1), (1, 2)]:
        for i in (1,):
            a, b = mu[i - 1], mu[i]
            lhs = hecke_T(f_star(mu, ctx), i)
            if a > b:
                assert lhs == f_star(swap_pair(mu, i), ctx)
            elif a == b:
                assert lhs == f_star(mu, ctx) * t
            else:
                assert lhs == (f_star(swap_pair(mu, i), ctx) * t
                               - f_star(mu, ctx) * (ctx.one - t))


def test_f_hom_top_parts():
    ctx = sym()
    for mu in [(0, 2), (1, 0), (2, 1)]:
        assert f_hom(mu, ctx) == f_star(mu, ctx).top_part()


def test_verify_characterization():
    ctx = sym()
    for mu in [(0, 2), (1, 1), (2, 0, 1)]:
        assert verify_characterization(f_star(mu, ctx), mu, ctx)
        assert verify_characterization(F_star(mu, ctx), mu, ctx)
    # break the coefficient condition with an off-orbit monomial of small size
    g = f_star((0, 2), ctx) + XPoly.monomial(2, ctx, (1, 0))
    assert not verify_characterization(g, (0, 2), ctx)
    # and with a wrong orbit coefficient
    g2 = f_star((0, 2), ctx) + XPoly.monomial(2, ctx, (2, 0))
    assert not verify_characterization(g2, (0, 2), ctx)


def test_extra_vanishing_check():
    ctx = sym()
    for mu in [(1, 0), (0, 2), (1, 1)]:
        for nu in compositions_upto(4, 2):
            assert extra_vanishing_check(mu, nu, ctx)


def test_f_star_vanishes_off_the_orbit():
    # f* of a non-partition lives in the span of the interpolation
    # polynomials of the rearrangements, so it vanishes at every spectral
    # point of size <= |mu| outside that orbit
    ctx = sym()
    mu = (0, 2)
    orbit = set(arrangements(mu))
    poly = f_star(mu, ctx)
    for nu in compositions_upto(2, 2):
        v = poly.evaluate(tilde_point(nu, ctx))
        if nu == mu:
            assert v
        elif nu not in orbit:
            assert not v


# ---------------------------------------------------------------------------
# symmetric interpolation family
# ---------------------------------------------------------------------------


def _assert_P_star_characterized(lam, n, ctx):
    poly = P_star(lam, n, ctx)
    full = tuple(lam) + (0,) * (n - len(lam))
    assert is_symmetric(poly)
    assert poly.coefficient(full) == ctx.one
    assert symmetric_vanishing_violations(poly, lam, n, ctx) == []


@pytest.mark.parametrize("lam,n", [((1,), 2), ((2,), 2), ((1, 1), 2), ((2, 1), 2),
                                   ((1,), 3), ((2,), 3), ((1, 1), 3),
                                   ((3,), 2), ((4,), 2), ((2, 2), 2),
                                   ((2, 1), 3), ((3,), 3)])
def test_P_star_characterization(lam, n):
    _assert_P_star_characterized(lam, n, sym())


def test_P_star_characterization_specialized():
    _assert_P_star_characterized((2, 1, 1), 3, specialized(7, 4))


@pytest.mark.parametrize("lam,n", [((1,), 2), ((2,), 2), ((1, 1), 2), ((2, 1), 2),
                                   ((2,), 3)])
def test_P_star_is_sum_of_f_star(lam, n):
    ctx = sym()
    full = tuple(lam) + (0,) * (n - len(lam))
    total = XPoly.zero(n, ctx)
    for mu in arrangements(full):
        total = total + f_star(mu, ctx)
    assert total == P_star(lam, n, ctx)


def test_P_star_equals_queue_orbit_sum():
    ctx = sym()
    assert Z_star((2, 0), 2, ctx) == P_star((2,), 2, ctx)
    assert Z_star((1, 1), 2, ctx) == P_star((1, 1), 2, ctx)


def test_P_hom_symmetric_homogeneous():
    ctx = sym()
    top = P_star((2, 1), 2, ctx).top_part()
    assert is_symmetric(top)
    assert all(sum(e) == 3 for e in top.terms)


def test_P_star_single_column_is_e_star():
    ctx = sym()
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        assert P_star((1,) * k, n, ctx) == e_star_k(k, n, ctx)


# ---------------------------------------------------------------------------
# product formulas
# ---------------------------------------------------------------------------


def test_support_product_examples():
    ctx = sym()
    n = 3
    # S = {2}: x2 - t/t^2 = x2 - 1/t
    p = support_product({2}, n, ctx)
    assert p == XPoly.var(n, ctx, 2) - XPoly.const(n, ctx, ctx.qt(0, -1))
    # S = {1, 3}: (x1 - 1/t^2)(x3 - t/t^2)
    p2 = support_product({1, 3}, n, ctx)
    expected = ((XPoly.var(n, ctx, 1) - XPoly.const(n, ctx, ctx.qt(0, -2)))
                * (XPoly.var(n, ctx, 3) - XPoly.const(n, ctx, ctx.qt(0, -1))))
    assert p2 == expected


@pytest.mark.parametrize("mu", [(1, 0), (0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)])
def test_zero_one_types_factor(mu):
    ctx = sym()
    assert f_star(mu, ctx) == zero_one_f_star(mu, ctx)


def test_q1_support_sum():
    t0 = random_point(3, 4)[1]
    ctx = SpecializedScalars(1, t0)
    for lam, S in [((2, 0), {1}), ((2, 0), {2}), ((2, 1), {1, 2})]:
        assert support_sum_check(lam, S, ctx)


def test_q1_symmetric_factorization():
    t0 = random_point(7, 4)[1]
    ctx = SpecializedScalars(1, t0)
    assert factorization_q1_check((2,), 2, ctx)
    assert factorization_q1_check((1, 1), 2, ctx)
    assert factorization_q1_check((2, 1), 2, ctx)


def test_q1_sector_product_is_orbit_refinement():
    # the sector products over all supports add up to the full symmetric
    # product
    t0 = random_point(19, 4)[1]
    ctx = SpecializedScalars(1, t0)
    from itertools import combinations

    lam, n = (2, 1), 2
    k = 2
    total = XPoly.zero(n, ctx)
    for S in combinations(range(1, n + 1), k):
        total = total + q1_sector_product(set(S), lam, n, ctx)
    assert total == q1_symmetric_product(lam, n, ctx)


# ---------------------------------------------------------------------------
# extended family, h-family, decompositions
# ---------------------------------------------------------------------------


def test_extended_f_positive_index_is_homogeneous():
    ctx = sym()
    assert extended_f((0, 2), ctx) == f_hom((0, 2), ctx)


def test_extended_f_divisibility_and_tops():
    ctx = sym()
    for alpha in [(0, -2), (-2, 0), (-1, 1), (1, -1), (-2, 1), (-1, -1)]:
        assert extended_f(alpha, ctx) == extended_f_via_tops(alpha, ctx)


def test_extended_f_transition_recursion():
    ctx = sym()
    for alpha in [(2, 1), (1, -2), (-2, 1), (-1, -2), (2, -2), (-2, 2), (0, -2)]:
        for i in (1,):
            lhs = hecke_T(extended_f(alpha, ctx), i)
            rhs = XPoly.zero(len(alpha), ctx)
            for beta, coeff in transition_row(alpha, i, ctx).items():
                rhs = rhs + extended_f(beta, ctx) * coeff
            assert lhs == rhs, alpha


def test_h_transition_recursion():
    ctx = sym()
    for alpha in [(2, 0), (0, 2), (-2, 0), (2, -2), (-2, 1), (1, -2)]:
        for i in (1,):
            lhs = hecke_T(h_poly(alpha, ctx), i)
            rhs = XPoly.zero(len(alpha), ctx)
            for beta, coeff in transition_row(alpha, i, ctx).items():
                rhs = rhs + h_poly(beta, ctx) * coeff
            assert lhs == rhs, alpha


@pytest.mark.parametrize("mu", [(2, 0), (0, 2), (2, 1), (1, 2), (2, 2)])
def test_decomposition_two_vars(mu):
    ctx = sym()
    assert general_decomposition_rhs(mu, ctx) == f_star(mu, ctx)


def test_decomposition_three_vars_specialized():
    ctx = specialized(13, 4)
    for mu in [(0, 2, 0), (2, 0, 1), (0, 1, 2)]:
        assert general_decomposition_rhs(mu, ctx) == f_star(mu, ctx)


@pytest.mark.parametrize("mu", [(2, 0), (1, 0), (2, 1), (1, 1), (2, 2), (3, 0)])
def test_packed_recursion(mu):
    ctx = sym()
    assert packed_recursion_rhs(mu, ctx) == f_star(mu, ctx)


def test_packed_recursion_rejects_gap():
    with pytest.raises(ValueError):
        packed_recursion_rhs((0, 2), sym())


def test_hom_recursion_positive_types():
    # the homogeneous family satisfies the same two-row peeling without
    # the q-rescaling or the constant shift
    ctx = sym()
    for mu in [(2, 0), (0, 2), (2, 1), (0, 1)]:
        assert extended_f_via_tops(mu, ctx) == f_hom(mu, ctx)


def test_symbolic_families_take_no_opaque_path(monkeypatch):
    """Every divisor met while building the symbolic families splits into
    cyclotomic factors: no opaque denominator factor is made."""
    monkeypatch.setattr(interpolation, "_family_of",
                        cache(interpolation._Family))
    before = scalars.opaque_divisors
    E_star((4, 0), SYMBOLIC)
    E_star((3, 0, 0), SYMBOLIC)
    assert interpolation._family_of(2, SYMBOLIC).size == 4
    assert interpolation._family_of(3, SYMBOLIC).size == 3
    assert scalars.opaque_divisors == before
