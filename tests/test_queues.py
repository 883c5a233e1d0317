import hashlib
from itertools import chain

import pytest

from macdonald_interp import queues
from macdonald_interp.compositions import (
    arrangements, compositions_upto, signed_variants, sort_desc)
from macdonald_interp.hecke import unpack_coeffs
from macdonald_interp.interpolation import solve_P_star
from macdonald_interp.queues import (
    F_hom,
    F_star,
    Z_hom,
    Z_star,
    a_coeff,
    classic_matchings,
    classic_sits,
    enumerate_mlq,
    enumerate_smlq,
    g_coeff,
    multiset_placements,
    signed_matchings,
)
from macdonald_interp.render import poly_text, queue_text
from macdonald_interp.scalars import (
    QQ, SYMBOLIC, SpecializedScalars, specialized)
from macdonald_interp.xpoly import XPoly

from oracles import F_hom_by_queues, F_star_by_queues, is_symmetric


def sym_x(i, n=2):
    return XPoly.var(n, SYMBOLIC, i)


def golden_f_star_02():
    """Frozen expansion of the degree-2 interpolation sum at type (0,2)."""
    ctx = SYMBOLIC
    x1, x2 = sym_x(1), sym_x(2)
    qt = ctx.qt
    omt = ctx.binom(0, 1)          # 1 - t
    d = ctx.binom(1, 1)            # 1 - qt
    q_over_t = qt(1, -1)
    inv_t = qt(0, -1)
    return (
        (omt / d) * (x1 - q_over_t) * (x2 - inv_t)
        + (omt * inv_t) * (x1 - q_over_t)
        + (x2 - q_over_t) * (x2 - inv_t)
        + (omt * q_over_t) * (x2 - inv_t)
        + XPoly.const(2, ctx, qt(2, -2) * omt ** 3 / d)
        + (q_over_t * omt ** 2 / d) * (x2 - q_over_t)
    )


def golden_f_hom_02():
    ctx = SYMBOLIC
    x1, x2 = sym_x(1), sym_x(2)
    return (ctx.binom(0, 1) / ctx.binom(1, 1)) * x1 * x2 + x2 * x2


def test_multiset_placements():
    rows = list(multiset_placements((2, 2, 1), 3))
    assert len(rows) == 3  # choose the column of the 1
    assert (2, 2, 1) in rows and (1, 2, 2) in rows
    assert list(multiset_placements((), 2)) == [(0, 0)]


def test_classic_sits():
    assert classic_sits((2, 0), (0, 2))
    assert classic_sits((0, 2), (0, 2))
    assert not classic_sits((2, 0), (1, 2))
    assert classic_sits((2, 0), (-3, 1))


def test_smlq_count_02():
    assert sum(1 for _ in enumerate_smlq((0, 2))) == 15


def test_f_star_02_matches_golden():
    assert F_star((0, 2), SYMBOLIC) == golden_f_star_02()


def test_f_star_zero_type():
    one = XPoly.one(3, SYMBOLIC)
    assert F_star((0, 0, 0), SYMBOLIC) == one


def test_f_hom_02_matches_golden():
    assert F_hom((0, 2), SYMBOLIC) == golden_f_hom_02()


def test_f_hom_is_top_part_of_f_star():
    for mu in [(0, 2), (2, 0), (1, 1), (0, 1, 1), (2, 0, 1)]:
        fs = F_star(mu, SYMBOLIC)
        assert fs.top_part() == F_hom(mu, SYMBOLIC)
        assert fs.degree() == sum(mu)


def test_specialized_matches_symbolic():
    spec = specialized(17, 3)
    for mu in [(0, 2), (1, 0, 2)]:
        sym = F_star(mu, SYMBOLIC).specialize(spec.q0, spec.t0, spec)
        assert sym == F_star(mu, spec)


@pytest.mark.parametrize("ctx, ns", [
    (SYMBOLIC, (1, 2, 3)),
    (specialized(5, 4), (4,)),
    (specialized(7, 4, q_fixed=1), (3,)),
], ids=["symbolic", "specialized", "q1"])
def test_row_walk_equals_queue_by_queue_sums(ctx, ns):
    """The row-by-row sums equal the queue-by-queue sums as values and as
    printed text, for every type of size <= 3."""
    for n in ns:
        for mu in compositions_upto(3, n):
            for walk, by_queues in ((F_star, F_star_by_queues),
                                    (F_hom, F_hom_by_queues)):
                got, want = walk(mu, ctx), by_queues(mu, ctx)
                assert got == want, (walk.__name__, mu)
                assert poly_text(got) == poly_text(want), (walk.__name__, mu)


def test_generating_sums_weigh_no_queue(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generating sum listed or weighed a queue")

    monkeypatch.setattr(queues.SignedQueue, "weight_parts", refuse)
    monkeypatch.setattr(queues.Queue, "weight_parts", refuse)
    monkeypatch.setattr(queues, "enumerate_smlq", refuse)
    monkeypatch.setattr(queues, "enumerate_mlq", refuse)
    # a point no other test uses, so every memo entry is computed here
    ctx = SpecializedScalars(QQ(5, 11), QQ(-7, 3))
    assert F_star((1, 0, 2), ctx).coefficient((1, 0, 2)) == ctx.one
    assert F_hom((1, 0, 2), ctx).coefficient((1, 0, 2)) == ctx.one
    assert is_symmetric(Z_star((2, 1), 3, ctx))


def test_orbit_sums_reject_partitions_longer_than_n():
    for orbit_sum in (Z_star, Z_hom, solve_P_star):
        with pytest.raises(ValueError):
            orbit_sum((1, 1, 1), 2, SYMBOLIC)
        with pytest.raises(ValueError):
            orbit_sum((1, 2), 2, SYMBOLIC)
        padded = orbit_sum((2, 0, 0), 2, SYMBOLIC)
        assert padded.n == 2
        assert padded == orbit_sum((2,), 2, SYMBOLIC)


def test_contexts_at_one_point_share_the_memo():
    # q0 = 3/7 lies outside the seeded candidates, so no other test has
    # filled this entry
    a = SpecializedScalars(QQ(3, 7), QQ(-5, 4))
    b = SpecializedScalars(QQ(3, 7), QQ(-5, 4))
    assert a == b and hash(a) == hash(b)
    assert a != SpecializedScalars(QQ(3, 7), QQ(5, 4))
    before = F_star.cache_info().currsize
    assert F_star((0, 2), a) is F_star((0, 2), b)
    assert F_star.cache_info().currsize == before + 1


def test_leading_coefficient_is_one():
    # [x^mu] F*_mu = 1
    for mu in [(0, 2), (2, 0), (1, 1), (2, 0, 1), (0, 1, 2)]:
        assert F_star(mu, SYMBOLIC).coefficient(mu) == SYMBOLIC.one


def test_orbit_sums_are_symmetric():
    zs = Z_star((2, 1), 3, SYMBOLIC)
    assert is_symmetric(zs)
    zh = Z_hom((2, 1), 3, SYMBOLIC)
    assert is_symmetric(zh)
    assert zs.top_part() == zh


def test_order_invariance_per_queue():
    """Original and strand pairing orders weigh every queue identically."""
    for mu in [(0, 2), (2, 0, 1), (0, 1, 2), (1, 2, 0)]:
        for Q in enumerate_smlq(mu):
            assert Q.weight_parts(SYMBOLIC) == Q.weight_parts(
                SYMBOLIC, order="strand")


def test_no_pairing_under_smaller_negative():
    """No partner ball sits directly below a negative ball of smaller
    absolute label (implied by the sitting rules; checked explicitly)."""
    for mu in [(0, 2), (2, 1, 0), (0, 1, 2), (3, 0, 1)]:
        for Q in enumerate_smlq(mu):
            for layer in range(0, len(Q.rows) - 1, 2):
                upper = Q.rows[layer + 1]
                for j, k in Q.matchings[layer]:
                    a = abs(upper[j - 1])
                    above = upper[k - 1]
                    assert not (above < 0 and abs(above) < a)


def test_mlq_count_and_weights():
    queues = list(enumerate_mlq((0, 2)))
    assert len(queues) == 2
    total = sum((Q.weight(SYMBOLIC) for Q in queues), XPoly.zero(2, SYMBOLIC))
    assert total == golden_f_hom_02()


def test_a_coeff_goldens():
    ctx = SYMBOLIC
    omt, d = ctx.binom(0, 1), ctx.binom(1, 1)
    assert a_coeff((2, 0), (0, 2), ctx) == omt / d
    assert a_coeff((0, 2), (0, 2), ctx) == ctx.one
    assert a_coeff((0, 2), (2, 0), ctx) == ctx.qt(1, 0) * omt / d
    assert a_coeff((2, 0), (2, 0), ctx) == ctx.one
    # bottom 1s are skipped over but count as free
    assert a_coeff((0, 2), (1, 2), ctx) == ctx.one
    assert a_coeff((2, 0), (1, 2), ctx) == ctx.zero  # 2 cannot sit on 1
    assert a_coeff((2, 0), (2, 1), ctx) == ctx.one
    # top rows with 1s are not allowed
    assert a_coeff((1, 2), (1, 2), ctx) == ctx.zero


def test_a_coeff_free_count_includes_ones():
    ctx = SYMBOLIC
    # mu = (1, 0, 2): top (0,2,0) pairs 2 -> 3 skipping nothing, but the
    # unpaired 1 at column 1 is free: denominator sees t^2
    val = a_coeff((0, 2, 0), (1, 0, 2), ctx)
    assert val == ctx.binom(0, 1) / ctx.binom(1, 2)
    # the 2 cannot sit on the 1
    assert a_coeff((2, 0, 0), (1, 0, 2), ctx) == ctx.zero
    # top (0,0,2) is trivial
    assert a_coeff((0, 0, 2), (1, 0, 2), ctx) == ctx.one


def test_g_coeff_packed_delta():
    ctx = SYMBOLIC
    for mu in [(2, 3, 0), (2, 0, 0), (1, 1, 0)]:
        seen = set()
        for nu in arrangements(mu):
            for alpha in signed_variants(nu):
                if alpha in seen:
                    continue
                seen.add(alpha)
                want = ctx.one if tuple(abs(a) for a in alpha) == mu else ctx.zero
                assert g_coeff(alpha, mu, ctx) == want, (alpha, mu)


def test_g_coeff_matches_unpack_coeffs():
    """The signed two-row coefficients satisfy the same zero-unpacking
    recursion as the transition-matrix coefficients."""
    ctx = SYMBOLIC
    for mu in [(0, 2), (0, 1), (2, 0, 1), (0, 2, 1), (1, 0, 2), (0, 2, 0)]:
        b = unpack_coeffs(mu, ctx)
        for nu in arrangements(sort_desc(mu)):
            for alpha in signed_variants(nu):
                want = b.get(alpha, ctx.zero)
                assert g_coeff(alpha, mu, ctx) == want, (alpha, mu)


def test_signed_matchings_no_wrap():
    ms = list(signed_matchings((-2, 0), (0, 2)))
    assert ms == [{1: 2}]
    assert list(signed_matchings((0, -2), (2, 0))) == []


def test_classic_matchings_forced_trivial():
    ms = list(classic_matchings((2, 2), (2, -2)))
    assert ms == [{1: 1, 2: 2}]


def test_listing_order_is_pinned():
    """`enumerate`, `render` and the verify witnesses print queues in the
    order the enumerators list them; this hash fixes that order."""
    digest = hashlib.sha256()
    count = 0
    for n in (2, 3):
        for mu in compositions_upto(3, n):
            for Q in chain(enumerate_smlq(mu), enumerate_mlq(mu)):
                digest.update((queue_text(Q) + "\n").encode())
                count += 1
    assert count == 1334
    assert digest.hexdigest() == (
        "01ca678405d4bb0dda9af1f92d8263da24a39b62f669e344a37a208abdecfbfa")


@pytest.mark.parametrize("mu", [(0, 1), (0, 2)])
def test_unknown_pairing_order_is_rejected(mu):
    """An unknown order is refused even by queues without a classic layer,
    such as every queue of type (0,1)."""
    for Q in enumerate_smlq(mu):
        with pytest.raises(ValueError, match="unknown pairing order"):
            Q.weight(SYMBOLIC, order="bogus")
