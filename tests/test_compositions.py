from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald_interp.compositions import (
    absolute,
    arrangements,
    compositions_of,
    compositions_upto,
    conjugate,
    flip_pair,
    is_packed,
    is_partition,
    k_stat,
    minus_one,
    partitions_of,
    partitions_upto,
    r_stat,
    reduced_word,
    shortest_perm,
    signed_variants,
    sort_desc,
    support,
    tilde_point,
    unpack_path,
    word_from_partition,
)
from macdonald_interp.scalars import SYMBOLIC, RatQT

from oracles import (
    apply_word_to_comp,
    comp_lt,
    perm_act,
    perm_length,
    precedes,
    precedes_brute,
)

comps = st.lists(st.integers(0, 4), min_size=1, max_size=5).map(tuple)


def test_k_stat_example():
    # mu = (4,2,0,1,4): k = (1,2,4,3,0)
    assert k_stat((4, 2, 0, 1, 4)) == (1, 2, 4, 3, 0)


def test_tilde_point_example():
    pt = tilde_point((4, 2, 0, 1, 4), SYMBOLIC)
    expect = [
        RatQT.qt(4, -1),
        RatQT.qt(2, -2),
        RatQT.qt(0, -4),
        RatQT.qt(1, -3),
        RatQT.qt(4, 0),
    ]
    assert list(pt) == expect


def test_tilde_points_distinct():
    seen = {}
    for mu in compositions_upto(4, 3):
        key = tuple(tuple(c.num.terms) for c in tilde_point(mu, SYMBOLIC))
        assert key not in seen, (mu, seen[key])
        seen[key] = mu


def test_k_stat_partition_is_index():
    # on a strictly/weakly decreasing tuple, k_i counts later >= and
    # earlier > entries; for a partition of distinct parts it is just i-1
    assert k_stat((5, 3, 1)) == (0, 1, 2)
    assert k_stat((2, 2, 0)) == (1, 0, 2)


def test_basic_shape_helpers():
    assert sort_desc((0, 3, 1)) == (3, 1, 0)
    assert is_partition((3, 3, 1, 0)) and not is_partition((1, 2))
    assert minus_one((3, 0, 1)) == (2, 0, 0)
    assert is_packed((2, 1, 0)) and is_packed((3, 1)) and is_packed((0, 0))
    assert not is_packed((2, 0, 3)) and not is_packed((0, 1))
    assert support((0, 2, 0, 1)) == frozenset({1, 3})
    assert absolute((-2, 0, 3)) == (2, 0, 3)
    assert conjugate((3, 2, 2)) == (3, 3, 1)
    assert conjugate(()) == ()


def test_enumerators():
    assert len(list(compositions_of(3, 2))) == 4
    assert len(list(compositions_upto(2, 2))) == 1 + 2 + 3
    assert list(partitions_of(4, max_parts=2)) == [(4,), (3, 1), (2, 2)]
    assert set(partitions_upto(2, 2)) == {(0, 0), (1, 0), (2, 0), (1, 1)}
    assert arrangements((1, 1, 0)) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_comp_lt_examples():
    assert comp_lt((2, 0), (0, 2))  # same orbit, reversed is larger
    assert not comp_lt((0, 2), (2, 0))
    assert comp_lt((1, 0), (0, 2))  # smaller size
    assert comp_lt((1, 1), (2, 0))  # dominance on sorted shapes
    assert not comp_lt((2, 0), (1, 1))
    assert not comp_lt((0, 2), (0, 2))


def test_comp_lt_antidominant_maximal():
    # within an orbit the weakly increasing arrangement is maximal
    orbit = arrangements((3, 1, 0))
    anti = (0, 1, 3)
    for mu in orbit:
        if mu != anti:
            assert comp_lt(mu, anti)
            assert not comp_lt(anti, mu)


@settings(max_examples=80, deadline=None)
@given(comps, comps)
def test_comp_lt_antisymmetry(a, b):
    """comp_lt is a strict order: never both directions, never reflexive."""
    if len(a) != len(b):
        return
    assert not (comp_lt(a, b) and comp_lt(b, a))
    assert not comp_lt(a, a)


def test_perm_act_and_inverse():
    sigma = (2, 4, 1, 5, 3)
    lam = (4, 4, 3, 3, 1)
    assert perm_act(sigma, lam) == (3, 4, 1, 4, 3)


def test_shortest_perm_example():
    lam = (4, 4, 3, 3, 1)
    mu = (3, 4, 1, 4, 3)
    sigma = shortest_perm(lam, mu)
    assert sigma == (2, 4, 1, 5, 3)
    assert perm_act(sigma, lam) == mu


@settings(max_examples=80, deadline=None)
@given(comps)
def test_shortest_perm_is_shortest(mu):
    """shortest_perm has minimal inversion count among all sigma with
    sigma . lam = mu."""
    from itertools import permutations

    lam = sort_desc(mu)
    sigma = shortest_perm(lam, mu)
    assert perm_act(sigma, lam) == mu
    if len(mu) <= 4:
        best = min(
            perm_length(p)
            for p in permutations(range(1, len(mu) + 1))
            if perm_act(p, lam) == mu
        )
        assert perm_length(sigma) == best


def test_reduced_word_order_convention():
    # lam=(2,0) -> mu=(0,2) is the single swap s_1
    assert word_from_partition((2, 0), (0, 2)) == (1,)
    lam = (4, 4, 3, 3, 1)
    mu = (3, 4, 1, 4, 3)
    word = word_from_partition(lam, mu)
    assert len(word) == perm_length(shortest_perm(lam, mu))
    assert apply_word_to_comp(lam, word) == mu


@settings(max_examples=80, deadline=None)
@given(comps)
def test_word_rebuilds_composition(mu):
    """The word moves lam to mu, swapping a strict descent at every step."""
    lam = sort_desc(mu)
    word = word_from_partition(lam, mu)
    assert len(word) == perm_length(shortest_perm(lam, mu))
    cur = list(lam)
    for i in word:
        assert cur[i - 1] > cur[i]
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
    assert tuple(cur) == mu


def test_reduced_word_of_identity():
    assert reduced_word((1, 2, 3)) == ()


def test_precedes_examples():
    # reflexive; distinct same-size rearrangements never precede
    assert precedes((0, 2), (0, 2))
    assert not precedes((0, 2), (2, 0))
    assert not precedes((2, 0), (0, 2))
    # (1,0) -> (0,2) needs the part to move left with a strict gap: fails
    assert not precedes((1, 0), (0, 2))
    assert precedes((1, 0), (2, 0))
    assert precedes((0, 2), (3, 0))  # moving left is fine when strictly below
    assert not precedes((2, 2), (2, 0))


@settings(max_examples=150, deadline=None)
@given(comps, comps)
def test_precedes_matches_brute(a, b):
    if len(a) != len(b):
        return
    assert precedes(a, b) == precedes_brute(a, b)


def test_r_stat():
    assert r_stat((2, 0), 1) == 1
    assert r_stat((3, 2, 1), 1) == 1
    assert r_stat((3, 2, 1), 2) == 1
    assert r_stat((1, 3, 2, 1), 2) == 1
    assert r_stat((3, 3, 2, 1), 2) == 2  # left entry 3 falls in (2, 3]


def test_unpack_path_examples():
    start, word = unpack_path((0, 3, 0, 1))
    assert start == (3, 1, 0, 0)
    assert apply_word_to_comp(start, word) == (0, 3, 0, 1)
    # each step swaps a positive part leftward into a zero
    cur = list(start)
    for i in word:
        assert cur[i - 1] > 0 and cur[i] == 0
        cur[i - 1], cur[i] = cur[i], cur[i - 1]


@settings(max_examples=80, deadline=None)
@given(comps)
def test_unpack_path_property(mu):
    start, word = unpack_path(mu)
    assert start == tuple([m for m in mu if m > 0] + [0] * mu.count(0))
    cur = list(start)
    for i in word:
        assert cur[i - 1] > 0 and cur[i] == 0
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
    assert tuple(cur) == mu


def test_signed_variants():
    vs = signed_variants((2, 0, 1))
    assert len(vs) == 4
    assert (2, 0, 1) in vs and (-2, 0, -1) in vs
    assert all(absolute(v) == (2, 0, 1) for v in vs)


def test_flip_pair():
    assert flip_pair((1, 2, 3), 2) == (1, -2, -3)
