import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald_interp import tableaux
from macdonald_interp.compositions import (
    arrangements,
    partitions_upto,
    sort_desc,
)
from macdonald_interp.interpolation import f_star, solve_P_star
from macdonald_interp.queues import SignedQueue, enumerate_smlq
from macdonald_interp.scalars import SYMBOLIC, SpecializedScalars, specialized
from macdonald_interp.tableaux import (
    DoubledDiagram,
    J_star,
    attack_violations,
    classical_hook,
    coinv,
    empty_count,
    enumerate_tableaux,
    enumerate_tableaux_typed,
    filling_hooks,
    filling_violations,
    integral_tableaux_sum,
    integral_term,
    integral_weight,
    integrality_check,
    integrality_check_asep,
    maj,
    negative_count,
    tab,
    tab_inverse,
    tableau_from_columns,
    tableau_monomial,
    tableau_term,
    tableau_weight,
    tableaux_sum_typed,
)
from macdonald_interp.verify import figure_queue, figure_weight, run_suites
from macdonald_interp.xpoly import XPoly

from oracles import (
    integral_tableaux_sum_typed,
    specialize,
    tableaux_of_type_by_filter,
    tableaux_sum,
)

FIGURE_COLUMNS = (
    (7, -5, 5, -4, 3, -2),
    (1, -1, 6, 5),
    (2, 2, 2, 2),
    (6, -4, 4, -1),
    (8, 7),
)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts_match_queue_counts():
    for mu in [(0, 2), (2, 0), (1, 1), (0, 1, 1), (1, 0, 2), (3, 0),
               (0, 0, 2)]:
        lam = sort_desc(mu)
        assert len(enumerate_tableaux_typed(lam, mu)) == \
            sum(1 for _ in enumerate_smlq(mu))


def test_enumeration_counts_frozen():
    assert len(enumerate_tableaux_typed((2,), (0, 2))) == 15
    assert len(enumerate_tableaux_typed((2,), (2, 0))) == 10
    assert len(enumerate_tableaux_typed((1, 1), (1, 1))) == 4
    assert len(enumerate_tableaux_typed((3,), (3, 0))) == 50


def test_typed_enumeration_partitions_shape_enumeration():
    n = 3
    lam = (2, 1)
    by_type = {}
    for mu in arrangements(lam + (0,) * (n - len(lam))):
        by_type[mu] = enumerate_tableaux_typed(lam, mu)
    all_tabs = enumerate_tableaux(lam, n)
    assert sum(len(v) for v in by_type.values()) == len(all_tabs)
    assert {t.columns for v in by_type.values() for t in v} == {
        t.columns for t in all_tabs
    }


@pytest.mark.parametrize("n, top", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_typed_enumeration_matches_filtered_shape_enumeration(n, top):
    # same tableaux in the same order as filtering all of the shape by type
    for lam in partitions_upto(top, n):
        for mu in arrangements(lam):
            assert enumerate_tableaux_typed(lam, mu) == \
                tableaux_of_type_by_filter(lam, mu)


def test_typed_enumeration_rejects_wrong_shape():
    with pytest.raises(ValueError):
        enumerate_tableaux_typed((2, 1), (2, 2, 0))


def test_empty_shape_has_one_empty_tableau():
    tabs = enumerate_tableaux((), 3)
    assert len(tabs) == 1
    t = tabs[0]
    assert t.columns == ()
    assert t.type_of() == (0, 0, 0)
    assert tableau_weight(t, SYMBOLIC) == SYMBOLIC.one
    assert tableau_term(t, SYMBOLIC) == XPoly.one(3, SYMBOLIC)


def test_every_enumerated_tableau_is_valid():
    for mu in [(0, 2), (1, 1), (1, 0, 2)]:
        for t in enumerate_tableaux_typed(sort_desc(mu), mu):
            assert not filling_violations(t) + attack_violations(t)
            assert t.type_of() == mu


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_from_columns_round_trips_valid_input():
    t = tableau_from_columns(8, FIGURE_COLUMNS)
    assert t.columns == FIGURE_COLUMNS
    assert t.diagram == DoubledDiagram((3, 2, 2, 2, 1), 8)


def test_from_columns_rejects_odd_column():
    with pytest.raises(ValueError, match="even"):
        tableau_from_columns(2, ((2, 2, 2),))


def test_from_columns_rejects_increasing_shape():
    with pytest.raises(ValueError, match="weakly decreasing"):
        tableau_from_columns(3, ((2, 2), (3, 3, 3, 3)))


def test_from_columns_rejects_negative_classic_entry():
    with pytest.raises(ValueError):
        tableau_from_columns(2, ((-2, 2),))


def test_from_columns_rejects_primed_overhang():
    # primed 2 over classic 1 (the entry below is smaller in absolute value)
    with pytest.raises(ValueError):
        tableau_from_columns(2, ((1, 2),))


def test_from_columns_rejects_floating_positive_primed():
    # positive primed 1 does not reappear at the classic level below
    with pytest.raises(ValueError):
        tableau_from_columns(2, ((2, 1),))


def test_from_columns_rejects_same_level_repeat():
    with pytest.raises(ValueError):
        tableau_from_columns(2, ((2, 2), (2, 1)))


def test_from_columns_rejects_increasing_tops():
    # equal-height columns must have tops decreasing in absolute value
    with pytest.raises(ValueError):
        tableau_from_columns(3, ((1, 1), (3, 3)))


def test_negative_primed_entry_may_float():
    t = tableau_from_columns(2, ((2, -1),))
    assert not filling_violations(t) + attack_violations(t)
    assert t.type_of() == (0, 1)


# ---------------------------------------------------------------------------
# the strand bijection
# ---------------------------------------------------------------------------


def test_tab_images_are_exactly_the_tableaux():
    for mu in [(0, 2), (2, 0), (1, 1), (0, 1, 1), (1, 0, 2), (2, 2, 0)]:
        images = {}
        for Q in enumerate_smlq(mu):
            t = tab(Q)
            assert not filling_violations(t) + attack_violations(t)
            assert t.type_of() == mu
            assert t.columns not in images  # injectivity
            images[t.columns] = Q
        expected = {
            t.columns for t in enumerate_tableaux_typed(sort_desc(mu), mu)
        }
        assert set(images) == expected


def test_tab_inverse_round_trips():
    for mu in [(0, 2), (1, 1), (1, 0, 2), (0, 2, 2)]:
        for Q in enumerate_smlq(mu):
            assert tab_inverse(tab(Q)) == Q


def test_tab_inverse_validates_first():
    broken = tableau_from_columns(8, FIGURE_COLUMNS)
    cols = list(map(list, broken.columns))
    cols[0][0] = 4  # collides with the 4' entry of column 3 at that level
    with pytest.raises(ValueError):
        tab_inverse(tableau_from_columns(8, tuple(map(tuple, cols))))


def test_tab_inverse_of_empty_tableau():
    t = enumerate_tableaux((), 2)[0]
    Q = tab_inverse(t)
    assert Q.rows == ((0, 0),)


# ---------------------------------------------------------------------------
# statistics and weights
# ---------------------------------------------------------------------------


def test_straight_column_is_weightless():
    # a column repeating one entry is restricted everywhere: weight 1
    t = tableau_from_columns(2, ((2, 2, 2, 2),))
    assert tableau_weight(t, SYMBOLIC) == SYMBOLIC.one
    assert maj(t) == coinv(t) == negative_count(t) == empty_count(t) == 0
    x2 = XPoly.var(2, SYMBOLIC, 2)
    assert tableau_term(t, SYMBOLIC) == x2 * x2


def test_leading_term_of_typed_sum_is_dominant_monomial():
    for mu in [(0, 2), (2, 0), (1, 1), (1, 0, 2)]:
        assert tableaux_sum_typed(mu, SYMBOLIC).coefficient(mu) == \
            SYMBOLIC.one


def test_figure_tableau_statistics():
    T = tab(figure_queue())
    assert T.columns == FIGURE_COLUMNS
    assert T.type_of() == (2, 2, 0, 0, 0, 2, 3, 1)
    assert (maj(T), coinv(T), negative_count(T), empty_count(T)) == \
        (1, 2, 5, 2)


def test_figure_weight_golden_three_ways():
    ctx = SYMBOLIC
    Q = figure_queue()
    golden = figure_weight(ctx)
    assert Q.weight(ctx) == golden
    assert Q.weight(ctx, order="strand") == golden
    assert tableau_term(tab(Q), ctx) == golden


def test_weight_preserved_per_queue():
    ctx = SYMBOLIC
    for mu in [(0, 2), (2, 0), (1, 1), (2, 2), (0, 1, 1), (1, 0, 2),
               (0, 2, 2), (2, 0, 2)]:
        for Q in enumerate_smlq(mu):
            assert Q.weight(ctx, order="strand") == \
                tableau_term(tab(Q), ctx)


def test_typed_sums_match_interpolation_asep():
    ctx = SYMBOLIC
    for mu in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 1), (2, 1), (1, 2)]:
        assert tableaux_sum_typed(mu, ctx) == f_star(mu, ctx)


def test_typed_sums_match_asep_specialized_n3():
    spec = specialized(23, 5)
    for mu in [(0, 1, 1), (1, 0, 2), (0, 0, 2), (2, 1, 0)]:
        assert tableaux_sum_typed(mu, spec) == f_star(mu, spec)


def test_shape_sums_match_symmetric_interpolation():
    ctx = SYMBOLIC
    for lam, n in [((1,), 2), ((2,), 2), ((1, 1), 2), ((2, 1), 2),
                   ((2,), 3)]:
        assert tableaux_sum(lam, n, ctx) == solve_P_star(lam, n, ctx)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_typed_sum_specializations_agree(seed):
    spec = specialized(seed, 4)
    for mu in [(2, 0), (1, 1)]:
        sym = specialize(tableaux_sum_typed(mu, SYMBOLIC),
                         spec.q0, spec.t0, spec)
        assert sym == tableaux_sum_typed(mu, spec)


# ---------------------------------------------------------------------------
# the integral form
# ---------------------------------------------------------------------------


def test_filling_hooks_are_classical():
    ctx = SYMBOLIC
    for lam, n in [((1,), 2), ((2,), 2), ((1, 1), 2), ((2, 1), 2),
                   ((2,), 3), ((3,), 2), ((2, 2), 2), ((1, 1), 3),
                   ((2, 2), 3), ((1, 1, 1), 3)]:
        assert filling_hooks(lam, n, ctx) == {classical_hook(lam, ctx)}
    assert filling_hooks((), 2, ctx) == {ctx.one}


def test_hook_constancy_fails_on_filling_dependent_arms(monkeypatch):
    # an arm that reads the entries makes the product depend on the
    # filling: the constancy report fails and lists the products
    monkeypatch.setattr(
        tableaux, "arm", lambda t, c, idx: abs(t.entry(c, idx)))
    assert len(filling_hooks((1,), 2, SYMBOLIC)) == 2
    report = next(r for r in run_suites("integral-form", 2, 1)
                  if r.instance == "hook constancy lambda=(1,0) n=2")
    assert not report.ok


def test_classical_hook_rejects_non_partitions():
    with pytest.raises(ValueError, match="not weakly decreasing"):
        classical_hook((1, 2), SYMBOLIC)
    assert classical_hook((2, 0, 1), SYMBOLIC) == \
        classical_hook((2, 1), SYMBOLIC)


def test_integral_weight_is_hook_times_weight():
    ctx = SYMBOLIC
    for mu in [(0, 2), (1, 1), (2, 1), (0, 1, 1), (0, 2, 2)]:
        lam = sort_desc(mu)
        h = classical_hook(lam, ctx)
        for t in enumerate_tableaux_typed(lam, mu):
            assert integral_weight(t, ctx) == h * tableau_weight(t, ctx)
            assert integral_term(t, ctx) == \
                tableau_term(t, ctx) * h


def test_integral_sums_match_hook_scaled_polynomials():
    ctx = SYMBOLIC
    for lam, n in [((2,), 2), ((1, 1), 2), ((2, 1), 2), ((2,), 3)]:
        assert integral_tableaux_sum(lam, n, ctx) == J_star(lam, n, ctx)
    for mu in [(0, 2), (1, 1), (2, 1)]:
        want = f_star(mu, ctx) * classical_hook(sort_desc(mu), ctx)
        assert integral_tableaux_sum_typed(mu, ctx) == want


def test_integrality_of_cleared_coefficients():
    ctx = SYMBOLIC
    for lam, n in [((2,), 2), ((1, 1), 2), ((2, 1), 2)]:
        assert integrality_check(lam, n, ctx)
    for mu in [(0, 2), (1, 1), (2, 1), (1, 0, 2)]:
        assert integrality_check_asep(mu, ctx)


def test_integrality_requires_symbolic_mode():
    with pytest.raises(ValueError):
        integrality_check((2,), 2, SpecializedScalars(3, 5))
    with pytest.raises(ValueError):
        integrality_check_asep((0, 2), SpecializedScalars(3, 5))
