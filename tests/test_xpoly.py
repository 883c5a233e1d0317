import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald_interp.scalars import (
    QQ, SYMBOLIC, RatQT, SpecializedScalars, specialized)
from macdonald_interp.xpoly import XPoly

from oracles import is_symmetric, monomial_symmetric, swap

SPEC = SpecializedScalars(QQ(2, 3), QQ(5, 7))


def xv(i, n=3, ctx=SPEC):
    return XPoly.var(n, ctx, i)


def test_basic_arithmetic():
    x1, x2 = xv(1), xv(2)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert p - p == XPoly.zero(3, SPEC)
    assert (x1 + 1) ** 2 == x1 * x1 + 2 * x1 + 1


def test_degree_and_parts():
    x1, x2 = xv(1), xv(2)
    p = x1 * x1 * x2 + x2 + 1
    assert p.degree() == 3
    assert p.top_part() == x1 * x1 * x2
    assert XPoly.zero(3, SPEC).degree() == -1


def test_swap_and_permute():
    x1, x2, x3 = xv(1), xv(2), xv(3)
    p = x1 * x1 * x2 + x3
    assert swap(p, 1) == x2 * x2 * x1 + x3


def test_is_symmetric():
    m = monomial_symmetric(3, SPEC, (2, 1))
    assert is_symmetric(m)
    assert not is_symmetric(m + xv(1))
    assert len(m.terms) == 6


def test_monomial_symmetric_repeated_parts():
    m = monomial_symmetric(3, SPEC, (1, 1))
    assert len(m.terms) == 3
    assert m.coefficient((1, 1, 0)) == 1


def test_delta_basic():
    # delta_1 of x1^2 x2 = x1 x2 (geometric block between exponents)
    x1, x2 = xv(1), xv(2)
    p = x1 * x1 * x2
    assert p.delta(1) == x1 * x2
    # delta of a symmetric polynomial vanishes
    assert monomial_symmetric(3, SPEC, (2, 1)).delta(2) == XPoly.zero(3, SPEC)


def test_delta_matches_quotient_definition():
    x1, x2, x3 = xv(1), xv(2), xv(3)
    p = x1 ** 3 * x3 + 2 * x2 * x2 + x1
    i = 1
    lhs = p.delta(i) * (x1 - x2)
    assert lhs == p - swap(p, i)


def test_delta_laurent():
    # f = x1^{-1}: delta_1 f = (x1^{-1} - x2^{-1})/(x1-x2) = -x1^{-1} x2^{-1}
    f = XPoly.monomial(2, SPEC, (-1, 0))
    assert f.delta(1) == XPoly.monomial(2, SPEC, (-1, -1), SPEC.from_qq(-1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 3), st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 2)), min_size=1, max_size=5),
       st.integers(1, 2))
def test_delta_property(terms, i):
    """(x_i - x_{i+1}) * delta_i(f) == f - s_i(f), Laurent included."""
    p = XPoly(3, SPEC, {})
    for c, a, b, d in terms:
        p = p + XPoly.monomial(3, SPEC, (a - 1, b, d), SPEC.from_qq(c))
    lhs = p.delta(i) * (xv(i) - xv(i + 1))
    assert lhs == p - swap(p, i)


def test_divide_by_linear():
    x1, x2 = xv(1), xv(2)
    a = SPEC.from_qq(QQ(3, 2))
    f = (x1 - a) * (x1 * x2 + x2 + 2)
    assert f.divide_by_linear(1, a) == x1 * x2 + x2 + 2
    with pytest.raises(ValueError):
        (x1 * x2 + 1).divide_by_linear(1, a)


def test_evaluate_and_substitute():
    x1, x2 = xv(1), xv(2)
    p = x1 * x2 + x2 ** 2
    v = p.evaluate((QQ(1), QQ(2), QQ(0)))
    assert v == 2 + 4


def test_scale_vars():
    x1 = xv(1)
    p = x1 ** 2 + x1 + 1
    s = p.scale_vars(QQ(1, 2))
    assert s == QQ(1, 4) * x1 ** 2 + QQ(1, 2) * x1 + 1


def test_symbolic_coefficients_roundtrip():
    spec = specialized(9, 3)
    q0, t0 = spec.q0, spec.t0
    x1 = XPoly.var(2, SYMBOLIC, 1)
    x2 = XPoly.var(2, SYMBOLIC, 2)
    p = SYMBOLIC.qt(1, -1) * x1 + SYMBOLIC.binom(1, 1) * x2 ** 2
    ps = p.specialize(q0, t0, spec)
    assert ps.coefficient((1, 0)) == q0 / t0
    assert ps.coefficient((0, 2)) == 1 - q0 * t0


def test_str_output():
    x1, x2 = xv(1, 2), xv(2, 2)
    p = x1 ** 2 - x2 + 1
    s = str(p)
    assert "x1^2" in s and "x2" in s
