import fractions
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macdonald_interp import scalars
from macdonald_interp.scalars import (
    QQ,
    QT_ONE,
    QT_ZERO,
    PoleError,
    QTPoly,
    RatQT,
    SpecializedScalars,
    SymbolicScalars,
    factor_binomials,
    point_is_generic,
    random_point,
    rq_sum,
    specialized,
)


def qt(a, b, c=1):
    return QTPoly.monomial(a, b, c)


def test_qtpoly_basic_arithmetic():
    p = qt(1, 0) + qt(0, 1)  # q + t
    assert p * p == qt(2, 0) + 2 * qt(1, 1) + qt(0, 2)
    assert p - p == QT_ZERO
    assert (p * QT_ZERO) == QT_ZERO
    assert p ** 0 == QT_ONE
    assert p ** 3 == p * p * p


def test_qtpoly_laurent_shift():
    p = QTPoly.binomial(1, 0)  # 1 - q
    s = p.shift(-1, 2)
    assert s == qt(-1, 2) - qt(0, 2)


def test_qtpoly_substitute():
    p = QTPoly.binomial(2, 1)  # 1 - q^2 t
    assert p.substitute(QQ(1, 2), QQ(3)) == 1 - QQ(1, 4) * 3


def test_exact_div_roundtrip():
    a = QTPoly.binomial(1, 0) * QTPoly.binomial(0, 1) * qt(-2, 3, QQ(5, 7))
    b = QTPoly.binomial(0, 1) * qt(-1, 1)
    assert a.exact_div(b) * b == a


def test_exact_div_rejects_inexact():
    with pytest.raises(ValueError):
        QTPoly.binomial(1, 0).exact_div(QTPoly.binomial(0, 1))


def test_exact_div_geometric():
    # (1 - q^3) / (1 - q) = 1 + q + q^2
    got = QTPoly.binomial(3, 0).exact_div(QTPoly.binomial(1, 0))
    assert got == QT_ONE + qt(1, 0) + qt(2, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_exact_div_property(a, b, c, d):
    """exact_div inverts multiplication for binomial products."""
    p = QTPoly.binomial(a + 1, b) * QTPoly.binomial(c, d + 1)
    f = p * QTPoly.binomial(1, 1)
    assert f.exact_div(p) == QTPoly.binomial(1, 1)


def test_factor_binomials_full_split():
    p = (QTPoly.binomial(1, 0) * QTPoly.binomial(2, 4) ** 2
         * QTPoly.binomial(3, 3) * qt(0, -3, 4))
    factors, resid = factor_binomials(p)
    # 1 - q^2 t^4 = Phi_1(q t^2) Phi_2(q t^2)
    # 1 - q^3 t^3 = Phi_1(qt) Phi_3(qt)
    assert factors == (((1, 0, 1), 1), ((1, 1, 1), 1), ((1, 1, 3), 1),
                       ((1, 2, 1), 2), ((1, 2, 2), 2))
    assert resid == qt(0, -3, 4)
    qt_1 = qt(1, 1)
    rebuilt = (resid * QTPoly.binomial(1, 0)
               * (QTPoly.binomial(1, 2) * (QT_ONE + qt(1, 2))) ** 2
               * QTPoly.binomial(1, 1) * (QT_ONE + qt_1 + qt_1 * qt_1))
    assert rebuilt == p


def test_factor_binomials_qa_minus_tb():
    # q - t = -t (1 - q t^-1): Phi_1 in direction (1, -1)
    p = qt(1, 0) - qt(0, 1)
    assert factor_binomials(p) == ((((1, -1, 1), 1),), qt(0, 1, -1))
    factors, resid = factor_binomials(p * QTPoly.binomial(1, 1))
    assert factors == (((1, -1, 1), 1), ((1, 1, 1), 1))
    assert resid == qt(0, 1, -1)


def test_ratqt_normalization():
    r = RatQT(qt(2, 1, 6), qt(1, 1, 4))
    # a monomial denominator moves into the Laurent numerator
    assert r.den == QT_ONE
    assert r.num == qt(1, 0, QQ(3, 2))


def test_ratqt_cross_mult_equality():
    a = RatQT(QTPoly.binomial(2, 0), QTPoly.binomial(1, 0))  # (1-q^2)/(1-q)
    b = RatQT(QT_ONE + qt(1, 0))  # 1 + q
    assert a == b
    assert a + (-b) == 0


def test_ratqt_arithmetic_matches_specialization():
    rng = random.Random(5)
    q0, t0 = random_point(11, 3)
    for _ in range(25):
        def rand_poly():
            return sum(
                (qt(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-3, 3))
                 for _ in range(3)),
                QT_ZERO,
            )

        a_n, b_n = rand_poly(), rand_poly()
        a_d = QTPoly.binomial(1, 1) + qt(1, 0)
        b_d = QTPoly.binomial(2, 1)
        a = RatQT(a_n, a_d)
        b = RatQT(b_n, b_d)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            lhs = op(a, b).evaluate(q0, t0)
            rhs = op(a.evaluate(q0, t0), b.evaluate(q0, t0))
            assert lhs == rhs


def test_ratqt_division_and_pow():
    x = RatQT.qt(1, 0) - RatQT.qt(0, 1)
    assert x / x == 1
    assert x ** -2 * x ** 2 == 1
    with pytest.raises(ZeroDivisionError):
        x / RatQT.from_qq(0)


def test_ratqt_reduced_cancels():
    cases = [
        # a binomial factor of den cancels
        (QTPoly.binomial(1, 0) * QTPoly.binomial(2, 3),
         QTPoly.binomial(1, 0) * QTPoly.binomial(0, 1)),
        # the factor 1 + q = Phi_2(q) of den, which is no binomial, cancels
        ((QT_ONE + qt(1, 0)) * QTPoly.binomial(1, 1),
         (QT_ONE + qt(1, 0)) * QTPoly.binomial(0, 1)),
    ]
    for num, den in cases:
        r = RatQT(num, den).reduced()
        assert r.den == QTPoly.binomial(0, 1)
        assert r == RatQT(num, den)


def test_ratqt_reduced_returns_input_when_nothing_cancels():
    r = RatQT(QTPoly.binomial(2, 0), QTPoly.binomial(0, 1))
    assert r.reduced() is r


def test_factor_binomials_memo(monkeypatch):
    def build():
        return QTPoly.binomial(3, 1) * QTPoly.binomial(2, 8) * qt(2, 0, 7)

    first = factor_binomials(build())
    calls = []
    real_divide = scalars._divide

    def counting_divide(*args):
        calls.append(args)
        return real_divide(*args)

    monkeypatch.setattr(scalars, "_divide", counting_divide)
    second = factor_binomials(build())
    assert calls == []
    assert second is first
    assert second[0] == (((1, 4, 1), 1), ((1, 4, 2), 1), ((3, 1, 1), 1))


def test_sum_over_one_minus_q2t2_splits_into_cyclotomic_factors():
    before = scalars.opaque_divisors
    s = (RatQT(QT_ONE, QTPoly.binomial(2, 2))
         + RatQT(QT_ONE, QTPoly.binomial(1, 1)))
    # 1/(1 - q^2 t^2) + 1/(1 - qt) = (2 + qt) / (Phi_1(qt) Phi_2(qt))
    assert s.factors == (((1, 1, 1), 1), ((1, 1, 2), 1))
    assert s.num == QTPoly.const(2) + qt(1, 1)
    assert scalars.opaque_divisors == before


def test_opaque_divisor_is_counted_and_cancels():
    before = scalars.opaque_divisors
    d = QTPoly.binomial(1, 1) + qt(1, 0)  # 1 - qt + q
    r = RatQT(QTPoly.binomial(1, 0), d * QTPoly.binomial(1, 0))
    assert scalars.opaque_divisors == before + 1
    assert r.factors == (((0, 0, tuple(sorted(d.terms.items()))), 1),)
    assert r * RatQT(d) == 1
    assert r == RatQT(QT_ONE, d)
    assert hash(r) == hash(RatQT(QT_ONE, d))


def test_pole_error():
    r = RatQT(QT_ONE, QTPoly.binomial(1, 1))
    with pytest.raises(PoleError):
        r.evaluate(QQ(1, 2), QQ(2))


def test_rq_sum_telescoping():
    # 1/(1-q) - q/(1-q) == 1
    a = RatQT(QT_ONE, QTPoly.binomial(1, 0))
    b = RatQT(qt(1, 0, -1), QTPoly.binomial(1, 0))
    assert rq_sum([a, b]) == 1


def test_rq_sum_mixed_denominators():
    # 1/(1-q) + 1/(1-t) with a sanity evaluation
    a = RatQT(QT_ONE, QTPoly.binomial(1, 0))
    b = RatQT(QT_ONE, QTPoly.binomial(0, 1))
    s = rq_sum([a, b])
    q0, t0 = QQ(1, 2), QQ(1, 3)
    assert s.evaluate(q0, t0) == a.evaluate(q0, t0) + b.evaluate(q0, t0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 2),
                          st.integers(0, 2), st.integers(1, 2), st.integers(0, 2)),
                min_size=1, max_size=6))
def test_rq_sum_matches_naive(data):
    """rq_sum agrees with left-to-right addition after evaluation."""
    items = [
        RatQT(qt(nq, nt, c if c else 1), QTPoly.binomial(da, db))
        for c, nq, nt, da, db in data
    ]
    s = rq_sum(items)
    q0, t0 = QQ(2, 3), QQ(5, 2)
    expect = sum((r.evaluate(q0, t0) for r in items), QQ(0))
    assert s.evaluate(q0, t0) == expect


def test_symbolic_context():
    ctx = SymbolicScalars()
    assert ctx.binom(1, 1) == RatQT(QTPoly.binomial(1, 1))
    assert ctx.binom(-2, 1) == 1 - ctx.qt(-2, 1)
    assert ctx.sum([ctx.one, ctx.one]) == ctx.from_qq(2)
    assert not ctx.zero


def test_contexts_supply_only_constants_and_constructors():
    members = {"is_symbolic", "one", "zero", "qt", "binom", "from_qq", "sum"}
    for cls in (SymbolicScalars, SpecializedScalars):
        assert {m for m in vars(cls) if not m.startswith("_")} == members
        assert not any(isinstance(v, property) for v in vars(cls).values())
    assert scalars.QQ is fractions.Fraction


def test_specialized_context_matches_symbolic():
    sym = SymbolicScalars()
    spec = specialized(3, 4)
    expr_sym = sym.binom(2, 1) * sym.qt(1, -3) + sym.from_qq(QQ(2, 7))
    expr_spec = spec.binom(2, 1) * spec.qt(1, -3) + spec.from_qq(QQ(2, 7))
    assert expr_sym.evaluate(spec.q0, spec.t0) == expr_spec


def test_specialized_binom_pole_guard():
    spec = SpecializedScalars(QQ(1), QQ(1, 2))
    with pytest.raises(PoleError):
        spec.binom(0, 0)


def test_random_point_generic_and_deterministic():
    p1 = random_point(42, 4)
    p2 = random_point(42, 4)
    assert p1 == p2
    q0, t0 = p1
    assert point_is_generic(q0, t0, 4)
    assert q0 not in (0, 1, -1) and t0 not in (0, 1, -1)


def test_random_point_q_fixed():
    q0, t0 = random_point(7, 3, q_fixed=1)
    assert q0 == 1
    assert all(t0 ** b != 1 for b in range(1, 7))
