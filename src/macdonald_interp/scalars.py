"""Exact scalar arithmetic over Q(q, t).

Two coefficient domains share one interface:

* symbolic  -- elements of Q(q, t) (`RatQT`): a Laurent polynomial (`QTPoly`)
  over a product of cyclotomic factors Phi_d(q^a t^b), kept as a sorted
  tuple of factors with multiplicities, with no listed factor dividing the
  numerator.  The form is canonical: equal values hash equal and print the
  same text.  Products add the factor maps, sums (`rq_sum`) use their
  pointwise maximum, and only dividing by a polynomial factors it
  (`factor_binomials`, once per distinct divisor).  A divisor that does not
  split leaves an opaque factor, counted in `opaque_divisors`; only values
  with one compare by cross multiplication.
* specialized -- plain exact rationals after substituting a fixed rational
  point (q0, t0) chosen to avoid all poles in range (see `random_point`).

Everything downstream (polynomials in x, queue weights, solvers) is generic
over these two domains via the `SymbolicScalars` / `SpecializedScalars`
context objects.  A context supplies the constants and constructors (`one`,
`zero`, `qt`, `binom`, `from_qq`) and `sum`; all other arithmetic and the
zero test (truth value) are the scalars' own.  A context is its own memo key:
`SYMBOLIC` is the one symbolic context, and specialized contexts compare
and hash by their point, so contexts built from the same point share every
memoized family.
"""

from __future__ import annotations

import random
from fractions import Fraction as QQ
from functools import cache
from math import gcd


class PoleError(ZeroDivisionError):
    """A specialization hit a vanishing denominator."""


def _gl_key(e):
    # graded lex with q > t, on (e_q, e_t)
    return (e[0] + e[1], e[0])


class QTPoly:
    """Sparse Laurent polynomial in q and t with exact rational coefficients.

    Terms are stored as {(e_q, e_t): coeff}; zero coefficients are dropped.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c != 0}
        else:
            self.terms = {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        c = QQ(c)
        return QTPoly({(0, 0): c}) if c != 0 else QTPoly()

    @staticmethod
    def monomial(eq, et, c=1):
        c = QQ(c)
        return QTPoly({(eq, et): c}) if c != 0 else QTPoly()

    @staticmethod
    def binomial(a, b):
        """1 - q^a t^b."""
        if a == 0 and b == 0:
            return QTPoly()
        return QTPoly({(0, 0): QQ(1), (a, b): QQ(-1)})

    # -- basic structure ---------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, QTPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self == QTPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def min_exps(self):
        return (min(e[0] for e in self.terms), min(e[1] for e in self.terms))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = QTPoly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        res = QTPoly.__new__(QTPoly)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = QTPoly.__new__(QTPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, int):
            other = QTPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QTPoly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    k = (e1[0] + e2[0], e1[1] + e2[1])
                    v = out.get(k, 0) + c1 * c2
                    if v:
                        out[k] = v
                    else:
                        out.pop(k, None)
            res = QTPoly.__new__(QTPoly)
            res.terms = out
            return res
        c = QQ(other)
        if c == 0:
            return QTPoly()
        res = QTPoly.__new__(QTPoly)
        res.terms = {e: c0 * c for e, c0 in self.terms.items()}
        return res

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial; use RatQT")
        result = QTPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, dq, dt):
        """Multiply by the monomial q^dq t^dt."""
        res = QTPoly.__new__(QTPoly)
        res.terms = {(e[0] + dq, e[1] + dt): c for e, c in self.terms.items()}
        return res

    # -- division ----------------------------------------------------------

    def exact_div(self, other):
        """Exact quotient self/other; raises ValueError if not divisible."""
        if not other.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return QTPoly()
        sq, st = self.min_exps()
        oq, ot = other.min_exps()
        f = {(e[0] - sq, e[1] - st): c for e, c in self.terms.items()}
        g = {(e[0] - oq, e[1] - ot): c for e, c in other.terms.items()}
        g_lt = max(g, key=_gl_key)
        g_lc = g[g_lt]
        quot = {}
        while f:
            f_lt = max(f, key=_gl_key)
            dq, dt = f_lt[0] - g_lt[0], f_lt[1] - g_lt[1]
            if dq < 0 or dt < 0:
                raise ValueError("inexact polynomial division")
            c = f[f_lt] / g_lc
            quot[(dq, dt)] = c
            for e, gc in g.items():
                k = (e[0] + dq, e[1] + dt)
                v = f.get(k, 0) - c * gc
                if v:
                    f[k] = v
                else:
                    f.pop(k, None)
        res = QTPoly.__new__(QTPoly)
        res.terms = quot
        return res.shift(sq - oq, st - ot)

    def try_div(self, other):
        try:
            return self.exact_div(other)
        except ValueError:
            return None

    # -- evaluation --------------------------------------------------------

    def substitute(self, q0, t0):
        total = QQ(0)
        for (eq, et), c in self.terms.items():
            total += c * QQ(q0) ** eq * QQ(t0) ** et
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_gl_key, reverse=True):
            c = self.terms[e]
            mono = []
            if e[0]:
                mono.append("q" if e[0] == 1 else f"q^{e[0]}")
            if e[1]:
                mono.append("t" if e[1] == 1 else f"t^{e[1]}")
            mstr = "*".join(mono)
            if not mstr:
                parts.append(str(c))
            elif c == 1:
                parts.append(mstr)
            elif c == -1:
                parts.append(f"-{mstr}")
            else:
                parts.append(f"{c}*{mstr}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


QT_ZERO = QTPoly()
QT_ONE = QTPoly.const(1)


# ---------------------------------------------------------------------------
# cyclotomic factors Phi_d(q^a t^b), keyed (a, b, d)
# ---------------------------------------------------------------------------


def _div_series(r, phi):
    """Quotient of the coefficient list r by phi (constant terms first,
    phi[0] == 1), or None when phi does not divide r."""
    n = len(r) - len(phi) + 1
    r = list(r)
    for i in range(max(n, 0)):
        if r[i]:
            for j in range(1, len(phi)):
                r[i + j] -= r[i] * phi[j]
    return None if n <= 0 or any(r[n:]) else r[:n]


@cache
def _cyclotomic(d):
    """Coefficients of Phi_d, constant term first; Phi_1 is written 1 - x,
    so that every factor has constant term 1."""
    poly = (1,) + (0,) * (d - 1) + (-1,)  # 1 - x^d, the product over e | d
    for e in range(1, d):
        if d % e == 0:
            poly = _div_series(poly, _cyclotomic(e))
    return tuple(poly)


@cache
def _orders(length):
    """Every d with phi(d) <= length; phi(d) >= sqrt(d/2) bounds the scan."""
    return tuple(d for d in range(1, 2 * length * length + 1)
                 if sum(gcd(k, d) == 1 for k in range(d)) <= length)


@cache
def _factor_poly(key):
    """The factor of a key: Phi_d(q^a t^b), or for an opaque key
    (0, 0, terms) the polynomial with those terms."""
    a, b, d = key
    if not (a or b):
        return QTPoly(dict(d))
    return QTPoly({(k * a, k * b): QQ(c)
                   for k, c in enumerate(_cyclotomic(d)) if c})


@cache
def _expand(factors):
    """The product of a factor tuple, as one polynomial."""
    out = QT_ONE
    for key, mult in factors:
        out = out * _factor_poly(key) ** mult
    return out


@cache
def _den_form(factors):
    """(den, dq, dt, sign) with prod(factors) = sign * q^dq t^dt * den, den
    free of monomial factors with positive graded-lex trailing coefficient."""
    den = _expand(factors)
    dq, dt = den.min_exps()
    sign = -1 if den.terms[min(den.terms, key=_gl_key)] < 0 else 1
    return den.shift(-dq, -dt) * sign, dq, dt, sign


def _divide(p, key):
    """p divided by the factor of key, or None when it does not divide.

    Phi_d(q^a t^b) lies on one line of direction (a, b), so the division
    splits into one univariate division per line of terms of p."""
    a, b, d = key
    if not (a or b):
        return p.try_div(_factor_poly(key))
    lines = {}
    for (eq, et), c in p.terms.items():
        k = eq // a if a else et
        lines.setdefault((eq - k * a, et - k * b), {})[k] = c
    out = QTPoly()
    for (bq, bt), line in lines.items():
        lo = min(line)
        quot = _div_series([line.get(k, 0) for k in range(lo, max(line) + 1)],
                           _cyclotomic(d))
        if quot is None:
            return None
        out.terms.update(((bq + i * a, bt + i * b), c)
                         for i, c in enumerate(quot, lo) if c)
    return out


# Results are shared between callers, which is safe because no code
# changes a QTPoly's terms in place.
@cache
def factor_binomials(p):
    """Split p into cyclotomic factors and a residual.

    Returns (factors, residual) with p = residual * prod(factors), factors
    a sorted tuple of ((a, b, d), multiplicity).  If Phi_d(q^a t^b) divides
    p, the terms of p on the line of direction (a, b) through its least
    exponent reach at least phi(d) steps, so only those (a, b, d) are tried.
    The residual is a monomial unless p has a factor that is not cyclotomic.
    Results are memoized on the value of p.
    """
    if not p.terms or len(p.terms) == 1:
        return (), p
    q0, t0 = min(p.terms)
    reach = {}
    for eq, et in p.terms:
        g = gcd(eq - q0, et - t0)
        if g:  # the direction is (a, b) with a > 0 or a = 0 < b
            ab = ((eq - q0) // g, (et - t0) // g)
            reach[ab] = max(reach.get(ab, 0), g)
    factors = {}
    for (a, b), length in reach.items():
        for d in _orders(length):
            while (quot := _divide(p, (a, b, d))) is not None:
                p = quot
                factors[(a, b, d)] = factors.get((a, b, d), 0) + 1
    return tuple(sorted(factors.items())), p


# Divisions by a polynomial that did not split into cyclotomic factors and
# a monomial: each one left an opaque factor in a denominator.
opaque_divisors = 0


def _reciprocal(p):
    """1/p for a QTPoly p, with p factored by factor_binomials."""
    global opaque_divisors
    if not p.terms:
        raise ZeroDivisionError("division by zero in Q(q,t)")
    factors, resid = factor_binomials(p)
    if len(resid.terms) > 1:
        opaque_divisors += 1
        factors = tuple(sorted(
            factors + (((0, 0, tuple(sorted(resid.terms.items()))), 1),)))
        resid = QT_ONE
    ((eq, et), c), = resid.terms.items()
    return _raw(QTPoly.monomial(-eq, -et, QQ(1) / c), factors)


def _cancel(num, factors):
    """Divide num by each listed factor as often as it divides, at most its
    multiplicity; returns (num, the factors left over)."""
    if not factors or len(num.terms) < 2:
        return num, factors
    left = []
    for key, mult in factors:
        while mult and (quot := _divide(num, key)) is not None:
            num, mult = quot, mult - 1
        if mult:
            left.append((key, mult))
    return num, tuple(left)


def _merge(f, g):
    """The factors of a product: multiplicities add."""
    out = dict(f)
    for key, mult in g:
        out[key] = out.get(key, 0) + mult
    return tuple(sorted(out.items())) if f and g else f or g


def _raw(num, factors):
    """num / prod(factors) as a RatQT, for num free of the factors."""
    if not num.terms:
        return RAT_ZERO
    r = RatQT.__new__(RatQT)
    r.num, r.factors = num, factors
    return r


class RatQT:
    """Element of Q(q, t): num / prod Phi_d(q^a t^b)^m over the sorted
    tuple `factors` of ((a, b, d), m), (a, b) primitive with a > 0 or
    a = 0 < b, and no listed factor dividing num.  An opaque factor
    (0, 0, terms) is a divisor that did not split."""

    __slots__ = ("num", "factors")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = QTPoly.const(num)
        self.num, self.factors = num, ()
        if den is not None:
            r = self * _reciprocal(
                QTPoly.const(den) if isinstance(den, int) else den)
            self.num, self.factors = r.num, r.factors

    @staticmethod
    def from_qq(c):
        return RatQT(QTPoly.const(c))

    @staticmethod
    def qt(a, b, c=1):
        return RatQT(QTPoly.monomial(a, b, c))

    @property
    def den(self):
        return _expand(self.factors)

    def _opaque(self):  # opaque keys sort first
        return bool(self.factors) and self.factors[0][0][:2] == (0, 0)

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = RatQT.from_qq(other)
        if not isinstance(other, RatQT):
            return NotImplemented
        if self.factors == other.factors:
            return self.num == other.num
        if self._opaque() or other._opaque():
            return self.num * other.den == other.num * self.den
        return False

    def __hash__(self):
        # a value with an opaque factor equals no value without one
        return hash(0 if self._opaque() else (self.num, self.factors))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = RatQT.from_qq(other)
        if not isinstance(other, RatQT):
            return NotImplemented
        if not (self and other):
            return self or other
        if self.factors == other.factors:
            return _raw(self.num + other.num, self.factors).reduced()
        return rq_sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.num, self.factors)

    def __sub__(self, other):
        if isinstance(other, int):
            other = RatQT.from_qq(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = RatQT.from_qq(other)
        if not isinstance(other, RatQT):
            return NotImplemented
        a, rest_other = _cancel(self.num, other.factors)
        b, rest_self = _cancel(other.num, self.factors)
        return _raw(a * b, _merge(rest_self, rest_other))

    __rmul__ = __mul__

    def inverse(self):
        """1/self; ZeroDivisionError for zero."""
        r = _reciprocal(self.num)
        return _raw(r.num * self.den, r.factors) if self.factors else r

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatQT.from_qq(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return RatQT.from_qq(other) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        return _raw(self.num ** k,
                    tuple((key, mult * k) for key, mult in self.factors if k))

    # -- reduction / evaluation --------------------------------------------

    def reduced(self):
        """Cancel the listed factors that divide the numerator, as a sum
        may produce.  Returns self when nothing cancels."""
        num, factors = _cancel(self.num, self.factors)
        return self if num is self.num else _raw(num, factors)

    def in_zqt(self):
        """True when self lies in Z[q, t]: no denominator factor, no
        negative exponent, integer coefficients."""
        return not self.factors and all(
            eq >= 0 and et >= 0 and c.denominator == 1
            for (eq, et), c in self.num.terms.items())

    def evaluate(self, q0, t0):
        d = self.den.substitute(q0, t0)
        if d == 0:
            raise PoleError(f"denominator vanishes at q={q0}, t={t0}")
        return self.num.substitute(q0, t0) / d

    def __str__(self):
        """num/den over polynomials in q, t with no common monomial factor,
        den with positive graded-lex trailing coefficient."""
        num = self.num
        if not num.terms:
            return "0"
        (nq, nt), (den, dq, dt, sign) = num.min_exps(), _den_form(self.factors)
        a, b = nq - dq, nt - dt
        if max(a, 0) != nq or max(b, 0) != nt:
            num = num.shift(max(a, 0) - nq, max(b, 0) - nt)
        if a < 0 or b < 0:
            den = den.shift(max(-a, 0), max(-b, 0))
        num = -num if sign < 0 else num
        if den == QT_ONE:
            return str(num)
        ns = str(num) if len(num.terms) == 1 else f"({num})"
        ds = str(den) if len(den.terms) == 1 else f"({den})"
        return f"{ns}/{ds}"

    __repr__ = __str__


RAT_ZERO = RatQT(QT_ZERO)
RAT_ONE = RatQT(QT_ONE)


def rq_sum(items):
    """Sum RatQT values: numerators add per factor tuple, then over the
    common denominator, the pointwise maximum of the factor maps."""
    groups = {}
    for r in items:
        if r:
            fs = r.factors
            groups[fs] = groups[fs] + r.num if fs in groups else r.num
    lcd = {}
    for fs in groups:
        for key, mult in fs:
            lcd[key] = max(lcd.get(key, 0), mult)
    lcd = tuple(sorted(lcd.items()))
    total = QT_ZERO
    for fs, num in groups.items():
        if fs != lcd:
            have = dict(fs)
            num = num * _expand(tuple((key, mult - have.get(key, 0))
                                      for key, mult in lcd
                                      if mult > have.get(key, 0)))
        total = total + num
    return _raw(total, lcd).reduced()


# ---------------------------------------------------------------------------
# coefficient contexts
# ---------------------------------------------------------------------------


class SymbolicScalars:
    """Coefficients are elements of Q(q, t)."""

    is_symbolic = True
    one = RAT_ONE
    zero = RAT_ZERO

    def qt(self, a, b, c=1):
        return RatQT.qt(a, b, c)

    def binom(self, a, b):
        """1 - q^a t^b (exact, a or b may be negative)."""
        return RatQT(QTPoly.binomial(a, b))

    def from_qq(self, c):
        return RatQT.from_qq(c)

    def sum(self, items):
        return rq_sum(items)

    def __repr__(self):
        return "SymbolicScalars()"


class SpecializedScalars:
    """Coefficients are exact rationals at a fixed point (q0, t0)."""

    is_symbolic = False
    one = QQ(1)
    zero = QQ(0)

    def __init__(self, q0, t0):
        self.q0 = QQ(q0)
        self.t0 = QQ(t0)

    def __eq__(self, other):
        return (isinstance(other, SpecializedScalars)
                and (self.q0, self.t0) == (other.q0, other.t0))

    def __hash__(self):
        return hash((self.q0, self.t0))

    def qt(self, a, b, c=1):
        return self.q0 ** a * self.t0 ** b * QQ(c)

    def binom(self, a, b):
        v = 1 - self.q0 ** a * self.t0 ** b
        if v == 0:
            raise PoleError(f"1 - q^{a} t^{b} vanishes at ({self.q0}, {self.t0})")
        return v

    def from_qq(self, c):
        return QQ(c)

    def sum(self, items):
        return sum(items, self.zero)

    def __repr__(self):
        return f"SpecializedScalars(q0={self.q0}, t0={self.t0})"


SYMBOLIC = SymbolicScalars()


def _candidate_values():
    vals = set()
    for a in range(1, 6):
        for b in range(1, 6):
            v = QQ(a, b)
            if v not in (0, 1):
                vals.add(v)
                vals.add(-v)
    return sorted(vals)


_CANDIDATES = _candidate_values()


def point_is_generic(q0, t0, bound):
    """True when q0^a t0^b != 1 for all |a|, |b| <= 2*bound, (a,b) != (0,0)."""
    m = 2 * bound
    q0, t0 = QQ(q0), QQ(t0)
    for a in range(-m, m + 1):
        qa = q0 ** a
        for b in range(-m, m + 1):
            if a == 0 and b == 0:
                continue
            if qa * t0 ** b == 1:
                return False
    return True


def random_point(seed, bound, q_fixed=None):
    """Seeded random rational point avoiding all poles for sizes <= bound.

    Candidates are +-a/b with 1 <= a, b <= 5, excluding 0 and +-1; points
    with q0^a t0^b = 1 for any exponents up to 2*bound are rejected.  When
    q_fixed is given (e.g. q = 1 for factorization checks), only t is drawn
    and only pure powers of t are screened.
    """
    rng = random.Random(seed)
    for _ in range(10000):
        t0 = QQ(rng.choice(_CANDIDATES))
        if q_fixed is not None:
            q0 = QQ(q_fixed)
            ok = all(t0 ** b != 1 for b in range(1, 2 * bound + 1))
        else:
            q0 = QQ(rng.choice(_CANDIDATES))
            ok = point_is_generic(q0, t0, bound)
        if ok:
            return q0, t0
    raise RuntimeError("could not sample a generic point")


def specialized(seed, bound, q_fixed=None):
    q0, t0 = random_point(seed, bound, q_fixed=q_fixed)
    return SpecializedScalars(q0, t0)
