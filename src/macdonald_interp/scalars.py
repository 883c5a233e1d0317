"""Exact scalar arithmetic over Q(q, t).

Two coefficient domains share one interface:

* symbolic  -- elements of the rational function field Q(q, t), stored as
  numerator/denominator pairs of sparse Laurent polynomials (`RatQT` over
  `QTPoly`).  No multivariate gcd is ever computed: fractions are only
  normalized by monomial content, integer content and denominator sign, and
  equality is decided by cross multiplication.  Sums of many combinatorial
  weights go through `rq_sum`, which keeps denominators factored into
  binomials ``1 - q^a t^b`` so results stay compact.  Each distinct
  denominator is factored once per process (`factor_binomials` memoizes
  on its terms), and `RatQT.reduced` returns its input unchanged when no
  factor of the denominator divides the numerator.
* specialized -- plain exact rationals after substituting a fixed rational
  point (q0, t0) chosen to avoid all poles in range (see `random_point`).

Everything downstream (polynomials in x, queue weights, solvers) is generic
over these two domains via the `SymbolicScalars` / `SpecializedScalars`
context objects.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

try:
    from gmpy2 import mpq as QQ
except ImportError:  # runs without gmpy2: same values, slower arithmetic
    from fractions import Fraction as QQ


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

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def min_exps(self):
        return (min(e[0] for e in self.terms), min(e[1] for e in self.terms))

    def max_exps(self):
        return (max(e[0] for e in self.terms), max(e[1] for e in self.terms))

    def leading(self):
        """(exponent, coeff) of the graded-lex leading term."""
        e = max(self.terms, key=_gl_key)
        return e, self.terms[e]

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

    def content(self):
        """Rational c with self/c integral and primitive, signed so that
        the trailing (graded-lex minimal) coefficient of self/c is positive.
        Keeps binomials in the form 1 - q^a t^b under normalization."""
        nums = [int(c.numerator) for c in self.terms.values()]
        dens = [int(c.denominator) for c in self.terms.values()]
        g = 0
        for v in nums:
            g = gcd(g, v)
        l = 1
        for v in dens:
            l = lcm(l, v)
        c = QQ(g, l)
        trail = self.terms[min(self.terms, key=_gl_key)]
        return -c if trail < 0 else c

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


# terms of a polynomial -> its factor_binomials result; one entry per
# distinct denominator seen in this process.  Results are shared between
# callers, which is safe because no code changes a QTPoly's terms in place.
_factor_memo = {}


def factor_binomials(p):
    """Split p into binomial factors and a residual.

    Returns (factors, residual) where factors is a sorted tuple of
    ((a, b, kind), multiplicity) with kind 0 meaning ``1 - q^a t^b`` and
    kind 1 meaning ``q^a - t^b``, and residual * prod(factors) == p up to
    the monomial/constant part kept inside residual.  Used to keep common
    denominators small; completeness is not required for correctness.
    Results are memoized on the terms of p.
    """
    if not p.terms or len(p.terms) == 1:
        return (), p
    key = frozenset(p.terms.items())
    hit = _factor_memo.get(key)
    if hit is not None:
        return hit
    factors = {}
    cur = p
    # integer evaluation filter at (q,t)=(3,5): a true binomial factor must
    # divide the integer value of the primitive part.
    while len(cur.terms) > 1 and len(cur.terms) <= 400:
        cont = cur.content()
        prim = cur * (QQ(1) / cont)
        mq, mt = prim.min_exps()
        xq, xt = prim.max_exps()
        span_q, span_t = xq - mq, xt - mt
        if span_q > 64 or span_t > 64:
            break
        val = int(prim.shift(-mq, -mt).substitute(3, 5))
        found = None
        for a in range(span_q + 1):
            for b in range(span_t + 1):
                if a == 0 and b == 0:
                    continue
                # kind 0: 1 - q^a t^b
                w = 1 - 3**a * 5**b
                if val % w == 0:
                    q0 = cur.try_div(QTPoly.binomial(a, b))
                    if q0 is not None:
                        found = ((a, b, 0), q0)
                        break
                # kind 1: q^a - t^b (only when both exponents positive)
                if a > 0 and b > 0:
                    w = 3**a - 5**b
                    if w != 0 and val % w == 0:
                        q1 = cur.try_div(QTPoly({(a, 0): QQ(1), (0, b): QQ(-1)}))
                        if q1 is not None:
                            found = ((a, b, 1), q1)
                            break
            if found:
                break
        if not found:
            break
        fkey, cur = found
        factors[fkey] = factors.get(fkey, 0) + 1
    result = _factor_memo[key] = (tuple(sorted(factors.items())), cur)
    return result


def binomial_from_key(key):
    a, b, kind = key
    if kind == 0:
        return QTPoly.binomial(a, b)
    return QTPoly({(a, 0): QQ(1), (0, b): QQ(-1)})


class RatQT:
    """Element of Q(q, t) as a numerator/denominator pair.

    Normalization: no monomial factor common to num and den, denominator has
    integer coefficients with content 1 and positive graded-lex leading
    coefficient.  Equality is cross multiplication; no multivariate gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = QT_ONE
        if isinstance(num, int):
            num = QTPoly.const(num)
        if isinstance(den, int):
            den = QTPoly.const(den)
        if not den.terms:
            raise ZeroDivisionError("zero denominator in Q(q,t)")
        if not num.terms:
            self.num, self.den = QT_ZERO, QT_ONE
            return
        nq, nt = num.min_exps()
        dq, dt = den.min_exps()
        sq, st = min(nq, dq), min(nt, dt)
        if sq or st:
            num = num.shift(-sq, -st)
            den = den.shift(-sq, -st)
        c = den.content()
        if c != 1:
            inv = QQ(1) / c
            num = num * inv
            den = den * inv
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_qq(c):
        return RatQT(QTPoly.const(c))

    @staticmethod
    def qt(a, b, c=1):
        return RatQT(QTPoly.monomial(a, b, c))

    # -- predicates / hashing ----------------------------------------------

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = RatQT.from_qq(other)
        if not isinstance(other, RatQT):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None  # fractions are not canonical; do not use as dict keys

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = RatQT.from_qq(other)
        if not isinstance(other, RatQT):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        if self.den == other.den:
            return RatQT(self.num + other.num, self.den)
        if self.den.is_monomial() and other.den.is_monomial():
            return RatQT(self.num * other.den + other.num * self.den,
                         self.den * other.den)
        return rq_sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        r = RatQT.__new__(RatQT)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        if isinstance(other, int):
            other = RatQT.from_qq(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return RAT_ZERO
            other = RatQT.from_qq(other)
        if not isinstance(other, RatQT):
            return NotImplemented
        if self.den.is_monomial() and other.den.is_monomial():
            return RatQT(self.num * other.num, self.den * other.den)
        # cross-cancel before multiplying so reduced inputs stay reduced
        a = RatQT(self.num, other.den).reduced()
        b = RatQT(other.num, self.den).reduced()
        return RatQT(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatQT.from_qq(other)
        if not other:
            raise ZeroDivisionError("division by zero in Q(q,t)")
        return self * RatQT(other.den, other.num)

    def __rtruediv__(self, other):
        if isinstance(other, int):
            other = RatQT.from_qq(other)
        return other / self

    def __pow__(self, k):
        if k == 0:
            return RAT_ONE
        if k < 0:
            return (RAT_ONE / self) ** (-k)
        return RatQT(self.num ** k, self.den ** k)

    # -- reduction / evaluation --------------------------------------------

    def reduced(self):
        """Cancel binomial and residual factors of den against num.

        Returns self when nothing cancels."""
        if self.den.is_monomial():
            return self
        factors, resid = factor_binomials(self.den)
        num = self.num
        new_factors = []
        for key, mult in factors:
            b = binomial_from_key(key)
            while mult:
                q = num.try_div(b)
                if q is None:
                    break
                num = q
                mult -= 1
            if mult:
                new_factors.append((key, mult))
        if not resid.is_monomial():
            q = num.try_div(resid)
            if q is not None:
                num = q
                resid = QT_ONE
        if num is self.num:
            return self
        den = resid
        for key, mult in new_factors:
            den = den * binomial_from_key(key) ** mult
        return RatQT(num, den)

    def evaluate(self, q0, t0):
        d = self.den.substitute(q0, t0)
        if d == 0:
            raise PoleError(f"denominator vanishes at q={q0}, t={t0}")
        return self.num.substitute(q0, t0) / d

    def __str__(self):
        if self.den == QT_ONE:
            return str(self.num)
        ns = str(self.num)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if len(self.den.terms) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    __repr__ = __str__


RAT_ZERO = RatQT(QT_ZERO)
RAT_ONE = RatQT(QT_ONE)


def rq_sum(items):
    """Sum RatQT values, grouping by denominator and combining over a
    factored common denominator."""
    groups = {}
    dens = {}
    for r in items:
        if not r:
            continue
        key = frozenset(r.den.terms.items())
        if key in groups:
            groups[key] = groups[key] + r.num
        else:
            groups[key] = r.num
            dens[key] = r.den
    if not groups:
        return RAT_ZERO
    if len(groups) == 1:
        ((key, num),) = groups.items()
        return RatQT(num, dens[key])
    # factored common denominator
    facs = {}
    resid = {}
    for key, den in dens.items():
        fs, res = factor_binomials(den)
        resid[key] = res
        facs[key] = dict(fs)
    lcd_f = {}
    for fs in facs.values():
        for fkey, mult in fs.items():
            lcd_f[fkey] = max(lcd_f.get(fkey, 0), mult)
    # residuals are expected to be monomials; otherwise fall back to a raw
    # cross-multiplied combination (not ``+``, which routes back here).
    if any(not r.is_monomial() for r in resid.values()):
        num_acc, den_acc = QT_ZERO, QT_ONE
        for key, num in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
            num_acc = num_acc * dens[key] + num * den_acc
            den_acc = den_acc * dens[key]
        return RatQT(num_acc, den_acc).reduced()
    num_total = QT_ZERO
    lcd = QT_ONE
    for fkey, mult in sorted(lcd_f.items()):
        lcd = lcd * binomial_from_key(fkey) ** mult
    for key in groups:
        cofactor = QT_ONE
        fs = facs[key]
        for fkey, mult in sorted(lcd_f.items()):
            extra = mult - fs.get(fkey, 0)
            if extra:
                cofactor = cofactor * binomial_from_key(fkey) ** extra
        # divide away the monomial residual of this group's denominator
        res = resid[key]
        (re, rc), = res.terms.items()
        cofactor = cofactor.shift(-re[0], -re[1]) * (QQ(1) / rc)
        num_total = num_total + groups[key] * cofactor
    return RatQT(num_total, lcd).reduced()


# ---------------------------------------------------------------------------
# coefficient contexts
# ---------------------------------------------------------------------------


class SymbolicScalars:
    """Coefficients are elements of Q(q, t)."""

    is_symbolic = True

    def key(self):
        return ("symbolic",)

    @property
    def one(self):
        return RAT_ONE

    @property
    def zero(self):
        return RAT_ZERO

    def qt(self, a, b, c=1):
        return RatQT.qt(a, b, c)

    def binom(self, a, b):
        """1 - q^a t^b (exact, a or b may be negative)."""
        if a >= 0 and b >= 0:
            return RatQT(QTPoly.binomial(a, b))
        return self.one - self.qt(a, b)

    def from_qq(self, c):
        return RatQT.from_qq(c)

    def sum(self, items):
        return rq_sum(items)

    def is_zero(self, c):
        return not c

    # ring-level hooks used by the fraction-free solver
    def ring_qt(self, a, b, c=1):
        return QTPoly.monomial(a, b, c)

    ring_one = QT_ONE
    ring_zero = QT_ZERO

    def ring_div(self, a, b):
        return a.exact_div(b)

    def ring_is_zero(self, a):
        return not a.terms

    def ring_to_scalar(self, num, den):
        return RatQT(num, den).reduced()

    def __repr__(self):
        return "SymbolicScalars()"


class SpecializedScalars:
    """Coefficients are exact rationals at a fixed point (q0, t0)."""

    is_symbolic = False

    def __init__(self, q0, t0):
        self.q0 = QQ(q0)
        self.t0 = QQ(t0)

    def key(self):
        return ("specialized", self.q0, self.t0)

    @property
    def one(self):
        return QQ(1)

    @property
    def zero(self):
        return QQ(0)

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
        return sum(items, QQ(0))

    def is_zero(self, c):
        return c == 0

    def ring_qt(self, a, b, c=1):
        return self.qt(a, b, c)

    @property
    def ring_one(self):
        return QQ(1)

    @property
    def ring_zero(self):
        return QQ(0)

    def ring_div(self, a, b):
        return a / b

    def ring_is_zero(self, a):
        return a == 0

    def ring_to_scalar(self, num, den):
        return num / den

    def __repr__(self):
        return f"SpecializedScalars(q0={self.q0}, t0={self.t0})"


SYMBOLIC = SymbolicScalars()


def _candidate_values():
    vals = set()
    for a in range(1, 6):
        for b in range(1, 6):
            v = Fraction(a, b)
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
