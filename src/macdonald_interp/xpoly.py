"""Sparse (Laurent) polynomials in x_1..x_n with generic scalar coefficients.

Coefficients come from a scalars context (symbolic Q(q,t) elements or exact
rationals at a specialized point); XPoly never inspects them beyond ring
operations and the scalars' truth value.  Exponent vectors are int tuples and
may be negative where noted (the divided difference handles Laurent input).
"""

from __future__ import annotations


class XPoly:
    """terms: {exponent tuple: coefficient}, zero coefficients dropped."""

    __slots__ = ("n", "ctx", "terms")

    def __init__(self, n, ctx, terms=None):
        self.n = n
        self.ctx = ctx
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(n, ctx):
        return XPoly(n, ctx)

    @staticmethod
    def const(n, ctx, c):
        return XPoly(n, ctx, {(0,) * n: c})

    @staticmethod
    def one(n, ctx):
        return XPoly.const(n, ctx, ctx.one)

    @staticmethod
    def monomial(n, ctx, exps, c=None):
        if c is None:
            c = ctx.one
        return XPoly(n, ctx, {tuple(exps): c})

    @staticmethod
    def var(n, ctx, i):
        """x_i, 1-based."""
        e = [0] * n
        e[i - 1] = 1
        return XPoly(n, ctx, {tuple(e): ctx.one})

    # -- structure -------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, XPoly):
            if self.terms.keys() != other.terms.keys():
                return False
            return all(self.terms[e] == other.terms[e] for e in self.terms)
        if isinstance(other, int):
            return self == XPoly.const(self.n, self.ctx, self.ctx.from_qq(other))
        return NotImplemented

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ctx.zero)

    def degree(self):
        """Total degree (max over terms), or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def monomials(self):
        return sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)

    def top_part(self):
        """Homogeneous component of maximal total degree."""
        d = self.degree()
        return XPoly(self.n, self.ctx,
                     {e: c for e, c in self.terms.items() if sum(e) == d})

    def map_coeff(self, f):
        return XPoly(self.n, self.ctx, {e: f(e, c) for e, c in self.terms.items()})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, XPoly):
            if isinstance(other, int):
                other = self.ctx.from_qq(other)
            other = XPoly.const(self.n, self.ctx, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                v = out[e] + c
                if not v:
                    del out[e]
                else:
                    out[e] = v
            else:
                out[e] = c
        r = XPoly.__new__(XPoly)
        r.n, r.ctx, r.terms = self.n, self.ctx, out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = XPoly.__new__(XPoly)
        r.n, r.ctx = self.n, self.ctx
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, XPoly):
            return self + (-other)
        if isinstance(other, int):
            other = self.ctx.from_qq(other)
        return self + XPoly.const(self.n, self.ctx, -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, XPoly):
            ctx = self.ctx
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    k = tuple(a + b for a, b in zip(e1, e2))
                    if k in out:
                        v = out[k] + c1 * c2
                        if not v:
                            del out[k]
                        else:
                            out[k] = v
                    else:
                        out[k] = c1 * c2
            r = XPoly.__new__(XPoly)
            r.n, r.ctx, r.terms = self.n, ctx, out
            return r
        if isinstance(other, int):
            other = self.ctx.from_qq(other)
        if not other:
            return XPoly(self.n, self.ctx)
        r = XPoly.__new__(XPoly)
        r.n, r.ctx = self.n, self.ctx
        r.terms = {e: c * other for e, c in self.terms.items()}
        return r

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = XPoly.one(self.n, self.ctx)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- divided difference & friends ----------------------------------------

    def delta(self, i):
        """(f - s_i f)/(x_i - x_{i+1}), term by term via geometric blocks.

        Works for Laurent exponents.  For a term c*x_i^a*x_{i+1}^b (other
        variables carried along): a > b contributes +c * sum of
        x_i^k x_{i+1}^{a+b-1-k} for b <= k < a; a < b the negatives.
        """
        ctx = self.ctx
        out = {}
        i0 = i - 1
        for e, c in self.terms.items():
            a, b = e[i0], e[i]
            if a == b:
                continue
            lo, hi = (b, a) if a > b else (a, b)
            s = a + b - 1
            base = list(e)
            for k in range(lo, hi):
                base[i0], base[i] = k, s - k
                key = tuple(base)
                v = out.get(key)
                if a > b:
                    v = c if v is None else v + c
                else:
                    v = -c if v is None else v - c
                if not v:
                    del out[key]
                else:
                    out[key] = v
        r = XPoly.__new__(XPoly)
        r.n, r.ctx, r.terms = self.n, ctx, out
        return r

    def divide_by_linear(self, i, a):
        """Exact quotient by (x_i - a) for scalar a; raises if not exact."""
        ctx = self.ctx
        i0 = i - 1
        # group terms by the exponents away from x_i, then synthetic division
        groups = {}
        for e, c in self.terms.items():
            rest = e[:i0] + e[i0 + 1:]
            groups.setdefault(rest, {})[e[i0]] = c
        out = {}
        for rest, coeffs in groups.items():
            d = max(coeffs)
            if min(coeffs) < 0:
                raise ValueError("divide_by_linear needs nonnegative powers")
            cur = ctx.zero
            for k in range(d, 0, -1):
                cur = cur + coeffs.get(k, ctx.zero)
                if cur:
                    out[rest[:i0] + (k - 1,) + rest[i0:]] = cur
                cur = cur * a
            rem = cur + coeffs.get(0, ctx.zero)
            if rem:
                raise ValueError("linear factor does not divide")
        return XPoly(self.n, ctx, out)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point):
        """Value at a full point (tuple of scalars), exact."""
        ctx = self.ctx
        vals = []
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * x ** k
            vals.append(v)
        return ctx.sum(vals)

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in self.monomials():
            c = self.terms[e]
            mono = "*".join(
                f"x{j + 1}" if v == 1 else f"x{j + 1}^{v}"
                for j, v in enumerate(e)
                if v
            )
            cs = str(c)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                if "/" in cs or " " in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__

