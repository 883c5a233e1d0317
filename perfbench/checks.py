"""Output checks that do not use the program under test.

Every rendered answer is read back with sympy's parser, specialized at a
seeded rational point, and tested against the defining properties of what
was asked for, evaluated at spectral points q^(mu_i) t^(-k_i) computed
here.  Each check returns a list of problems; an empty list means the
round's outputs are correct.
"""

import json
import random
from fractions import Fraction

import sympy
from sympy.parsing.sympy_parser import (
    convert_xor, parse_expr, standard_transformations)

from workloads import (
    arrangements, compositions_upto, k_stat, key, partitions_upto,
    signed_tops)

Q, T = sympy.symbols("q t")
_TRANSFORMS = standard_transformations + (convert_xor,)
_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


def check_point(seed):
    """Seeded (q0, t0) = (p1/p2, -p3/p4) over four distinct primes, so
    q0^a t0^b != 1 unless a = b = 0: no pole of any binomial denominator."""
    p1, p2, p3, p4 = random.Random(seed).sample(_PRIMES, 4)
    return Fraction(p1, p2), Fraction(-p3, p4)


def parse(text, n):
    names = {"q": Q, "t": T}
    names.update({f"x{i}": sympy.Symbol(f"x{i}") for i in range(1, n + 1)})
    return parse_expr(text, local_dict=names, transformations=_TRANSFORMS)


def specialize(text, n, q0, t0):
    """The rendered polynomial at (q, t) = (q0, t0), as {exponents: value}."""
    xs = sympy.symbols(f"x1:{n + 1}")
    point = {Q: sympy.Rational(q0), T: sympy.Rational(t0)}
    expr = parse(text, n).xreplace(point)
    poly = sympy.Poly(expr, *xs, domain="QQ")
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}


def spectral_point(nu, q0, t0):
    return tuple(q0 ** m * t0 ** (-k) for m, k in zip(nu, k_stat(nu)))


def evaluate(poly, point):
    total = Fraction(0)
    for e, c in poly.items():
        for x, k in zip(point, e):
            if k:
                c = c * x ** k
        total += c
    return total


# ---------------------------------------------------------------------------
# defining properties
# ---------------------------------------------------------------------------


def _nonzero_at(poly, points):
    return [nu for nu, pt in points if evaluate(poly, pt) != 0]


def check_E(poly, mu, q0, t0):
    out = []
    if poly.get(mu) != 1:
        out.append(f"E*{mu}: coefficient of x^mu is {poly.get(mu, 0)}")
    if any(sum(e) > sum(mu) for e in poly):
        out.append(f"E*{mu}: degree above {sum(mu)}")
    others = [(nu, spectral_point(nu, q0, t0))
              for nu in compositions_upto(sum(mu), len(mu)) if nu != mu]
    bad = _nonzero_at(poly, others)
    if bad:
        out.append(f"E*{mu}: nonzero at the points of {bad[:3]}")
    return out


def check_f(poly, mu, q0, t0, name="f*"):
    out = []
    orbit = set(arrangements(mu))
    for tau in sorted(orbit):
        want = 1 if tau == mu else 0
        if poly.get(tau, 0) != want:
            out.append(f"{name}{mu}: coefficient of x^{tau} is "
                       f"{poly.get(tau, 0)}, not {want}")
    off = [(nu, spectral_point(nu, q0, t0))
           for nu in compositions_upto(sum(mu), len(mu)) if nu not in orbit]
    bad = _nonzero_at(poly, off)
    if bad:
        out.append(f"{name}{mu}: nonzero off the orbit at {bad[:3]}")
    return out


def check_P(poly, lam, q0, t0):
    out = []
    n = len(lam)
    for i in range(n - 1):
        swapped = {e[:i] + (e[i + 1], e[i]) + e[i + 2:]: c
                   for e, c in poly.items()}
        if swapped != poly:
            out.append(f"P*{lam}: not symmetric in x{i + 1}, x{i + 2}")
            break
    if poly.get(lam) != 1:
        out.append(f"P*{lam}: coefficient of m_lambda is {poly.get(lam, 0)}")
    others = [(nu, spectral_point(nu, q0, t0))
              for nu in partitions_upto(sum(lam), n) if nu != lam]
    bad = _nonzero_at(poly, others)
    if bad:
        out.append(f"P*{lam}: nonzero at the points of {bad[:3]}")
    return out


def _z_t(expr):
    """expr as a polynomial in t with integer coefficients, or None."""
    expr = sympy.cancel(expr)
    if Q in expr.free_symbols:
        return None
    try:
        return sympy.Poly(expr, T, domain="ZZ")
    except (sympy.PolynomialError, sympy.CoercionFailed):
        return None


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def _by_kind(outputs):
    """{kind: {args tuple: text}} from {request key: text}."""
    out = {}
    for k, text in outputs.items():
        req = json.loads(k)
        args = tuple(tuple(a) if isinstance(a, list) else a for a in req[1:])
        out.setdefault(req[0], {})[args] = text
    return out


def check_solve(outputs, q0, t0):
    reqs = _by_kind(outputs)
    problems = []
    for (mu,), text in reqs.get("E*", {}).items():
        problems += check_E(specialize(text, len(mu), q0, t0), mu, q0, t0)
    for (mu,), text in reqs.get("f*", {}).items():
        problems += check_f(specialize(text, len(mu), q0, t0), mu, q0, t0)
    P = {}
    for (lam, n), text in reqs.get("P*", {}).items():
        P[lam] = specialize(text, n, q0, t0)
        problems += check_P(P[lam], lam, q0, t0)
    for (k, n), text in reqs.get("e*", {}).items():
        column = (1,) * k + (0,) * (n - k)
        if specialize(text, n, q0, t0) != P.get(column):
            problems.append(f"e*_{k} (n={n}) differs from P*{column}")
    return problems


def check_sums(outputs, counts, q0, t0):
    """Queue sums equal tableau sums, both have the interpolation
    polynomial's defining properties, and the two sets have equal size.
    Specialized outputs pass their own point as (q0, t0)."""
    reqs = _by_kind(outputs)
    problems = []
    for (mu,), text in reqs.get("F*", {}).items():
        F = specialize(text, len(mu), q0, t0)
        T_ = specialize(reqs["T"][(mu,)], len(mu), q0, t0)
        if F != T_:
            problems.append(f"F*{mu}: queue sum differs from tableau sum")
        problems += check_f(F, mu, q0, t0, name="F*")
        queues, tabs = counts[key(mu)]
        if queues != tabs or queues == 0:
            problems.append(f"F*{mu}: {queues} queues but {tabs} tableaux")
    return problems


def parse_table(text):
    """{index tuple: sympy value} from "(i,j,...): value" lines."""
    table = {}
    for line in filter(None, text.split("\n")):
        index, value = line.split(": ", 1)
        table[tuple(int(v) for v in index.strip("()").split(","))] = (
            parse(value, 0))
    return table


def check_two_row(outputs, t0):
    """Each G entry lies in Z[t], the G table of mu equals its unpacking
    table b, and the classic a coefficients at q = 1 sum to 1 over each
    support."""
    reqs = _by_kind(outputs)
    problems = []
    for (mu,), text in reqs.get("b", {}).items():
        b = parse_table(text)
        family = set(signed_tops(mu))
        if set(b) - family:
            problems.append(f"b{mu} has indices outside the signed family")
        G = parse_table(reqs["G"][(mu,)])
        if set(G) != family:
            problems.append(f"G{mu} is not indexed by the signed family")
        for alpha, value in sorted(G.items()):
            g = _z_t(value)
            if g is None:
                problems.append(f"G{alpha},{mu} = {value} is not in Z[t]")
                continue
            want = b.get(alpha, sympy.Integer(0))
            if sympy.expand(g.as_expr() - want) != 0:
                problems.append(f"G{alpha},{mu} = {value} but b gives {want}")
    sums = {}
    for (mu,), text in reqs.get("a", {}).items():
        support = tuple(i for i, v in enumerate(mu) if v)
        lam = tuple(sorted(mu, reverse=True))
        for nu, value in parse_table(text).items():
            value = sympy.cancel(value).xreplace(
                {Q: sympy.Integer(1), T: sympy.Rational(t0)})
            sums.setdefault((lam, nu, support), []).append(value)
    for (lam, nu, support), values in sorted(sums.items()):
        if sum(values) != 1:
            problems.append(f"a-coefficients of {lam}, top {nu}, support "
                            f"{support} sum to {sum(values)} at q=1")
    return problems


def check_reports(outputs):
    problems = []
    for k, text in outputs.items():
        report = json.loads(text)
        if report.get("status") != "pass":
            problems.append(f"{k}: {text}")
    return problems


def check(workload, outputs, counts, point, seed):
    """Problems with one round's {request key: text} outputs.

    `point` is the program's own specialization point (specialized
    workload), `seed` seeds the check point for symbolic outputs."""
    q0, t0 = check_point(seed)
    if workload == "solve-symbolic":
        return check_solve(outputs, q0, t0)
    if workload == "queues-specialized":
        pq, pt = (Fraction(v) for v in point)
        return check_sums(outputs, counts, pq, pt)
    if workload == "queues-symbolic":
        return (check_sums(outputs, counts, q0, t0)
                + check_two_row(outputs, t0))
    if workload == "verify-suites":
        return check_reports(outputs)
    raise ValueError(f"unknown workload {workload!r}")
