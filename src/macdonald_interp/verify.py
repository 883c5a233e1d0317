"""Named verification suites over the whole library.

Each suite checks one family of identities at desk scale and yields one
report per checked instance.  Reports serialize as JSON lines with the
fields suite, instance, mode, status, and (on failure) a witness holding
the first counterexample's serialized data.  Instance order is a pure
function of the bounds and seed, so report streams are byte-identical
across runs with equal flags.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

from .compositions import (
    arrangements,
    compositions_of,
    is_packed,
    partitions_upto,
    sort_desc,
    swap_pair,
    signed_variants,
)
from .hecke import (
    hat_transform,
    hecke_T,
    hecke_word,
    t_param,
    transition_apply,
    transition_row,
    unpack_coeffs,
)
from .interpolation import (
    E_star,
    e_star_k,
    f_hom,
    f_star,
    factorization_q1_checks,
    extended_f,
    general_decomposition_rhs,
    h_poly,
    packed_recursion_rhs,
    solve_P_star,
    verify_characterization,
    zero_one_f_star,
)
from .queues import F_star, SignedQueue, a_coeff, enumerate_smlq, g_coeff
from .render import dumps, poly_text, queue_text
from .scalars import SYMBOLIC, specialized
from .tableaux import (
    J_star,
    classical_hook,
    enumerate_tableaux_typed,
    filling_hooks,
    integral_tableaux_sum,
    integrality_check,
    integrality_check_asep,
    tab,
    tab_inverse,
    tableau_term,
    tableaux_sum_typed,
)
from .xpoly import XPoly


@dataclass(frozen=True)
class Report:
    """Outcome of one checked identity instance."""

    suite: str
    instance: str
    mode: str
    status: str
    witness: str | None = None

    @property
    def ok(self):
        return self.status == "pass"

    def to_json(self):
        data = {
            "suite": self.suite,
            "instance": self.instance,
            "mode": self.mode,
            "status": self.status,
        }
        if self.witness is not None:
            data["witness"] = self.witness
        return dumps(data)


@dataclass(frozen=True)
class Bounds:
    """Desk-scale limits and the sampling seed for one suite run."""

    max_n: int
    max_size: int
    seed: int


def _fmt(comp):
    return "(" + ",".join(str(v) for v in comp) + ")"


def _report(suite, instance, mode, ok, witness=None):
    return Report(
        suite, instance, mode,
        "pass" if ok else "fail",
        None if ok else witness,
    )


def _points(bounds, count=5, q_fixed=None):
    """Seeded generic rational points, one context per point."""
    return [specialized(bounds.seed + j, max(bounds.max_size, 2), q_fixed)
            for j in range(count)]


def _mode(ctx):
    if ctx.is_symbolic:
        return "symbolic"
    return f"specialized q={ctx.q0} t={ctx.t0}"


def _compositions(max_n, max_size, min_n=2):
    for n in range(min_n, max_n + 1):
        for d in range(max_size + 1):
            for mu in compositions_of(d, n):
                yield mu


# ---------------------------------------------------------------------------
# frozen goldens
# ---------------------------------------------------------------------------


def six_term_f_star_02(ctx):
    """Frozen expansion of the degree-2 interpolation sum at type (0,2):
    (1-t)/(1-qt)(x1-q/t)(x2-1/t) + (1-t)/t(x1-q/t) + (x2-q/t)(x2-1/t)
    + (1-t)q/t(x2-1/t) + q^2(1-t)^3/(t^2(1-qt)) + q(1-t)^2/(t(1-qt))(x2-q/t).
    """
    x1 = XPoly.var(2, ctx, 1)
    x2 = XPoly.var(2, ctx, 2)
    omt = ctx.binom(0, 1)
    d = ctx.binom(1, 1)
    q_over_t = ctx.qt(1, -1)
    inv_t = ctx.qt(0, -1)
    return (
        (omt / d) * (x1 - q_over_t) * (x2 - inv_t)
        + (omt * inv_t) * (x1 - q_over_t)
        + (x2 - q_over_t) * (x2 - inv_t)
        + (omt * q_over_t) * (x2 - inv_t)
        + XPoly.const(2, ctx, ctx.qt(2, -2) * omt ** 3 / d)
        + (q_over_t * omt ** 2 / d) * (x2 - q_over_t)
    )


def figure_queue():
    """Frozen showcase queue: eight columns, type (2,2,0,0,0,2,3,1)."""
    return SignedQueue(8, (
        (2, 2, 0, 0, 0, 2, 3, 1),
        (-2, 2, 0, -2, -3, 0, 1, 0),
        (0, 2, 0, 2, 3, 2, 0, 0),
        (-2, 2, 0, -3, 2, 0, 0, 0),
        (0, 0, 3, 0, 0, 0, 0, 0),
        (0, -3, 0, 0, 0, 0, 0, 0),
    ), (
        ((1, 1), (2, 2), (4, 6), (5, 7), (7, 8)),
        ((2, 2), (4, 4), (5, 5), (6, 1)),
        ((1, 4), (2, 2), (4, 5), (5, 6)),
        ((3, 4),),
        ((2, 3),),
    ))


def figure_weight(ctx):
    """The showcase queue's weight:
    -x2^2 x5 x7 q^5 (1-t)^9 / (t^38 (1-q t^2)(1-q t^4))."""
    scalar = (
        ctx.qt(5, -38, -1) * ctx.binom(0, 1) ** 9
        / (ctx.binom(1, 2) * ctx.binom(1, 4))
    )
    exps = [0] * 8
    exps[1] = 2
    exps[4] = 1
    exps[6] = 1
    return XPoly(8, ctx, {tuple(exps): scalar})


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


def _suite_golden_example(b):
    """The type-(0,2) polynomial by three independent routes against the
    frozen six-term expression."""
    ctx = SYMBOLIC
    golden = six_term_f_star_02(ctx)
    routes = [
        ("queue sum", lambda: F_star((0, 2), ctx)),
        ("tableau sum", lambda: tableaux_sum_typed((0, 2), ctx)),
        ("hecke step on the dominant solve",
         lambda: hecke_T(E_star((2, 0), ctx), 1)),
    ]
    for name, build in routes:
        got = build()
        yield _report(
            "golden-example", f"type (0,2) via {name}", "symbolic",
            got == golden, poly_text(got))


def _suite_counts(b):
    """Enumeration sizes for the type-(0,2) showcase family."""
    queues = len(list(enumerate_smlq((0, 2))))
    tabs = len(enumerate_tableaux_typed((2,), (0, 2)))
    yield _report("counts", "signed queues of type (0,2)", "exact",
                  queues == 15, str(queues))
    yield _report("counts", "tableaux of type (0,2)", "exact",
                  tabs == 15, str(tabs))


def _suite_weight_golden(b):
    """The frozen showcase queue's weight, in both pairing orders and
    through its tableau image."""
    ctx = SYMBOLIC
    Q = figure_queue()
    golden = figure_weight(ctx)
    for order in ("original", "strand"):
        got = Q.weight(ctx, order=order)
        yield _report(
            "weight-golden", f"queue weight, {order} order", "symbolic",
            got == golden, poly_text(got))
    got = tableau_term(tab(Q), ctx)
    yield _report("weight-golden", "tableau image weight", "symbolic",
                  got == golden, poly_text(got))


def _suite_main_theorem(b):
    """Queue generating sums against the Hecke-built interpolation family,
    symbolically and at seeded points, over the same types."""
    for ctx in [SYMBOLIC] + _points(b):
        for mu in _compositions(b.max_n, b.max_size):
            got = F_star(mu, ctx)
            yield _report("main-theorem", f"mu={_fmt(mu)}", _mode(ctx),
                          got == f_star(mu, ctx), poly_text(got))


def _suite_characterization(b):
    """Vanishing off the orbit plus delta coefficients on it, exhaustively
    over the spectral grid."""
    ctx = SYMBOLIC
    for mu in _compositions(b.max_n, b.max_size):
        ok = verify_characterization(f_star(mu, ctx), mu, ctx)
        yield _report("characterization", f"mu={_fmt(mu)}", "symbolic", ok)


def _rand_poly(n, ctx, rng):
    terms = {}
    for _ in range(5):
        e = tuple(rng.randint(-2, 3) for _ in range(n))
        terms[e] = ctx.from_qq(rng.randint(-4, 4))
    return XPoly(n, ctx, terms)


def _suite_hecke_relations(b):
    """Operator algebra on random sparse polynomials: quadratic, braid,
    and commutation relations, plus the three multiplication rules."""
    import random

    spec = _points(b, count=1)[0]
    t = t_param(spec)
    one = spec.one
    for n in range(2, max(b.max_n, 2) + 1):
        rng = random.Random(b.seed * 1000 + n)
        for i in range(1, n):
            xi = XPoly.var(n, spec, i)
            xj = XPoly.var(n, spec, i + 1)
            for trial in range(5):
                f = _rand_poly(n, spec, rng)
                checks = [
                    ("quadratic",
                     hecke_T(hecke_T(f, i), i),
                     hecke_T(f, i) * (t - one) + f * t),
                    ("product rule both variables",
                     hecke_T(xi * xj * f, i), xi * xj * hecke_T(f, i)),
                    ("product rule lower variable",
                     hecke_T(xi * f, i),
                     xj * hecke_T(f, i) + xj * f * (one - t)),
                    ("product rule upper variable",
                     hecke_T(xj * f, i),
                     xi * hecke_T(f, i) - xj * f * (one - t)),
                ]
                if i + 1 < n:
                    checks.append((
                        "braid",
                        hecke_word(f, (i, i + 1, i)),
                        hecke_word(f, (i + 1, i, i + 1))))
                if i + 2 < n:
                    checks.append((
                        "commuting",
                        hecke_word(f, (i, i + 2)),
                        hecke_word(f, (i + 2, i))))
                for name, lhs, rhs in checks:
                    yield _report(
                        "hecke-relations",
                        f"{name} n={n} i={i} trial={trial}", _mode(spec),
                        lhs == rhs, poly_text(lhs - rhs))


def _suite_hecke_action(b):
    """The three-case table for the operator acting on the homogeneous,
    interpolation, and rescaled interpolation families."""
    ctx = SYMBOLIC
    t = ctx.qt(0, 1)
    families = [
        ("homogeneous", lambda mu: f_hom(mu, ctx)),
        ("interpolation", lambda mu: f_star(mu, ctx)),
        ("rescaled interpolation",
         lambda mu: hat_transform(f_star(mu, ctx), d=sum(mu))),
    ]
    for name, fam in families:
        for mu in _compositions(b.max_n, min(b.max_size, 3)):
            for i in range(1, len(mu)):
                lhs = hecke_T(fam(mu), i)
                a, c = mu[i - 1], mu[i]
                if a > c:
                    rhs = fam(swap_pair(mu, i))
                elif a == c:
                    rhs = fam(mu) * t
                else:
                    rhs = fam(swap_pair(mu, i)) * t - fam(mu) * (ctx.one - t)
                yield _report(
                    "hecke-action", f"{name} mu={_fmt(mu)} i={i}",
                    "symbolic", lhs == rhs, poly_text(lhs - rhs))


def _suite_packed_recursion(b):
    """Peeling recursion for packed types, plus divisibility of the packed
    polynomial by its forced linear factors."""
    ctx = SYMBOLIC
    for mu in _compositions(b.max_n, b.max_size):
        if not is_packed(mu):
            continue
        n = len(mu)
        got = packed_recursion_rhs(mu, ctx)
        want = f_star(mu, ctx)
        yield _report("packed-recursion", f"recursion mu={_fmt(mu)}",
                      "symbolic", got == want, poly_text(got - want))
        k = sum(1 for v in mu if v)
        rem = want
        ok = True
        witness = None
        shift = ctx.qt(0, -(n - 1))
        for i in range(1, k + 1):
            try:
                rem = rem.divide_by_linear(i, shift)
            except ValueError:
                ok = False
                witness = f"not divisible at position {i}"
                break
        yield _report("packed-recursion", f"divisibility mu={_fmt(mu)}",
                      "symbolic", ok, witness)


def _signed_indices(max_n, max_size):
    for mu in _compositions(max_n, max_size):
        for alpha in sorted(set(signed_variants(mu))):
            yield alpha


def _transition_expansions(family, label, b, size, ctx):
    """The operator on family(alpha) against the transition-table
    expansion over family(beta), for every signed alpha and i."""
    for alpha in _signed_indices(b.max_n, size):
        n = len(alpha)
        for i in range(1, n):
            lhs = hecke_T(family(alpha, ctx), i)
            rhs = XPoly.zero(n, ctx)
            for beta, coeff in transition_row(alpha, i, ctx).items():
                rhs = rhs + family(beta, ctx) * coeff
            yield _report(
                "decomposition", f"{label} alpha={_fmt(alpha)} i={i}",
                "symbolic", lhs == rhs, poly_text(lhs - rhs))


def _suite_decomposition(b):
    """Signed-index family: transition-table expansion of the operator
    action, unpacking coefficients against two-row sums, the companion
    family's identical transition law, and the full decomposition."""
    ctx = SYMBOLIC
    size = min(b.max_size, 3)
    yield from _transition_expansions(
        extended_f, "transition expansion", b, size, ctx)
    for mu in _compositions(b.max_n, size):
        table = unpack_coeffs(mu, ctx)
        ok = True
        witness = None
        for nu in arrangements(sort_desc(mu)):
            for alpha in signed_variants(nu):
                want = table.get(alpha, ctx.zero)
                got = g_coeff(alpha, mu, ctx)
                if got != want:
                    ok = False
                    witness = f"alpha={_fmt(alpha)}: {got} vs {want}"
                    break
            if not ok:
                break
        yield _report("decomposition",
                      f"unpacking equals two-row sums mu={_fmt(mu)}",
                      "symbolic", ok, witness)
    yield from _transition_expansions(
        h_poly, "companion transition", b, size, ctx)
    for mu in _compositions(b.max_n, size):
        got = general_decomposition_rhs(mu, ctx)
        want = f_star(mu, ctx)
        yield _report("decomposition", f"full decomposition mu={_fmt(mu)}",
                      "symbolic", got == want, poly_text(got - want))


def _g_table(mu, ctx):
    out = {}
    for nu in arrangements(sort_desc(mu)):
        for alpha in signed_variants(nu):
            c = g_coeff(alpha, mu, ctx)
            if c:
                out[alpha] = c
    return out


def _suite_twoline_recursion(b):
    """Signed two-row coefficient tables transform under the transition
    matrix when the larger part moves right (the applicable orientation)."""
    ctx = SYMBOLIC
    g_table = cache(_g_table)  # read again by every (mu, i) that touches it
    width = min(max(b.max_n, 2), 4)
    for mu in itertools.product(range(4), repeat=width):
        for i in range(1, width):
            if mu[i - 1] <= mu[i]:
                continue
            pushed = transition_apply(g_table(mu, ctx), i, ctx)
            direct = g_table(swap_pair(mu, i), ctx)
            ok = pushed == direct
            witness = None
            if not ok:
                keys = sorted(set(pushed) | set(direct))
                bad = next(
                    k for k in keys
                    if pushed.get(k, ctx.zero) != direct.get(k, ctx.zero))
                witness = (f"alpha={_fmt(bad)}: {pushed.get(bad, ctx.zero)}"
                           f" vs {direct.get(bad, ctx.zero)}")
            yield _report("twoline-recursion",
                          f"mu={_fmt(mu)} i={i}", "symbolic", ok, witness)


def _suite_order_invariance(b):
    """Every queue weighs the same under the placement order and the
    strand order: symbolically at n = 2, at seeded points for n >= 3."""
    runs = [(SYMBOLIC, 2, min(b.max_n, 2))]
    runs += [(spec, 3, b.max_n) for spec in _points(b, count=2)]
    for ctx, min_n, max_n in runs:
        for mu in _compositions(max_n, b.max_size, min_n):
            bad = next(
                (Q for Q in enumerate_smlq(mu)
                 if Q.weight_parts(ctx) != Q.weight_parts(
                     ctx, order="strand")), None)
            yield _report("order-invariance", f"mu={_fmt(mu)}", _mode(ctx),
                          bad is None,
                          queue_text(bad) if bad is not None else None)


def _suite_tableaux_formula(b):
    """The strand bijection (round trips, exact image), per-queue weight
    preservation, and the tableau generating sums against the
    interpolation family."""
    for mu in _compositions(b.max_n, b.max_size):
        queues = list(enumerate_smlq(mu))
        images = {}
        ok = True
        witness = None
        for Q in queues:
            t = tab(Q)
            if t.type_of() != mu or t.columns in images:
                ok = False
                witness = queue_text(Q)
                break
            images[t.columns] = Q
            if tab_inverse(t) != Q:
                ok = False
                witness = queue_text(Q)
                break
        yield _report("tableaux-formula", f"round trip mu={_fmt(mu)}",
                      "exact", ok, witness)
        expected = {
            t.columns
            for t in enumerate_tableaux_typed(sort_desc(mu), mu)
        }
        yield _report(
            "tableaux-formula", f"image set mu={_fmt(mu)}", "exact",
            ok and set(images) == expected,
            f"{len(images)} images vs {len(expected)} tableaux")
    ctxs = [SYMBOLIC] + _points(b, count=2)
    for ctx in ctxs:
        for mu in _compositions(b.max_n if not ctx.is_symbolic else 2,
                                b.max_size):
            bad = next(
                (Q for Q in enumerate_smlq(mu)
                 if Q.weight(ctx, order="strand")
                 != tableau_term(tab(Q), ctx)), None)
            yield _report(
                "tableaux-formula", f"weight preservation mu={_fmt(mu)}",
                _mode(ctx), bad is None,
                queue_text(bad) if bad is not None else None)
    for ctx in [SYMBOLIC] + _points(b):
        for mu in _compositions(b.max_n if not ctx.is_symbolic else 2,
                                b.max_size):
            got = tableaux_sum_typed(mu, ctx)
            want = f_star(mu, ctx)
            yield _report("tableaux-formula", f"sum mu={_fmt(mu)}",
                          _mode(ctx), got == want, poly_text(got - want))


def _suite_integral_form(b):
    """Hook constancy across fillings, agreement with the ordinary-diagram
    hook, the hook-scaled generating sums, and integrality of the cleared
    coefficients."""
    ctx = SYMBOLIC
    for n in range(2, b.max_n + 1):
        for lam in partitions_upto(b.max_size, n):
            hooks = filling_hooks(lam, n, ctx)
            yield _report("integral-form",
                          f"hook constancy lambda={_fmt(lam)} n={n}",
                          "symbolic", hooks == {classical_hook(lam, ctx)},
                          ", ".join(sorted(map(str, hooks))))
    for n in range(2, b.max_n + 1):
        specs = [SYMBOLIC] if n == 2 else _points(b, count=2)
        for c in specs:
            for lam in partitions_upto(b.max_size, n):
                got = integral_tableaux_sum(lam, n, c)
                want = J_star(lam, n, c)
                yield _report(
                    "integral-form",
                    f"hook-scaled sum lambda={_fmt(lam)} n={n}",
                    _mode(c), got == want, poly_text(got - want))
    for n in range(2, b.max_n + 1):
        for lam in partitions_upto(b.max_size, n):
            yield _report(
                "integral-form",
                f"symmetric integrality lambda={_fmt(lam)} n={n}",
                "symbolic", integrality_check(lam, n, ctx))
    for mu in _compositions(b.max_n, b.max_size):
        yield _report(
            "integral-form", f"nonsymmetric integrality mu={_fmt(mu)}",
            "symbolic", integrality_check_asep(mu, ctx))


def _supports(n, k):
    return itertools.combinations(range(1, n + 1), k)


def _suite_factorization_q1(b):
    """Closed product form for 0/1 types at general parameters, column
    shapes as elementary interpolation polynomials, the two-row sums at
    q = 1, and the q = 1 factorizations."""
    ctx = SYMBOLIC
    for n in range(2, min(b.max_n + 1, 4) + 1):
        for mu in itertools.product((0, 1), repeat=n):
            got = zero_one_f_star(mu, ctx)
            ok = verify_characterization(got, mu, ctx)
            if n <= 3:
                ok = ok and got == f_star(mu, ctx)
            yield _report("factorization-q1",
                          f"0/1 product form mu={_fmt(mu)}", "symbolic",
                          ok, poly_text(got))
    for n in range(2, b.max_n + 1):
        for k in range(n + 1):
            got = solve_P_star((1,) * k, n, ctx)
            want = e_star_k(k, n, ctx)
            yield _report("factorization-q1", f"column shape k={k} n={n}",
                          "symbolic", got == want, poly_text(got - want))
    spec1 = _points(b, count=1, q_fixed=1)[0]
    for n in range(2, b.max_n + 1):
        for lam in partitions_upto(b.max_size, n):
            if not lam or not lam[0]:
                continue
            stripped = tuple(v for v in lam if v >= 2)
            length = sum(1 for v in lam if v)
            for nu in arrangements(stripped + (0,) * (n - len(stripped))):
                for S in _supports(n, length):
                    total = spec1.zero
                    for mu in arrangements(lam + (0,) * (n - len(lam))):
                        if {i + 1 for i, v in enumerate(mu) if v} == set(S):
                            total = total + a_coeff(nu, mu, spec1)
                    yield _report(
                        "factorization-q1",
                        f"two-row sum lambda={_fmt(lam)} n={n} "
                        f"nu={_fmt(nu)} S={_fmt(S)}",
                        _mode(spec1), total == spec1.one, str(total))
    for n in range(2, b.max_n + 1):
        for lam in partitions_upto(b.max_size, n):
            ok, by_support = factorization_q1_checks(lam, n, spec1)
            yield _report(
                "factorization-q1",
                f"symmetric factorization lambda={_fmt(lam)} n={n}",
                _mode(spec1), ok)
            for S, holds in by_support.items():
                yield _report(
                    "factorization-q1",
                    f"partial symmetrization lambda={_fmt(lam)} n={n} "
                    f"S={_fmt(S)}",
                    _mode(spec1), holds)


def _suite_determinism(b):
    """Two in-process runs of the golden suites must serialize to the same
    bytes."""
    names = ["golden-example", "counts", "weight-golden"]
    first = report_lines(run_suites(names, seed=b.seed))
    second = report_lines(run_suites(names, seed=b.seed))
    yield _report("determinism", "golden suites, two runs", "exact",
                  first == second)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

# name -> (suite function, default max_n, default max_size)
SUITES = {
    "golden-example": (_suite_golden_example, 2, 2),
    "counts": (_suite_counts, 2, 2),
    "weight-golden": (_suite_weight_golden, 8, 10),
    "main-theorem": (_suite_main_theorem, 3, 4),
    "characterization": (_suite_characterization, 3, 4),
    "hecke-relations": (_suite_hecke_relations, 4, 4),
    "hecke-action": (_suite_hecke_action, 3, 3),
    "packed-recursion": (_suite_packed_recursion, 3, 4),
    "decomposition": (_suite_decomposition, 3, 3),
    "twoline-recursion": (_suite_twoline_recursion, 4, 4),
    "order-invariance": (_suite_order_invariance, 3, 4),
    "tableaux-formula": (_suite_tableaux_formula, 3, 4),
    "integral-form": (_suite_integral_form, 3, 4),
    "factorization-q1": (_suite_factorization_q1, 3, 4),
    "determinism": (_suite_determinism, 2, 2),
}


def suite_names():
    return list(SUITES)


def run_suites(names, max_n=None, max_size=None, seed=7):
    """Run the named suites (or all of them) and return the reports in
    deterministic order.  Explicit bounds override each suite's default
    desk-scale bounds uniformly."""
    if names in ("all", None):
        names = suite_names()
    elif isinstance(names, str):
        names = [names]
    reports = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; "
                           f"known: {', '.join(suite_names())}")
        func, def_n, def_size = SUITES[name]
        bounds = Bounds(
            max_n if max_n is not None else def_n,
            max_size if max_size is not None else def_size,
            seed,
        )
        reports.extend(func(bounds))
    return reports


def report_lines(reports):
    """One JSON line per report plus a trailing summary line."""
    lines = [r.to_json() for r in reports]
    failed = sum(1 for r in reports if not r.ok)
    lines.append(dumps({
        "summary": True,
        "checked": len(reports),
        "failed": failed,
    }))
    return "\n".join(lines) + "\n"


def all_passed(reports):
    return all(r.ok for r in reports)
