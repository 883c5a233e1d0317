"""Command-line surface: compute, enumerate, verify, render.

Exit codes: 0 success, 2 usage error, 3 pole at the sampled parameters
(resample with another seed), 4 enumeration bounds exceeded, 5 verification
failure.  Output is byte-identical across runs with equal seed and flags.
"""

from __future__ import annotations

import json
import sys

import click

from . import verify as verify_mod
from .compositions import sort_desc
from .hecke import unpack_coeffs
from .interpolation import (
    SingularSystemError,
    e_star_k,
    f_hom,
    f_star,
    solve_E_star,
    solve_P_star,
)
from .queues import (
    F_hom,
    F_star,
    Z_hom,
    Z_star,
    a_coeff,
    a_matchings,
    classic_layer_weight,
    enumerate_mlq,
    enumerate_smlq,
    g_coeff,
    g_matchings,
    signed_layer_weight,
)
from .render import (
    coeff_table_json,
    dumps,
    poly_json,
    poly_text,
    queue_from_json,
    queue_json,
    queue_text,
    scalar_json,
    tableau_from_json,
    tableau_json,
    tableau_latex,
    tableau_svg,
    tableau_text,
)
from .scalars import SYMBOLIC, PoleError, specialized
from .tableaux import (
    J_star,
    enumerate_tableaux,
    enumerate_tableaux_typed,
    tableau_term,
)

MAX_ENUM_N = 4
MAX_ENUM_SIZE = 5


class CliError(click.ClickException):
    """A ClickException carrying one of the documented exit codes."""

    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


def _parse_comp(text, name, signed=False):
    if text is None:
        raise click.UsageError(f"--{name} is required here")
    try:
        parts = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise click.UsageError(
            f"--{name} must be a comma-separated integer list, got {text!r}")
    if not signed and any(p < 0 for p in parts):
        raise click.UsageError(f"--{name} entries must be nonnegative")
    return parts


def _context(mode, seed):
    if mode == "symbolic":
        return SYMBOLIC
    return specialized(seed, 4)


def _emit(text, out):
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _pad(mu, n, name):
    if n is None or n == len(mu):
        return mu
    if n > len(mu):
        return mu + (0,) * (n - len(mu))
    raise click.UsageError(
        f"--n {n} is smaller than the {len(mu)} entries of --{name}")


def _bounds_check(n, size):
    if n > MAX_ENUM_N:
        raise CliError(
            f"enumeration bound exceeded: n={n} > {MAX_ENUM_N}", 4)
    if size > MAX_ENUM_SIZE:
        raise CliError(
            f"enumeration bound exceeded: size={size} > {MAX_ENUM_SIZE}", 4)


@click.group()
def main():
    """Exact interpolation polynomials, their combinatorial expansions,
    and the verification suites tying the two together."""


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

_POLY_TARGETS = ("E*", "P*", "f*", "F*", "Z*", "J*", "e*", "f", "F", "Z")
_SCALAR_TARGETS = ("a", "G")
_TARGETS = _POLY_TARGETS + _SCALAR_TARGETS + ("b",)


@main.command()
@click.argument("target", type=click.Choice(_TARGETS))
@click.option("--n", type=int, default=None, help="Number of variables.")
@click.option("--mu", default=None, help="Composition, e.g. 0,2.")
@click.option("--lambda", "lam", default=None, help="Partition, e.g. 2,1.")
@click.option("--type", "type_", default=None,
              help="Second composition (top row / signed index / degree).")
@click.option("--mode", type=click.Choice(["symbolic", "specialized"]),
              default="symbolic", show_default=True)
@click.option("--seed", type=int, default=7, show_default=True,
              help="Seed for the specialized parameter point.")
@click.option("--format", "fmt",
              type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write output to FILE instead of stdout.")
def compute(target, n, mu, lam, type_, mode, seed, fmt, out):
    """Compute one polynomial or coefficient TARGET.

    Polynomial targets: E* P* f* F* Z* J* e* f F Z (starred families are
    inhomogeneous, unstarred their top-degree parts; e* takes its degree
    through --type).  Coefficient targets: a (classic two-row, top --type
    over bottom --mu), G (signed two-row, signed top --type over bottom
    --mu), b (the unpacking table of --mu, or one entry when --type is
    given).
    """
    ctx = _context(mode, seed)
    try:
        result = _dispatch_compute(target, n, mu, lam, type_, ctx)
    except (PoleError, SingularSystemError) as exc:
        raise CliError(
            f"{exc}; rerun with a different --seed to resample", 3)
    _emit(_format_result(result, fmt), out)


def _dispatch_compute(target, n, mu, lam, type_, ctx):
    if target in ("E*", "f*", "F*", "f", "F"):
        comp = _pad(_parse_comp(mu, "mu"), n, "mu")
        func = {
            "E*": solve_E_star, "f*": f_star, "F*": F_star,
            "f": f_hom, "F": F_hom,
        }[target]
        return func(comp, ctx)
    if target in ("P*", "Z*", "J*", "Z"):
        parts = sort_desc(_parse_comp(lam, "lambda"))
        shape = tuple(p for p in parts if p)
        width = n if n is not None else len(parts)
        if len(shape) > width:
            raise click.UsageError(
                f"--lambda has {len(shape)} nonzero parts but --n is {width}")
        func = {
            "P*": solve_P_star, "Z*": Z_star, "J*": J_star, "Z": Z_hom,
        }[target]
        return func(shape, width, ctx)
    if target == "e*":
        degree = _parse_comp(type_, "type")
        if len(degree) != 1:
            raise click.UsageError("--type for e* is a single degree, e.g. 2")
        if n is None:
            raise click.UsageError("--n is required for e*")
        if not 0 <= degree[0] <= n:
            raise click.UsageError(
                f"e* degree must lie in 0..{n}, got {degree[0]}")
        return e_star_k(degree[0], n, ctx)
    if target == "a":
        bottom = _pad(_parse_comp(mu, "mu"), n, "mu")
        top = _parse_comp(type_, "type")
        if len(top) != len(bottom):
            raise click.UsageError("--type and --mu must have equal length")
        return a_coeff(top, bottom, ctx)
    if target == "G":
        bottom = _pad(_parse_comp(mu, "mu"), n, "mu")
        top = _parse_comp(type_, "type", signed=True)
        if len(top) != len(bottom):
            raise click.UsageError("--type and --mu must have equal length")
        return g_coeff(top, bottom, ctx)
    # target == "b"
    comp = _pad(_parse_comp(mu, "mu"), n, "mu")
    table = unpack_coeffs(comp, ctx)
    if type_ is not None:
        alpha = _parse_comp(type_, "type", signed=True)
        return table.get(alpha, ctx.zero)
    return table


def _format_result(result, fmt):
    from .xpoly import XPoly

    if isinstance(result, XPoly):
        if fmt == "json":
            return dumps(poly_json(result)) + "\n"
        return poly_text(result) + "\n"
    if isinstance(result, dict):
        if fmt == "json":
            return dumps(coeff_table_json(result)) + "\n"
        lines = [
            "(" + ",".join(str(v) for v in alpha) + "): " + str(c)
            for alpha, c in sorted(result.items())
        ]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return dumps(scalar_json(result)) + "\n"
    return str(result) + "\n"


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

_KINDS = ("mlq", "smlq", "tableaux", "twoline", "signed-twoline")


@main.command("enumerate")
@click.argument("kind", type=click.Choice(_KINDS))
@click.option("--n", type=int, default=None)
@click.option("--mu", default=None, help="Type / bottom row composition.")
@click.option("--lambda", "lam", default=None, help="Tableau shape.")
@click.option("--type", "type_", default=None,
              help="Tableau type, or the two-row top row.")
@click.option("--mode", type=click.Choice(["symbolic", "specialized"]),
              default="symbolic", show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--format", "fmt",
              type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def enumerate_cmd(kind, n, mu, lam, type_, mode, seed, fmt, out):
    """List KIND objects with their weights, one per line (or a JSON
    array), followed by the count."""
    ctx = _context(mode, seed)
    try:
        items = _dispatch_enumerate(kind, n, mu, lam, type_, ctx)
    except (PoleError, SingularSystemError) as exc:
        raise CliError(
            f"{exc}; rerun with a different --seed to resample", 3)
    if fmt == "json":
        payload = {
            "kind": kind,
            "count": len(items),
            "objects": [
                {"object": oj, "weight": wj} for oj, _, wj, _ in items
            ],
        }
        _emit(dumps(payload) + "\n", out)
        return
    lines = [f"{text} | weight: {wt}" for _, text, _, wt in items]
    lines.append(f"count: {len(items)}")
    _emit("\n".join(lines) + "\n", out)


def _dispatch_enumerate(kind, n, mu, lam, type_, ctx):
    """Returns [(object_json, one_line_text, weight_json, weight_text)]."""
    items = []
    if kind in ("mlq", "smlq"):
        comp = _pad(_parse_comp(mu, "mu"), n, "mu")
        _bounds_check(len(comp), sum(comp))
        enum = enumerate_smlq if kind == "smlq" else enumerate_mlq
        for Q in enum(comp):
            w = Q.weight(ctx)
            items.append((
                queue_json(Q),
                dumps(queue_json(Q)),
                poly_json(w),
                poly_text(w),
            ))
    elif kind == "tableaux":
        shape = _parse_comp(lam, "lambda")
        try:
            if type_ is not None:
                comp = _parse_comp(type_, "type")
                _bounds_check(len(comp), sum(comp))
                tabs = enumerate_tableaux_typed(shape, comp)
            else:
                if n is None:
                    raise click.UsageError(
                        "--type or --n is required for tableaux")
                _bounds_check(n, sum(shape))
                tabs = enumerate_tableaux(shape, n)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        for t in tabs:
            w = tableau_term(t, ctx)
            items.append((
                tableau_json(t),
                tableau_text(t),
                poly_json(w),
                poly_text(w),
            ))
    else:
        bottom = _pad(_parse_comp(mu, "mu"), n, "mu")
        _bounds_check(len(bottom), sum(bottom))
        signed = kind == "signed-twoline"
        top = _parse_comp(type_, "type", signed=signed)
        if len(top) != len(bottom):
            raise click.UsageError("--type and --mu must have equal length")
        for m in (g_matchings if signed else a_matchings)(top, bottom):
            w = (signed_layer_weight(top, bottom, m, ctx) if signed
                 else classic_layer_weight(top, bottom, m, 2, ctx))
            pairs = sorted(m.items())
            obj = {
                "kind": kind,
                "top": list(top),
                "bottom": list(bottom),
                "pairs": [[j, k] for j, k in pairs],
            }
            text = ("pairs: "
                    + (" ".join(f"{j}->{k}" for j, k in pairs) or "(none)"))
            items.append((obj, text, scalar_json(w), str(w)))
    return items


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.command()
@click.argument("suites", nargs=-1)
@click.option("--n", "n_alias", type=int, default=None,
              help="Alias for --max-n.")
@click.option("--max-n", type=int, default=None,
              help="Override every suite's variable bound.")
@click.option("--max-size", type=int, default=None,
              help="Override every suite's size bound.")
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def verify(suites, n_alias, max_n, max_size, seed, out):
    """Run the named verification SUITES (default: all).

    Emits one JSON line per checked identity instance and a summary line;
    exits 5 if any instance fails.
    """
    names = list(suites) or ["all"]
    if "all" in names:
        names = "all"
    if max_n is None:
        max_n = n_alias
    try:
        reports = verify_mod.run_suites(
            names, max_n=max_n, max_size=max_size, seed=seed)
    except KeyError as exc:
        raise click.UsageError(exc.args[0])
    if not reports:
        raise click.UsageError(
            "the bounds select no instance of the chosen suites")
    _emit(verify_mod.report_lines(reports), out)
    if not verify_mod.all_passed(reports):
        raise CliError(
            f"{sum(1 for r in reports if not r.ok)} instance(s) failed", 5)


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


@main.command()
@click.argument("source", required=False)
@click.option("--format", "fmt",
              type=click.Choice(["text", "json", "latex", "svg"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def render(source, fmt, out):
    """Re-render a JSON-encoded queue or tableau from SOURCE (a file, or
    stdin when omitted)."""
    if source is None:
        raw = sys.stdin.read()
    else:
        try:
            with open(source) as fh:
                raw = fh.read()
        except OSError as exc:
            raise click.UsageError(str(exc))
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"input is not valid JSON: {exc}")
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in ("queue", "signed-queue", "tableau"):
        raise click.UsageError(
            f"unrenderable kind {kind!r}; expected queue, signed-queue, "
            f"or tableau")
    if kind != "tableau" and fmt not in ("text", "json"):
        raise click.UsageError(f"format {fmt} applies to tableaux only")
    parse = tableau_from_json if kind == "tableau" else queue_from_json
    try:
        obj = parse(data)
    except (LookupError, TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid object: {exc}")
    if kind == "tableau":
        text = {
            "text": lambda t: tableau_text(t) + "\n",
            "json": lambda t: dumps(tableau_json(t)) + "\n",
            "latex": lambda t: tableau_latex(t),
            "svg": lambda t: tableau_svg(t),
        }[fmt](obj)
    elif fmt == "text":
        text = queue_text(obj) + "\n"
    else:
        text = dumps(queue_json(obj)) + "\n"
    _emit(text, out)


if __name__ == "__main__":
    main()
