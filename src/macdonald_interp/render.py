"""Canonical presentations of queues, tableaux, and polynomials.

Text encodings are one-line-per-row (queues) or one-line (tableaux), stable
under round-trips through the JSON forms and the validating parsers.  LaTeX
output is a standalone-compilable document; SVG output is a self-contained
image of the doubled diagram.
"""

from __future__ import annotations

import json

from .compositions import sort_desc
from .queues import (
    Queue,
    SignedQueue,
    classic_matchings,
    classic_sits,
    row_multisets,
)
from .tableaux import DoubledDiagram, tableau_from_columns


def _cells(row):
    return " ".join("." if v == 0 else str(v) for v in row)


def _pairs(matching):
    return " ".join(f"{u}->{l}" for u, l in sorted(matching))


# ---------------------------------------------------------------------------
# queues
# ---------------------------------------------------------------------------


def queue_text(queue):
    """One line per row from the bottom; rows above the first also list how
    their balls pair down to the row below."""
    signed = isinstance(queue, SignedQueue)
    lines = []
    for idx, row in enumerate(queue.rows):
        label = DoubledDiagram.level_name(idx) if signed else str(idx + 1)
        line = f"{label}: {_cells(row)}"
        if idx:
            line += f" | pair: {_pairs(queue.matchings[idx - 1])}"
        lines.append(line)
    return "\n".join(lines)


def queue_json(queue):
    return {
        "kind": "signed-queue" if isinstance(queue, SignedQueue) else "queue",
        "n": queue.n,
        "rows": [list(row) for row in queue.rows],
        "matchings": [[list(p) for p in m] for m in queue.matchings],
    }


def _check_ints(n, lists):
    """Raise ValueError unless n and every entry of the lists are ints."""
    if type(n) is not int or any(type(v) is not int for x in lists for v in x):
        raise ValueError("n and every entry must be ints")


def _check_queue(queue):
    """Raise ValueError unless a homogeneous queue obeys the queue rules."""
    rows = queue.rows
    if not rows or any(len(row) != queue.n for row in rows):
        raise ValueError(f"rows must have {queue.n} entries each")
    if ([sort_desc([v for v in row if v]) for row in rows]
            != (row_multisets(sort_desc(rows[0])) or [()])
            or len(queue.matchings) != len(rows) - 1):
        raise ValueError("row contents do not match the bottom row")
    for upper, lower, m in zip(rows[1:], rows, queue.matchings):
        allowed = [tuple(sorted(x.items()))
                   for x in classic_matchings(upper, lower)]
        if not classic_sits(upper, lower) or m not in allowed:
            raise ValueError("rows and matchings do not form a queue")


def queue_from_json(data):
    """Rebuild a queue from its JSON form.

    Homogeneous queues are checked against the queue rules.  Signed queues
    are validated by checking that the strand reading is a valid tableau
    whose inverse reproduces the queue exactly.
    """
    rows = tuple(tuple(row) for row in data["rows"])
    matchings = tuple(
        tuple(tuple(p) for p in m) for m in data["matchings"]
    )
    _check_ints(data["n"], rows + tuple(p for m in matchings for p in m))
    if data.get("kind") == "queue":
        queue = Queue(data["n"], rows, matchings)
        _check_queue(queue)
        return queue
    queue = SignedQueue(data["n"], rows, matchings)
    from .tableaux import tab, tab_inverse

    try:
        round_trip = tab_inverse(tab(queue))
    except (KeyError, IndexError, ValueError):
        round_trip = None
    if round_trip != queue:
        raise ValueError("rows and matchings do not form a signed queue")
    return queue


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------


def tableau_text(t):
    """Single-line form: bracketed columns bottom-to-top, then shape/type."""
    cols = " ".join(
        "[" + " ".join(str(e) for e in col) + "]" for col in t.columns
    )
    shape = " ".join(str(p) for p in t.diagram.lam)
    typ = " ".join(str(v) for v in t.type_of())
    return f"columns: {cols or '[]'} | shape: {shape or '-'} | type: {typ}"


def tableau_json(t):
    return {
        "kind": "tableau",
        "n": t.diagram.n,
        "columns": [list(col) for col in t.columns],
    }


def tableau_from_json(data):
    _check_ints(data["n"], data["columns"])
    return tableau_from_columns(data["n"], data["columns"])


def _entry_tex(e):
    return f"$-{abs(e)}$" if e < 0 else f"${e}$"


def tableau_latex(t):
    """Standalone-compilable tabular layout, rows from the top level down,
    one column per diagram column, row names in the left margin."""
    diag = t.diagram
    width = len(diag.lam)
    lines = [
        r"\documentclass{standalone}",
        r"\usepackage{array}",
        r"\begin{document}",
        r"\setlength{\tabcolsep}{4pt}",
        r"\begin{tabular}{r|" + "c|" * max(width, 1) + "}",
    ]
    for idx in range(diag.levels - 1, -1, -1):
        w = diag.width(idx)
        cells = [_entry_tex(t.entry(c, idx)) for c in range(w)]
        cells += [""] * (width - w)
        lines.append(
            rf"${diag.level_name(idx)}$ & " + " & ".join(cells) + r" \\"
        )
        lines.append(r"\cline{2-" + str(1 + max(w, 1)) + "}")
    if not diag.lam:
        lines.append(r"$\cdot$ & \\")
    lines.append(r"\end{tabular}")
    lines.append(r"\end{document}")
    return "\n".join(lines) + "\n"


_BOX = 34  # pixel size of one diagram box


def tableau_svg(t):
    """Self-contained SVG of the doubled diagram: one square per box,
    primed levels shaded, entries centered, row names on the left."""
    diag = t.diagram
    width = max(len(diag.lam), 1)
    levels = max(diag.levels, 1)
    margin = 30
    w = margin + width * _BOX + 10
    h = levels * _BOX + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="monospace" font-size="14">'
    ]
    for idx in range(diag.levels):
        y = (levels - 1 - idx) * _BOX + 10
        parts.append(
            f'<text x="{margin - 6}" y="{y + _BOX / 2 + 5}" '
            f'text-anchor="end">{diag.level_name(idx)}</text>'
        )
        for c in range(diag.width(idx)):
            x = margin + c * _BOX
            fill = "#e8e8e8" if idx % 2 else "#ffffff"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_BOX}" height="{_BOX}" '
                f'fill="{fill}" stroke="#000"/>'
            )
            parts.append(
                f'<text x="{x + _BOX / 2}" y="{y + _BOX / 2 + 5}" '
                f'text-anchor="middle">{t.entry(c, idx)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# polynomials and scalars
# ---------------------------------------------------------------------------


def poly_text(poly):
    return str(poly)


def poly_json(poly):
    return {
        "kind": "polynomial",
        "n": poly.n,
        "terms": [
            {"exponents": list(e), "coefficient": str(poly.terms[e])}
            for e in poly.monomials()
        ],
    }


def scalar_json(value):
    return {"kind": "scalar", "value": str(value)}


def coeff_table_json(table):
    """Deterministic JSON form of a {composition: scalar} mapping."""
    return {
        "kind": "coefficients",
        "entries": [
            {"index": list(alpha), "value": str(c)}
            for alpha, c in sorted(table.items())
        ],
    }


def dumps(data):
    """Canonical JSON serialization (stable field order, no whitespace
    variation)."""
    return json.dumps(data, separators=(", ", ": "))
