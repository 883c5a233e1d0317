import json

import pytest

from macdonald_interp.interpolation import f_star, solve_P_star
from macdonald_interp.queues import (
    F_star, Z_star, enumerate_mlq, enumerate_smlq)
from macdonald_interp.render import (
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
from macdonald_interp.scalars import SYMBOLIC, QTPoly, RatQT
from macdonald_interp.tableaux import (
    DoubledDiagram, enumerate_tableaux, tab, tableaux_sum_typed)
from macdonald_interp.verify import figure_queue


def test_row_labels():
    assert [DoubledDiagram.level_name(i) for i in range(4)] == \
        ["1", "1'", "2", "2'"]


def test_queue_json_round_trip_signed():
    for Q in enumerate_smlq((0, 2)):
        data = json.loads(dumps(queue_json(Q)))
        assert data["kind"] == "signed-queue"
        assert queue_from_json(data) == Q


def test_queue_json_round_trip_homogeneous():
    for Q in enumerate_mlq((0, 2, 1)):
        data = json.loads(dumps(queue_json(Q)))
        assert data["kind"] == "queue"
        assert queue_from_json(data) == Q


def test_queue_from_json_rejects_tampered_matchings():
    Q = next(iter(enumerate_smlq((0, 2))))
    data = queue_json(Q)
    data["matchings"] = [[] for _ in data["matchings"]]
    with pytest.raises(ValueError):
        queue_from_json(data)


def test_queue_text_figure():
    lines = queue_text(figure_queue()).splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("1: 2 2 . . . 2 3 1")
    assert "pair:" in lines[1]
    assert "pair:" not in lines[0]


def test_tableau_json_round_trip():
    for t in enumerate_tableaux((2, 1), 3):
        data = json.loads(dumps(tableau_json(t)))
        assert data["kind"] == "tableau"
        assert tableau_from_json(data) == t


def test_tableau_text_mentions_shape_and_type():
    t = tab(figure_queue())
    text = tableau_text(t)
    assert "shape: 3 2 2 2 1" in text
    assert "type: 2 2 0 0 0 2 3 1" in text


def test_tableau_latex_is_standalone():
    tex = tableau_latex(tab(figure_queue()))
    assert tex.startswith("\\documentclass{standalone}")
    assert "\\begin{tabular}" in tex and "\\end{document}" in tex
    assert "$2'$" in tex


def test_tableau_svg_is_self_contained():
    svg = tableau_svg(tab(figure_queue()))
    assert svg.startswith("<svg xmlns=")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") == 20  # doubled diagram of (3,2,2,2,1)


def test_poly_json_fields():
    p = f_star((0, 2), SYMBOLIC)
    data = poly_json(p)
    assert data["kind"] == "polynomial"
    assert data["n"] == 2
    assert len(data["terms"]) == len(p.terms)
    assert poly_text(p) == str(p)


def test_scalar_and_table_json():
    assert scalar_json(SYMBOLIC.one) == {"kind": "scalar", "value": "1"}
    table = {(1, 0): SYMBOLIC.one, (0, 1): SYMBOLIC.zero}
    data = coeff_table_json(table)
    assert [e["index"] for e in data["entries"]] == [[0, 1], [1, 0]]


def test_dumps_is_deterministic():
    Q = figure_queue()
    assert dumps(queue_json(Q)) == dumps(queue_json(figure_queue()))


def test_equal_values_print_equal_bytes():
    """Routes that compute the same polynomial print the same text."""
    pairs = [
        (solve_P_star((2, 2), 2, SYMBOLIC), Z_star((2, 2), 2, SYMBOLIC)),
        (f_star((2, 1), SYMBOLIC), F_star((2, 1), SYMBOLIC)),
        (tableaux_sum_typed((3, 0), SYMBOLIC), F_star((3, 0), SYMBOLIC)),
    ]
    for a, b in pairs:
        assert a == b
        assert poly_text(a) == poly_text(b)
    # equal scalars reached by different arithmetic hash equal
    one_minus_t = QTPoly.binomial(0, 1)
    x = RatQT(QTPoly.binomial(2, 2), QTPoly.binomial(1, 1) * one_minus_t)
    y = (RatQT(1, one_minus_t) + RatQT(QTPoly.monomial(1, 1), one_minus_t))
    assert x == y and hash(x) == hash(y)
    assert {x: "value"}[y] == "value"
    assert len({x, y, x * 1, y + 0}) == 1
