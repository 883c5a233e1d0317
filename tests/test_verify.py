import json

import pytest

from macdonald_interp.interpolation import f_star
from macdonald_interp.scalars import SYMBOLIC
from macdonald_interp.tableaux import tab, tableau_term
from macdonald_interp.verify import (
    Report,
    figure_queue,
    figure_weight,
    report_lines,
    run_suites,
    six_term_f_star_02,
    suite_names,
)


def test_six_term_golden_matches_solver():
    assert six_term_f_star_02(SYMBOLIC) == f_star((0, 2), SYMBOLIC)


def test_figure_weight_matches_queue():
    Q = figure_queue()
    golden = figure_weight(SYMBOLIC)
    assert Q.weight(SYMBOLIC) == golden
    assert tableau_term(tab(Q), SYMBOLIC) == golden


def test_report_json_field_order():
    r = Report("s", "i", "m", "pass")
    assert r.to_json() == (
        '{"suite": "s", "instance": "i", "mode": "m", "status": "pass"}')
    r = Report("s", "i", "m", "fail", witness="w")
    assert json.loads(r.to_json())["witness"] == "w"
    assert not r.ok


def test_suite_names_are_stable():
    names = suite_names()
    assert names[0] == "golden-example"
    assert "main-theorem" in names and "determinism" in names
    assert len(names) == 15


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"])


def test_cheap_suites_pass():
    reports = run_suites(
        ["golden-example", "counts", "weight-golden", "determinism"])
    assert reports and all(r.ok for r in reports)
    assert {r.suite for r in reports} == {
        "golden-example", "counts", "weight-golden", "determinism"}


def test_bounds_override_shrinks_instances():
    small = run_suites(["characterization"], max_n=2, max_size=2)
    large = run_suites(["characterization"], max_n=2, max_size=3)
    assert 0 < len(small) < len(large)
    assert all(r.ok for r in large)


def test_single_name_string_accepted():
    reports = run_suites("counts")
    assert [r.suite for r in reports] == ["counts", "counts"]


def test_report_lines_summary():
    reports = run_suites(["counts"])
    lines = report_lines(reports).splitlines()
    assert len(lines) == len(reports) + 1
    summary = json.loads(lines[-1])
    assert summary == {"summary": True, "checked": 2, "failed": 0}
    for line in lines[:-1]:
        parsed = json.loads(line)
        assert list(parsed)[:4] == ["suite", "instance", "mode", "status"]


def test_report_lines_are_reproducible():
    first = report_lines(run_suites(["hecke-action"], max_size=2, seed=11))
    second = report_lines(run_suites(["hecke-action"], max_size=2, seed=11))
    assert first == second


def test_seed_changes_specialized_modes():
    a = run_suites(["order-invariance"], max_n=3, max_size=2, seed=1)
    b = run_suites(["order-invariance"], max_n=3, max_size=2, seed=2)
    modes_a = {r.mode for r in a if r.mode != "symbolic"}
    modes_b = {r.mode for r in b if r.mode != "symbolic"}
    assert modes_a and modes_b and modes_a != modes_b
