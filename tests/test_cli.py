import json
from itertools import product

import pytest
from click.testing import CliRunner

import macdonald_interp.cli as cli
import macdonald_interp.verify as verify_mod
from macdonald_interp.queues import a_coeff, g_coeff
from macdonald_interp.render import poly_text, queue_from_json, tableau_from_json
from macdonald_interp.scalars import (
    QQ, SYMBOLIC, SpecializedScalars, specialized)
from macdonald_interp.verify import six_term_f_star_02


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(cli.main, list(args), env=env, catch_exceptions=False)


# -- compute ----------------------------------------------------------------


def test_compute_golden_type(runner):
    result = invoke(runner, "compute", "f*", "--n", "2", "--mu", "0,2",
                    "--mode", "symbolic")
    assert result.exit_code == 0
    assert result.output == poly_text(six_term_f_star_02(SYMBOLIC)) + "\n"


def test_compute_column_equals_elementary(runner):
    column = invoke(runner, "compute", "P*", "--n", "3", "--lambda", "1,1,0")
    elementary = invoke(runner, "compute", "e*", "--n", "3", "--type", "2")
    assert column.exit_code == 0
    assert column.output == elementary.output


def test_compute_empty_type_is_one(runner):
    result = invoke(runner, "compute", "F*", "--mu", "0,0,0")
    assert result.exit_code == 0
    assert result.output == "1\n"


def test_compute_json_format(runner):
    result = invoke(runner, "compute", "E*", "--mu", "1,0", "--format", "json")
    data = json.loads(result.output)
    assert data["kind"] == "polynomial"
    assert data["n"] == 2


def test_compute_coefficients(runner):
    a = invoke(runner, "compute", "a", "--mu", "2,0,2", "--type", "2,2,0")
    assert a.exit_code == 0 and a.output.strip() != "0"
    g = invoke(runner, "compute", "G", "--mu", "0,2", "--type", "0,-2")
    assert g.exit_code == 0
    table = invoke(runner, "compute", "b", "--mu", "0,2")
    assert table.exit_code == 0
    lines = table.output.splitlines()
    assert all(":" in line for line in lines) and len(lines) > 1
    single = invoke(runner, "compute", "b", "--mu", "0,2", "--type", "0,-2")
    assert single.output.strip() == g.output.strip()


def test_compute_pads_with_n(runner):
    padded = invoke(runner, "compute", "f*", "--n", "3", "--mu", "0,2")
    explicit = invoke(runner, "compute", "f*", "--mu", "0,2,0")
    assert padded.output == explicit.output


def test_compute_specialized_is_deterministic(runner):
    first = invoke(runner, "compute", "f*", "--mu", "0,2",
                   "--mode", "specialized", "--seed", "5")
    second = invoke(runner, "compute", "f*", "--mu", "0,2",
                    "--mode", "specialized", "--seed", "5")
    other = invoke(runner, "compute", "f*", "--mu", "0,2",
                   "--mode", "specialized", "--seed", "6")
    assert first.output == second.output != other.output


def test_compute_usage_errors(runner):
    bad_comp = invoke(runner, "compute", "f*", "--mu", "0,x")
    assert bad_comp.exit_code == 2
    missing = invoke(runner, "compute", "f*")
    assert missing.exit_code == 2
    negative = invoke(runner, "compute", "f*", "--mu", "0,-2")
    assert negative.exit_code == 2
    short_n = invoke(runner, "compute", "f*", "--n", "1", "--mu", "0,2")
    assert short_n.exit_code == 2
    bad_degree = invoke(runner, "compute", "e*", "--n", "2", "--type", "1,1")
    assert bad_degree.exit_code == 2
    mismatch = invoke(runner, "compute", "a", "--mu", "2,0", "--type", "2")
    assert mismatch.exit_code == 2


def test_compute_pole_exits_3(runner, monkeypatch):
    monkeypatch.setattr(
        cli, "_context", lambda mode, seed: SpecializedScalars(1, QQ(1, 2)))
    result = runner.invoke(
        cli.main, ["compute", "f*", "--mu", "0,2", "--mode", "specialized"])
    assert result.exit_code == 3
    assert "seed" in result.output


# -- enumerate ---------------------------------------------------------------


def test_enumerate_smlq_count(runner):
    result = invoke(runner, "enumerate", "smlq", "--mu", "0,2")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[-1] == "count: 15"
    assert all("| weight:" in line for line in lines[:-1])


def test_enumerate_trivial_type(runner):
    result = invoke(runner, "enumerate", "smlq", "--mu", "0,0")
    lines = result.output.splitlines()
    assert lines[-1] == "count: 1"
    assert lines[0].endswith("| weight: 1")


def test_enumerate_json_round_trips(runner):
    result = invoke(runner, "enumerate", "smlq", "--mu", "0,2",
                    "--format", "json")
    data = json.loads(result.output)
    assert data["count"] == 15 and len(data["objects"]) == 15
    for item in data["objects"]:
        queue_from_json(item["object"])


def test_enumerate_tableaux_matches_queues(runner):
    result = invoke(runner, "enumerate", "tableaux", "--lambda", "2,0",
                    "--type", "0,2", "--format", "json")
    data = json.loads(result.output)
    assert data["count"] == 15
    for item in data["objects"]:
        tableau_from_json(item["object"])


def test_enumerate_twoline_kinds(runner):
    classic = invoke(runner, "enumerate", "twoline", "--mu", "2,0,2",
                     "--type", "2,2,0")
    assert classic.exit_code == 0
    assert classic.output.splitlines()[-1].startswith("count:")
    signed = invoke(runner, "enumerate", "signed-twoline", "--mu", "0,2",
                    "--type", "0,-2")
    assert signed.exit_code == 0
    assert "pairs:" in signed.output.splitlines()[0]


def test_enumerate_signed_twoline_checks_sitting_rules(runner):
    # matchings exist (2 lies over a 2), but +2 sits over a 1 in column 1
    result = invoke(runner, "enumerate", "signed-twoline", "--mu", "1,2",
                    "--type", "2,0")
    assert result.exit_code == 0
    assert result.output == "count: 0\n"


@pytest.mark.parametrize("args", [
    ("twoline", "--mu", "1,0", "--type", "1,0"),  # a classic top has no 1s
    ("signed-twoline", "--mu", "2,1", "--type", "2,0"),  # the 1 is missing
])
def test_enumerate_twoline_lists_nothing_for_a_zero_coefficient(runner, args):
    result = invoke(runner, "enumerate", *args)
    assert result.exit_code == 0
    assert result.output == "count: 0\n"


def test_twoline_listings_sum_to_their_coefficients():
    """Over n = 2, 3 and |mu| <= 3, the listed weights of every top row with
    entries up to 3 sum to a_coeff (classic) and g_coeff (signed)."""
    ctx = specialized(7, 4)
    for n in (2, 3):
        for mu in product(range(4), repeat=n):
            if sum(mu) > 3:
                continue
            for kind, coeff, entries in (("twoline", a_coeff, range(4)),
                                         ("signed-twoline", g_coeff,
                                          range(-3, 4))):
                for top in product(entries, repeat=n):
                    items = cli._dispatch_enumerate(
                        kind, None, ",".join(map(str, mu)), None,
                        ",".join(map(str, top)), ctx)
                    listed = sum((QQ(item[3]) for item in items), QQ(0))
                    assert listed == coeff(top, mu, ctx), (kind, top, mu)


def test_enumerate_mlq(runner):
    result = invoke(runner, "enumerate", "mlq", "--mu", "0,2,1")
    assert result.exit_code == 0
    assert result.output.splitlines()[-1].startswith("count:")


def test_enumerate_bounds_exit_4(runner):
    too_wide = invoke(runner, "enumerate", "smlq", "--mu", "0,1,0,1,0")
    assert too_wide.exit_code == 4
    too_big = invoke(runner, "enumerate", "smlq", "--mu", "3,3")
    assert too_big.exit_code == 4


@pytest.mark.parametrize("args", [
    ("--lambda", "2,1", "--type", "0,2"),  # type does not rearrange shape
    ("--lambda", "1,2", "--n", "2"),       # shape not decreasing
    ("--lambda", "2,1,1", "--n", "2"),     # shape does not fit n
])
def test_enumerate_tableaux_malformed_shape_exit_2(runner, args):
    result = invoke(runner, "enumerate", "tableaux", *args)
    assert result.exit_code == 2
    assert "Error:" in result.output


# -- verify -------------------------------------------------------------------


def test_verify_reports_and_exit(runner):
    result = invoke(runner, "verify", "counts", "golden-example")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    summary = json.loads(lines[-1])
    assert summary["failed"] == 0 and summary["checked"] == len(lines) - 1
    assert json.loads(lines[0])["suite"] == "counts"


def test_verify_unknown_suite_exit_2(runner):
    assert invoke(runner, "verify", "bogus").exit_code == 2


@pytest.mark.parametrize("args", [
    ("main-theorem", "--max-n", "1"),
    ("integral-form", "--max-size", "-2"),
])
def test_verify_bounds_selecting_nothing_exit_2(runner, args):
    result = invoke(runner, "verify", *args)
    assert result.exit_code == 2
    assert '"checked"' not in result.output


def test_verify_n_aliases_max_n(runner):
    via_alias = invoke(runner, "verify", "characterization", "--n", "2",
                       "--max-size", "2")
    via_flag = invoke(runner, "verify", "characterization", "--max-n", "2",
                      "--max-size", "2")
    assert via_alias.output == via_flag.output


def test_verify_failure_exit_5(runner, monkeypatch):
    def failing_suite(bounds):
        yield verify_mod.Report("broken", "forced", "exact", "fail", "w")

    monkeypatch.setitem(verify_mod.SUITES, "broken", (failing_suite, 2, 2))
    result = runner.invoke(cli.main, ["verify", "broken"])
    assert result.exit_code == 5
    assert '"status": "fail"' in result.output


def test_verify_determinism_bytes(runner, tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for p in paths:
        result = invoke(runner, "verify", "counts", "weight-golden",
                        "--seed", "7", "--out", str(p))
        assert result.exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# -- render -------------------------------------------------------------------


def test_render_queue_file_and_stdin(runner, tmp_path):
    listed = invoke(runner, "enumerate", "smlq", "--mu", "0,2",
                    "--format", "json")
    obj = json.loads(listed.output)["objects"][0]["object"]
    path = tmp_path / "queue.json"
    path.write_text(json.dumps(obj))
    from_file = invoke(runner, "render", str(path))
    assert from_file.exit_code == 0 and "pair:" in from_file.output
    from_stdin = runner.invoke(cli.main, ["render"], input=json.dumps(obj))
    assert from_stdin.output == from_file.output
    as_json = invoke(runner, "render", str(path), "--format", "json")
    assert json.loads(as_json.output) == obj


def test_render_tableau_formats(runner, tmp_path):
    listed = invoke(runner, "enumerate", "tableaux", "--lambda", "2",
                    "--type", "0,2", "--format", "json")
    obj = json.loads(listed.output)["objects"][0]["object"]
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps(obj))
    tex = invoke(runner, "render", str(path), "--format", "latex")
    assert tex.output.startswith("\\documentclass{standalone}")
    svg = invoke(runner, "render", str(path), "--format", "svg")
    assert svg.output.startswith("<svg xmlns=")


def test_render_rejects_bad_input(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert invoke(runner, "render", str(bad)).exit_code == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"kind": "mystery"}')
    assert invoke(runner, "render", str(unknown)).exit_code == 2
    missing = invoke(runner, "render", str(tmp_path / "absent.json"))
    assert missing.exit_code == 2
    queue_latex = tmp_path / "queue.json"
    listed = invoke(runner, "enumerate", "smlq", "--mu", "0,0",
                    "--format", "json")
    queue_latex.write_text(
        json.dumps(json.loads(listed.output)["objects"][0]["object"]))
    assert invoke(runner, "render", str(queue_latex),
                  "--format", "latex").exit_code == 2


@pytest.mark.parametrize("obj", [
    {"kind": "queue", "n": 2, "rows": [[5, 7], [9, 9], [1, 1]],
     "matchings": [[], []]},
    {"kind": "queue"},
    {"kind": "tableau", "n": 2},
    {"kind": "queue", "n": 2, "rows": 5, "matchings": []},
    {"kind": "tableau", "n": 2, "columns": [[1, "a"]]},
    {"kind": "tableau", "n": 2.5, "columns": [[1, -1, 1, 1], [2, 2]]},
])
def test_render_rejects_malformed_objects(runner, obj):
    result = runner.invoke(cli.main, ["render"], input=json.dumps(obj))
    assert result.exit_code == 2
    assert "invalid object" in result.output


def test_render_rejects_broken_queue_rules(runner):
    listed = invoke(runner, "enumerate", "mlq", "--mu", "0,2,1",
                    "--format", "json")
    obj = json.loads(listed.output)["objects"][0]["object"]
    assert obj["rows"] == [[0, 2, 1], [2, 0, 0]]
    for rows, matchings in [
        ([[0, 2, 1], [0, 0, 2]], [[[3, 2]]]),  # 2 sits over a 1
        ([[0, 2, 1], [2, 0, 0]], [[[1, 3]]]),  # a 2 paired with a 1
        ([[0, 2, 1], [2, 0, 0]], []),  # a matching is missing
        ([[0, 2, 1], [2, 0, 0], [2, 0, 0]], [[[1, 2]], [[1, 1]]]),  # extra row
    ]:
        with pytest.raises(ValueError):
            queue_from_json(dict(obj, rows=rows, matchings=matchings))


def test_render_round_trips_every_listed_queue(runner):
    listed = invoke(runner, "enumerate", "mlq", "--mu", "0,2,1",
                    "--format", "json")
    for item in json.loads(listed.output)["objects"]:
        obj = item["object"]
        result = runner.invoke(cli.main, ["render", "--format", "json"],
                               input=json.dumps(obj))
        assert result.exit_code == 0
        assert json.loads(result.output) == obj


# -- global flags --------------------------------------------------------------


def test_out_flag_writes_exact_bytes(runner, tmp_path):
    path = tmp_path / "out.txt"
    to_stdout = invoke(runner, "compute", "f*", "--mu", "0,2")
    to_file = invoke(runner, "compute", "f*", "--mu", "0,2",
                     "--out", str(path))
    assert to_file.exit_code == 0 and to_file.output == ""
    assert path.read_text() == to_stdout.output
