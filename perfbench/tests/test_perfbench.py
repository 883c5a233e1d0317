"""Tests of the benchmark itself: every workload at a tiny size, the
tracer, and the output checks against deliberately corrupted answers.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SEED = 5


def tiny_round(workload, trace=False):
    return worker.run_round(workload, SEED, trace=trace, count=True,
                            bounds=workloads.TINY[workload])


def round_problems(workload, record):
    return checks.check(workload, dict(record["outputs"]),
                        record.get("counts"), record["point"], SEED)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_checks(workload):
    record = tiny_round(workload)
    assert record["failed"] == 0
    assert len(record["latencies"]) == len(record["outputs"]) > 0
    assert record["t_first"] > 0 and record["rss_mb"] > 0
    assert round_problems(workload, record) == []


def test_requests_follow_the_seed():
    a = workloads.requests("queues-symbolic", 1)
    assert a == workloads.requests("queues-symbolic", 1)
    assert a != workloads.requests("queues-symbolic", 2)
    assert sorted(a) == sorted(workloads.requests("queues-symbolic", 2))
    assert workloads.round_seed(3, 0) != workloads.round_seed(3, 1)


def test_quantile_is_harrell_davis():
    assert run.quantile([2.5] * 7, 0.9) == pytest.approx(2.5)
    assert run.quantile(list(range(101)), 0.5) == pytest.approx(50)
    # Symmetric weights: the middle pair of an even sample counts equally.
    assert run.quantile([1, 2, 10, 11], 0.5) == pytest.approx(6)
    low, high = run.quantile(range(1000), 0.5), run.quantile(range(1000), 0.9)
    assert 495 < low < 505 and 895 < high < 905


def test_traced_round_matches_untraced_and_unpatches():
    import macdonald_interp.interpolation as interpolation

    original = interpolation.f_star
    plain = tiny_round("solve-symbolic")
    traced = tiny_round("solve-symbolic", trace=True)
    assert interpolation.f_star is original
    assert dict(traced["outputs"]) == dict(plain["outputs"])
    totals = traced["trace"]
    assert totals["render.poly_text"]["calls"] == len(traced["outputs"])
    assert totals["interpolation.f_star"]["calls"] > 0
    assert traced["spans"] > 0


def test_tracer_counts_generator_yields_and_self_time():
    from spans import Tracer

    tracer = Tracer()

    def inner(k):
        return list(range(k))

    def gen(k):
        for v in traced_inner(k):
            yield v

    traced_inner = tracer.wrap("inner", inner)
    traced_gen = tracer.wrap("gen", gen)
    assert list(traced_gen(3)) == [0, 1, 2]
    totals = tracer.totals()
    assert totals["gen"]["calls"] == 1 and totals["gen"]["yields"] == 3
    assert totals["inner"]["calls"] == 1 and totals["inner"]["items"] == 3
    # 4 next() spans on gen (the last one stops it) and 1 call of inner
    assert len(tracer.start) == 5
    assert list(tracer.parent).count(-1) == 4
    assert all(s >= 0 for s in (totals["gen"]["self_s"],
                                totals["inner"]["self_s"]))


# ---------------------------------------------------------------------------
# the checks catch corrupted answers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved():
    return dict(tiny_round("solve-symbolic")["outputs"])


def corrupt(outputs, kind, args, text):
    out = dict(outputs)
    out[workloads.key((kind,) + args)] = text
    return out


def test_check_flags_wrong_E_star(solved):
    k = workloads.key(("E*", (1, 1)))
    bad = corrupt(solved, "E*", ((1, 1),), solved[k] + " + x1")
    problems = checks.check("solve-symbolic", bad, None, None, SEED)
    assert any("E*(1, 1)" in p for p in problems)


def test_check_flags_wrong_f_star_orbit_coefficient(solved):
    k = workloads.key(("f*", (0, 2)))
    bad = corrupt(solved, "f*", ((0, 2),), solved[k] + " + x1^2")
    problems = checks.check("solve-symbolic", bad, None, None, SEED)
    assert any("f*(0, 2)" in p for p in problems)


def test_check_flags_asymmetric_P_star(solved):
    bad = corrupt(solved, "P*", ((1, 0), 2), "x1 + x2 + x1^2")
    problems = checks.check("solve-symbolic", bad, None, None, SEED)
    assert any("not symmetric" in p for p in problems)


def test_check_flags_e_star_mismatch(solved):
    bad = corrupt(solved, "e*", (1, 2), "x1 + x2")
    problems = checks.check("solve-symbolic", bad, None, None, SEED)
    assert any("e*_1" in p for p in problems)


def test_check_flags_queue_tableau_mismatch():
    record = tiny_round("queues-specialized")
    outputs = dict(record["outputs"])
    k = workloads.key(("T", (1, 1, 0)))
    outputs[k] = outputs[k] + " + 1"
    problems = checks.check("queues-specialized", outputs, record["counts"],
                            record["point"], SEED)
    assert any("queue sum differs" in p for p in problems)
    counts = dict(record["counts"])
    counts[workloads.key((1, 1, 0))] = [3, 2]
    problems = checks.check("queues-specialized", dict(record["outputs"]),
                            counts, record["point"], SEED)
    assert any("queues but" in p for p in problems)


def test_check_flags_two_row_faults():
    record = tiny_round("queues-symbolic")
    outputs = dict(record["outputs"])
    g = workloads.key(("G", (2, 0)))
    a = workloads.key(("a", (2, 0)))
    outputs[g] = outputs[g].replace("(2,0): ", "(2,0): q*t + ", 1)
    outputs[a] = "(2,0): 2"
    problems = checks.check("queues-symbolic", outputs, record["counts"],
                            None, SEED)
    assert any("not in Z[t]" in p for p in problems)
    assert any("sum to" in p for p in problems)


def test_check_flags_failed_report():
    line = json.dumps({"suite": "s", "instance": "i", "mode": "m",
                       "status": "fail"})
    assert checks.check("verify-suites", {"k": line}, None, None, SEED)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-symbolic",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
