"""Acceptance gate: fifteen exact desk-scale criteria, one test (and one
printed pass/fail line) each.

Every comparison is exact (symbolic normal forms or exact rational
arithmetic at seeded generic points); there are no tolerances to tune.
Criteria with stated runtime budgets assert them.
"""

import os
import subprocess
import sys
import time

from macdonald_interp.verify import run_suites

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def _run(names, **kwargs):
    start = time.perf_counter()
    reports = run_suites(names, seed=SEED, **kwargs)
    elapsed = time.perf_counter() - start
    return reports, elapsed


def _conclude(label, reports, elapsed=None, budget=None):
    failures = [r for r in reports if not r.ok]
    ok = bool(reports) and not failures
    if budget is not None:
        ok = ok and elapsed is not None and elapsed < budget
    timing = f" ({elapsed:.2f}s < {budget}s)" if budget is not None else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}"
          f" [{len(reports)} instances]{timing}")
    assert not failures, (
        f"{label}: {len(failures)} failing instance(s); first: "
        f"{failures[0].to_json()}")
    assert reports, f"{label}: no instances ran"
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.2f}s >= {budget}s"


def test_ac01_golden_type_three_routes():
    reports, elapsed = _run(["golden-example"])
    routes = {r.instance for r in reports}
    assert len(routes) == 3
    _conclude("AC01 golden type (0,2) by three routes", reports,
              elapsed, budget=5.0)


def test_ac02_enumeration_counts():
    reports, elapsed = _run(["counts"])
    _conclude("AC02 queue and tableau counts equal 15", reports,
              elapsed, budget=1.0)


def test_ac03_showcase_queue_weight():
    reports, elapsed = _run(["weight-golden"])
    assert {r.instance for r in reports} == {
        "queue weight, original order",
        "queue weight, strand order",
        "tableau image weight",
    }
    _conclude("AC03 showcase queue weight golden", reports,
              elapsed, budget=1.0)


def test_ac04_main_theorem():
    reports, elapsed = _run(["main-theorem"])
    modes = {r.mode for r in reports}
    assert "symbolic" in modes
    assert len(modes - {"symbolic"}) == 5  # five seeded rational points
    _conclude("AC04 queue sums equal Hecke-built family", reports,
              elapsed, budget=600.0)


def test_ac05_characterization():
    reports, _ = _run(["characterization"])
    assert all(r.mode == "symbolic" for r in reports)
    _conclude("AC05 vanishing-and-normalization characterization", reports)


def test_ac06_hecke_relations():
    reports, _ = _run(["hecke-relations"])
    kinds = {r.instance.split(" n=")[0] for r in reports}
    assert kinds == {
        "quadratic", "braid", "commuting",
        "product rule both variables",
        "product rule lower variable",
        "product rule upper variable",
    }
    assert any(" n=4 " in r.instance for r in reports)
    _conclude("AC06 operator algebra and product rules", reports)


def test_ac07_hecke_action_case_table():
    reports, _ = _run(["hecke-action"])
    families = {r.instance.split(" mu=")[0] for r in reports}
    assert families == {
        "homogeneous", "interpolation", "rescaled interpolation"}
    _conclude("AC07 operator case table on three families", reports)


def test_ac08_packed_recursion():
    reports, _ = _run(["packed-recursion"])
    halves = {r.instance.split(" ")[0] for r in reports}
    assert halves == {"recursion", "divisibility"}
    _conclude("AC08 packed peeling recursion and divisibility", reports)


def test_ac09_signed_decomposition():
    reports, _ = _run(["decomposition"])
    parts = {r.instance.split(" ")[0] for r in reports}
    assert parts == {"transition", "unpacking", "companion", "full"}
    _conclude("AC09 transition table, unpacking, decomposition", reports)


def test_ac10_twoline_recursion():
    reports, _ = _run(["twoline-recursion"])
    assert len(reports) == 288
    _conclude("AC10 signed two-row table recursion", reports)


def test_ac11_pairing_order_invariance():
    reports, _ = _run(["order-invariance"])
    _conclude("AC11 pairing-order invariance of queue weights", reports)


def test_ac12_tableaux_formula():
    reports, _ = _run(["tableaux-formula"])
    parts = {r.instance.split(" mu=")[0] for r in reports}
    assert parts == {"round trip", "image set", "weight preservation", "sum"}
    _conclude("AC12 strand bijection and tableau sums", reports)


def test_ac13_integral_form():
    reports, _ = _run(["integral-form"])
    parts = {r.instance.split(" ")[0] for r in reports}
    assert parts == {"hook", "hook-scaled", "symmetric", "nonsymmetric"}
    integrality = [r for r in reports if "integrality" in r.instance]
    assert integrality and all(r.mode == "symbolic" for r in integrality)
    _conclude("AC13 hook constancy and integral coefficients", reports)


def test_ac14_q1_factorization_suite():
    reports, _ = _run(["factorization-q1"])
    parts = {r.instance.split(" ")[0] for r in reports}
    assert parts == {"0/1", "column", "two-row", "symmetric", "partial"}
    assert any("mu=(1,1,1,1)" in r.instance for r in reports)  # n=4 closed form
    _conclude("AC14 specialization suite at q=1 and 0/1 types", reports)


def test_ac15_determinism_of_verify_all(tmp_path):
    """Two fresh processes, started together with different hash seeds,
    print the same bytes.  Agreement of a warm run with a cold one is the
    `determinism` suite's check."""
    command = [sys.executable, "-m", "macdonald_interp.cli",
               "verify", "all", "--seed", "7"]
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   PYTHONHASHSEED=hash_seed)
        out = tmp_path / f"verify-{hash_seed}.jsonl"
        with open(out, "wb") as fh:
            runs.append((out, subprocess.Popen(
                command, stdout=fh, stderr=subprocess.DEVNULL, env=env)))
    assert [proc.wait() for _, proc in runs] == [0, 0]
    outputs = [out.read_bytes() for out, _ in runs]
    ok = outputs[0] == outputs[1]
    print(f"AC15 verify-all byte-identical across processes: "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok
