"""The research drivers in scripts/ run from a checkout at small bounds."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = ["--max-n", "2", "--max-size", "2"]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_route_benchmark_routes_agree():
    proc = run_script("route_benchmark.py", *SMALL)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.startswith("(")]
    # one row per composition of size <= 2 in two parts
    assert len(rows) == 6
    assert all(row[-1] == "yes" for row in rows)


@pytest.mark.parametrize("name, extra", [
    ("queue_census.py", ["--sample", "0,2"]),
    ("integral_scan.py", []),
])
def test_script_runs(name, extra):
    proc = run_script(name, *SMALL, *extra)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
