"""Benchmark of the three routes to f*_mu and of the verify suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the package from its `src/`.
A run is a sequence of rounds; each round is a fresh child process
(`worker.py`) that starts with empty memo tables, as a CLI call does, and
answers every request of the workload once, one after another.  Rounds
start until S seconds have passed, so every run attempts whole rounds.
Round k gets its own seed, derived from N, which fixes the order of its
requests and (on queues-specialized) its rational point.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
runs one untraced round and then traced rounds with the same seeds, and
reports the per-layer metrics plus the tracing overhead.  Outputs are
checked outside the timed phase by `checks.py`.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROUND_TIMEOUT_S = 150


def spawn_round(workload, round_seed, trace, count, spans_path=""):
    """Run one round in a fresh process; return (record, setup seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(round_seed), "1" if trace else "0", "1" if count else "0",
           spans_path]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=ROUND_TIMEOUT_S, check=True)
    record = json.loads(proc.stdout.decode().splitlines()[-1])
    return record, record["t_first"] - started


def quantile(values, p):
    """The p-quantile (0 < p < 1) by the Harrell-Davis estimator: a
    Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics.
    Unlike a single order statistic it does not jump when two operations
    of different cost near the quantile trade places."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def end_to_end(rounds, setups):
    latencies = [x for r in rounds for x in r["latencies"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(
            (len(r["latencies"]) - r["failed"]) / r["timed_s"]
            for r in rounds), "1/s"),
        "op_p50_ms": (1e3 * quantile(latencies, 0.5), "ms"),
        "op_p90_ms": (1e3 * quantile(latencies, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }


def _total(totals, name, field):
    return totals.get(name, {}).get(field, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals):
    """Per-layer metrics of one traced round from the span totals."""
    def calls(name):
        return (_total(totals, name, "calls"), "count")

    def self_s(name):
        return (_total(totals, name, "self_s"), "s")

    placements = _total(totals, "queues.multiset_placements", "yields")
    return {
        "scalars.reduced.calls": calls("scalars.reduced"),
        "scalars.reduced.self_s": self_s("scalars.reduced"),
        "scalars.factor_binomials.calls": calls("scalars.factor_binomials"),
        "scalars.factor_binomials.self_s": self_s("scalars.factor_binomials"),
        "scalars.try_div.calls": calls("scalars.try_div"),
        "scalars.try_div.hit_ratio": (_ratio(
            _total(totals, "scalars.try_div", "hits"),
            _total(totals, "scalars.try_div", "calls")), "ratio"),
        "scalars.rq_sum.calls": calls("scalars.rq_sum"),
        "scalars.rq_sum.self_s": self_s("scalars.rq_sum"),
        "scalars.exact_div.self_s": self_s("scalars.exact_div"),
        "scalars.ctx_scalar.calls": calls("scalars.ctx_scalar"),
        "scalars.ctx_scalar.self_s": self_s("scalars.ctx_scalar"),
        "xpoly.mul.calls": calls("xpoly.mul"),
        "xpoly.mul.self_s": self_s("xpoly.mul"),
        "xpoly.add.self_s": self_s("xpoly.add"),
        "xpoly.evaluate.calls": calls("xpoly.evaluate"),
        "xpoly.evaluate.self_s": self_s("xpoly.evaluate"),
        "xpoly.delta.self_s": self_s("xpoly.delta"),
        "interpolation.solve_E_star.self_s":
            self_s("interpolation.solve_E_star"),
        "interpolation.solve_P_star.self_s":
            self_s("interpolation.solve_P_star"),
        "interpolation.solve_square.self_s":
            self_s("interpolation.solve_square"),
        "interpolation.f_star.calls": calls("interpolation.f_star"),
        "hecke.hecke_T.calls": calls("hecke.hecke_T"),
        "hecke.hecke_T.self_s": self_s("hecke.hecke_T"),
        "hecke.shape_permute_star.calls": calls("hecke.shape_permute_star"),
        "hecke.transition_apply.self_s": self_s("hecke.transition_apply"),
        "queues.enumerate_smlq.queues": (
            _total(totals, "queues.enumerate_smlq", "yields"), "count"),
        "queues.enumerate_smlq.self_s": self_s("queues.enumerate_smlq"),
        "queues.multiset_placements.placements": (placements, "count"),
        "queues.row_accept_ratio": (_ratio(
            _total(totals, "queues.row_arrangements", "yields"),
            placements), "ratio"),
        "queues.weight_parts.calls": calls("queues.weight_parts"),
        "queues.weight_parts.self_s": self_s("queues.weight_parts"),
        "queues.layer_weight.self_s": self_s("queues.layer_weight"),
        "queues.matchings.count": (
            _total(totals, "queues.matchings", "yields"), "count"),
        "tableaux.enumerate_tableaux.tableaux": (
            _total(totals, "tableaux.enumerate_tableaux", "items"), "count"),
        "tableaux.enumerate_tableaux.self_s":
            self_s("tableaux.enumerate_tableaux"),
        "tableaux.tableau_weight.calls": calls("tableaux.tableau_weight"),
        "tableaux.tableau_weight.self_s": self_s("tableaux.tableau_weight"),
        "tableaux.stats.self_s": self_s("tableaux.stats"),
        "render.poly_text.calls": calls("render.poly_text"),
        "render.poly_text.self_s": self_s("render.poly_text"),
        "verify.reports": (
            _total(totals, "verify.suite", "yields"), "count"),
        "verify.suite.self_s": self_s("verify.suite"),
    }


def per_layer(traced, reference):
    """Median over the traced rounds of each layer metric, plus the
    tracing overhead against the untraced round with the same seed."""
    per_round = [layer_metrics(r["trace"]) for r in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }

    def rate(r):
        return len(r["latencies"]) / r["timed_s"]

    metrics["trace.spans"] = (statistics.median(r["spans"] for r in traced),
                              "count")
    metrics["trace.overhead_ratio"] = (
        1.0 - rate(traced[0]) / rate(reference), "ratio")
    return metrics


def check_rounds(workload, rounds, counts, seed):
    """Problems found in the outputs of all rounds.  Symbolic answers do
    not depend on the round seed, so later rounds must repeat round 0's
    text exactly; the other workloads are checked round by round."""
    import checks

    first = dict(rounds[0]["outputs"])
    problems = []
    for i, r in enumerate(rounds):
        outputs = {k: text for k, text in r["outputs"] if text is not None}
        if i and workload in ("solve-symbolic", "queues-symbolic"):
            problems += [f"round {i}: {k} differs from round 0"
                         for k, text in outputs.items() if first.get(k) != text]
        else:
            problems += checks.check(workload, outputs, counts, r["point"],
                                     seed)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "macdonald_interp",
                                       "__init__.py")):
        sys.exit(f"no package source under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)

    def seed_of(k):
        return workloads.round_seed(args.seed, k)

    # Another round starts only if it should end within the run's seconds
    # (judged by the previous round), so a run never overruns by a round.
    start = last = time.perf_counter()
    rounds, setups, reference = [], [], None
    if args.trace:
        reference, _ = spawn_round(args.workload, seed_of(0), False, True)
    while not rounds or 2 * time.perf_counter() - last - start <= args.seconds:
        last = time.perf_counter()
        k = len(rounds)
        spans = (os.path.join(OUT, f"spans-{args.workload}-{k}.bin")
                 if args.trace else "")
        record, setup = spawn_round(args.workload, seed_of(k), args.trace,
                                    k == 0 and not args.trace, spans)
        rounds.append(record)
        setups.append(setup)

    checked = rounds + ([reference] if reference else [])
    counts = (reference or rounds[0])["counts"]
    problems = check_rounds(args.workload, checked, counts, args.seed)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(rounds, reference)
    else:
        metrics = end_to_end(rounds, setups)
    attempted = sum(len(r["latencies"]) for r in checked)
    failed = sum(r["failed"] for r in checked)

    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} "
          f"rounds of {len(rounds[0]['latencies'])} operations, closed "
          f"loop with one client; python {sys.version.split()[0]}, "
          f"nproc {os.cpu_count()}, rational backend {rounds[0]['backend']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(f"{'attempted':40s} {attempted:16d}\n{'failed':40s} {failed:16d}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
