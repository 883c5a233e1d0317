"""One round of a workload, in a fresh process.

Run by `run.py` once per round:

    python3 perfbench/worker.py WORKLOAD ROUND_SEED TRACE COUNT SPANS_PATH

It imports the package from `src/` of the checkout, builds the scalar
context, generates the round's requests, then answers them one after
another (a closed loop with one client), each answer rendered as the CLI
renders it.  It prints one JSON line: when the first request was sent,
per-operation latencies, every rendered output, failures, its peak
resident memory and, when traced, the per-name span totals.  Everything
after the last request (counting queues and tableaux for the checks,
writing spans) is outside the timed phase.
"""

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import workloads  # noqa: E402

# The suites sample their points from the CLI's default --seed, so every
# round checks the same instances and the round seed only orders the suites.
VERIFY_SEED = 7


def import_package():
    """Import the package under test from this checkout's src/ only."""
    import macdonald_interp

    where = os.path.dirname(os.path.abspath(macdonald_interp.__file__))
    if where != os.path.join(SRC, "macdonald_interp"):
        raise ImportError(f"macdonald_interp imported from {where}, "
                          f"not from {SRC}")
    from macdonald_interp import (  # noqa: F401
        hecke, interpolation, queues, render, scalars, tableaux, verify)
    return macdonald_interp


def context(pkg, workload, round_seed):
    """The scalar context: Q(q,t), or the CLI's seeded generic point."""
    if workload == "queues-specialized":
        return pkg.scalars.specialized(round_seed, 4)
    return pkg.scalars.SYMBOLIC


def _render_table(pkg, table):
    return "\n".join(
        "(" + ",".join(str(v) for v in alpha) + "): "
        + pkg.render.poly_text(c)
        for alpha, c in sorted(table.items()))


def _answer(pkg, req, ctx):
    kind, *args = req
    if kind == "E*":
        return pkg.interpolation.solve_E_star(*args, ctx)
    if kind == "f*":
        return pkg.interpolation.f_star(*args, ctx)
    if kind == "P*":
        return pkg.interpolation.solve_P_star(*args, ctx)
    if kind == "e*":
        return pkg.interpolation.e_star_k(*args, ctx)
    if kind == "F*":
        return pkg.queues.F_star(*args, ctx)
    if kind == "T":
        return pkg.tableaux.tableaux_sum_typed(*args, ctx)
    if kind == "a":
        mu, = args
        return {nu: pkg.queues.a_coeff(nu, mu, ctx)
                for nu in workloads.classic_tops(mu)}
    if kind == "G":
        mu, = args
        return {alpha: pkg.queues.g_coeff(alpha, mu, ctx)
                for alpha in workloads.signed_tops(mu)}
    if kind == "b":
        return pkg.hecke.unpack_coeffs(*args, ctx)
    raise ValueError(f"unknown request {req!r}")


def operations(pkg, reqs, ctx, tracer=None):
    """Yield (request key, rendered output or None on failure) as each
    operation completes.  A suite request yields once per report."""
    for req in reqs:
        k = workloads.key(req)
        if req[0] == "suite":
            _, name, max_n, max_size = req
            func = pkg.verify.SUITES[name][0]
            if tracer is not None:
                func = tracer.wrap("verify.suite", func)
            bounds = pkg.verify.Bounds(max_n, max_size, VERIFY_SEED)
            try:
                for i, report in enumerate(func(bounds)):
                    yield f"{k}#{i}", report.to_json()
            except Exception:
                traceback.print_exc()
                yield k, None
            continue
        try:
            result = _answer(pkg, req, ctx)
            if isinstance(result, dict):
                text = _render_table(pkg, result)
            else:
                text = pkg.render.poly_text(result)
        except Exception:
            traceback.print_exc()
            text = None
        yield k, text


def count_objects(pkg, reqs):
    """Signed queues and tableaux per type, for the bijection check."""
    counts = {}
    for req in reqs:
        if req[0] == "F*":
            mu = req[1]
            queues = sum(1 for _ in pkg.queues.enumerate_smlq(mu))
            lam = tuple(sorted(mu, reverse=True))
            tabs = len(pkg.tableaux.enumerate_tableaux_typed(lam, mu))
            counts[workloads.key(mu)] = [queues, tabs]
    return counts


def run_round(workload, round_seed, trace=False, count=False,
              spans_path=None, bounds=None):
    """Answer every request of one round; return the round's record."""
    pkg = import_package()
    ctx = context(pkg, workload, round_seed)
    reqs = workloads.requests(workload, round_seed, bounds)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(pkg)
    latencies, outputs, failed = [], [], 0
    t_first = last = time.perf_counter()
    for op, (k, text) in enumerate(operations(pkg, reqs, ctx, tracer)):
        now = time.perf_counter()
        latencies.append(now - last)
        if text is None:
            failed += 1
        outputs.append([k, text])
        if tracer is not None:
            tracer.current_op = op + 1
        last = time.perf_counter()
    timed_s = sum(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "t_first": t_first,
        "timed_s": timed_s,
        "latencies": latencies,
        "outputs": outputs,
        "failed": failed,
        "rss_mb": rss_mb,
        "backend": f"{pkg.scalars.QQ.__module__}.{pkg.scalars.QQ.__name__}",
        "point": ([str(ctx.q0), str(ctx.t0)]
                  if not ctx.is_symbolic else None),
    }
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.totals()
        record["spans"] = len(tracer.start)
        if spans_path:
            tracer.dump(spans_path)
    if count:
        record["counts"] = count_objects(pkg, reqs)
    return record


def main(argv):
    workload, seed, trace, count, spans_path = argv
    record = run_round(workload, int(seed), trace=trace == "1",
                       count=count == "1", spans_path=spans_path or None)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
