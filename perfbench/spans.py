"""Span tracer for the traced benchmark run.

`Tracer.install` wraps the functions and methods that the per-layer
metrics name and rebinds every attribute of the package that points at
them, because the modules import each other's functions by name.  Each
call of a wrapped function is one span; a wrapped generator gives one span
per `next()`, so the work between yields is charged to the consumer.

Spans (name, start, end, parent, operation) live in flat arrays until
`dump` writes them out.  Self time is a span's duration minus the duration
of its child spans; it is summed per name as spans close, and it includes
the tracer's own bookkeeping for the child spans it encloses.
"""

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

# metric name -> (module, [qualified names of the wrapped callables])
TARGETS = (
    ("scalars.reduced", "scalars", ["RatQT.reduced"]),
    ("scalars.factor_binomials", "scalars", ["factor_binomials"]),
    ("scalars.try_div", "scalars", ["QTPoly.try_div"]),
    ("scalars.rq_sum", "scalars", ["rq_sum"]),
    ("scalars.exact_div", "scalars", ["QTPoly.exact_div"]),
    ("scalars.ctx_scalar", "scalars", [
        "SymbolicScalars.qt", "SymbolicScalars.binom",
        "SpecializedScalars.qt", "SpecializedScalars.binom"]),
    ("xpoly.mul", "xpoly", ["XPoly.__mul__"]),
    ("xpoly.add", "xpoly", ["XPoly.__add__"]),
    ("xpoly.evaluate", "xpoly", ["XPoly.evaluate"]),
    ("xpoly.delta", "xpoly", ["XPoly.delta"]),
    ("interpolation.solve_E_star", "interpolation", ["solve_E_star"]),
    ("interpolation.solve_P_star", "interpolation", ["solve_P_star"]),
    ("interpolation.solve_square", "interpolation", ["solve_square"]),
    ("interpolation.f_star", "interpolation", ["f_star"]),
    ("hecke.hecke_T", "hecke", ["hecke_T"]),
    ("hecke.shape_permute_star", "hecke", ["shape_permute_star"]),
    ("hecke.transition_apply", "hecke", ["transition_apply"]),
    ("queues.enumerate_smlq", "queues", ["enumerate_smlq"]),
    ("queues.multiset_placements", "queues", ["multiset_placements"]),
    ("queues.row_arrangements", "queues", [
        "classic_row_arrangements", "signed_row_arrangements"]),
    ("queues.weight_parts", "queues", [
        "SignedQueue.weight_parts", "Queue.weight_parts"]),
    ("queues.layer_weight", "queues", [
        "classic_layer_weight", "signed_layer_weight"]),
    ("queues.matchings", "queues", ["classic_matchings", "signed_matchings"]),
    ("tableaux.enumerate_tableaux", "tableaux", ["enumerate_tableaux"]),
    ("tableaux.tableau_weight", "tableaux", ["tableau_weight"]),
    ("tableaux.stats", "tableaux", [
        "maj", "coinv", "arm", "leg", "empty_count", "negative_count"]),
    ("render.poly_text", "render", ["poly_text"]),
)

class Tracer:
    """Spans of one process, plus per-name calls, yields and self time."""

    def __init__(self):
        self.names = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = 0
        self.calls = []
        self.yields = []
        self.self_s = []
        self.hits = []     # wrapped calls whose result is not None
        self.items = []    # summed len() of list results
        self._stack = []   # [span index, seconds covered by child spans]
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
            for counter in (self.calls, self.yields, self.self_s,
                            self.hits, self.items):
                counter.append(0)
        return self.names.index(name)

    def _enter(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(perf_counter())
        return idx

    def _exit(self, nid):
        now = perf_counter()
        idx, covered = self._stack.pop()
        self.end[idx] = now
        duration = now - self.start[idx]
        self.self_s[nid] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name, fn):
        """A traced stand-in for fn, recording spans under `name`."""
        nid = self.name_id(name)
        enter, exit_ = self._enter, self._exit
        calls, hits, items = self.calls, self.hits, self.items

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[nid] += 1
                return _TracedIter(self, nid, fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(nid)
            if result is not None:
                hits[nid] += 1
                if isinstance(result, list):
                    items[nid] += len(result)
            return result
        return traced

    # -- patching --------------------------------------------------------------

    def install(self, package):
        """Wrap every TARGETS callable of `package` (the imported package
        module) and rebind each package attribute bound to it."""
        modules = list(_submodules(package).values())
        for metric, module_name, qualnames in TARGETS:
            module = getattr(package, module_name)
            for qualname in qualnames:
                *path, attr = qualname.split(".")
                owner = module
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapped = self.wrap(metric, original)
                holders = [owner] if path else modules
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, name, original))
                            setattr(holder, name, wrapped)

    def uninstall(self):
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def totals(self):
        """{name: {"calls", "yields", "self_s", "hits", "items"}}."""
        return {
            name: {"calls": self.calls[i], "yields": self.yields[i],
                   "self_s": self.self_s[i], "hits": self.hits[i],
                   "items": self.items[i]}
            for i, name in enumerate(self.names)
        }

    def dump(self, path):
        """Write the spans: one JSON header line, then the raw arrays in
        header order (native byte order)."""
        fields = ("name", "start", "end", "parent", "op")
        header = {
            "names": self.names,
            "spans": len(self.start),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


class _TracedIter:
    """Iterator proxy: each next() on the wrapped generator is a span."""

    __slots__ = ("_tracer", "_nid", "_gen")

    def __init__(self, tracer, nid, gen):
        self._tracer = tracer
        self._nid = nid
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer, nid = self._tracer, self._nid
        tracer._enter(nid)
        try:
            item = next(self._gen)
        finally:
            tracer._exit(nid)
        tracer.yields[nid] += 1
        return item


def _submodules(package):
    prefix = package.__name__ + "."
    return {name: mod for name, mod in sys.modules.items()
            if name.startswith(prefix) and mod is not None}
