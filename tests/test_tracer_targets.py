"""The benchmark's span tracer wraps package callables by name.

`perfbench/spans.py` `TARGETS` lists (module, qualified name) pairs, and
`Tracer.install` looks each one up with `vars(owner)[attr]`.  A package
name that the list still holds but the package no longer defines breaks
every traced benchmark run, so each one is resolved here.
"""

import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, qualname)
            for _, module, qualnames in spans.TARGETS
            for qualname in qualnames]


@pytest.mark.parametrize("module, qualname", _targets())
def test_tracer_target_resolves(module, qualname):
    owner = importlib.import_module(f"macdonald_interp.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr])
