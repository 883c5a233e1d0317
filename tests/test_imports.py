"""Every module-level import of the package is read by its module, no
module catches ImportError to fall back on another backend, and every
top-level function and class of the package is read outside the tests."""

import ast
import glob
import os
import re
from functools import cache

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "macdonald_interp")


def unused_imports(tree):
    """(line, name) of each name bound by a module-level import statement
    that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(PACKAGE, "*.py"))),
    ids=os.path.basename)
def test_module_reads_every_import(path):
    with open(path) as f:
        tree = ast.parse(f.read())
    assert unused_imports(tree) == []


def catches_import_error(tree):
    """Lines of the except clauses that name ImportError (or a subclass)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            & {"ImportError", "ModuleNotFoundError"}]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(PACKAGE, "*.py"))),
    ids=os.path.basename)
def test_module_has_no_import_fallback(path):
    with open(path) as f:
        tree = ast.parse(f.read())
    assert catches_import_error(tree) == []


def names_read(node):
    """Identifiers that node reads: loaded names, attribute names, and the
    parts of dotted-name strings (the tracer's targets are such strings)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", n.value):
            out.update(n.value.split("."))
    return out


def registered(node):
    """A CLI command, read by the decorator that registers it."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list)


@cache
def _read_outside_tests():
    """Names read by the package (outside each definition's own body), the
    benchmark modules and the scripts."""
    read = set()
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path) as f:
            for node in ast.parse(f.read()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    read |= names_read(node) - {node.name}
                else:
                    read |= names_read(node)
    for pattern in ("perfbench/*.py", "scripts/*.py"):
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path) as f:
                read |= names_read(ast.parse(f.read()))
    return read


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(PACKAGE, "*.py"))),
    ids=os.path.basename)
def test_module_defines_nothing_only_tests_read(path):
    with open(path) as f:
        tree = ast.parse(f.read())
    read = _read_outside_tests()
    unread = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not registered(node) and node.name not in read]
    assert unread == []
