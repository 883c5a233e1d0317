"""Every module-level import of the package is read by its module, and no
module catches ImportError to fall back on another backend."""

import ast
import glob
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "macdonald_interp")


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
