"""Checks the code relies on must survive ``python -O``, which strips
``assert``; the package raises InternalInconsistency instead."""

import ast
from pathlib import Path

import oddcycle

PACKAGE = Path(oddcycle.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
