"""Source scans of the package. Checks the code relies on must survive
``python -O``, which strips ``assert``, so the package raises
InternalInconsistency instead; and every BFS runs on the one kernel."""

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


def test_only_the_bfs_kernel_unions_rows():
    # A row union over a frontier is the inner step of a BFS; every BFS in
    # the package runs on graph._bfs, so no other function may reach for it.
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name == "_union_rows":
                    users.add(f"{path.stem}.{func.name}")
    assert users == {"graph._bfs"}
