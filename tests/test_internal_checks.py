"""Source scans of the package. Checks the code relies on must survive
``python -O``, which strips ``assert``, so the package raises
InternalInconsistency instead; every BFS runs on the one kernel; only
matrices and colouring tables from outside go through the validating
``Graph`` and ``EdgeColouring`` constructors; only the ``Graph`` constructor
and ``colour_class`` pack a bool matrix into rows; only ``colouring.py``
knows the colour table's layout, and only it and ``certify.py`` read the
table; the pipeline checks a handed-on bipartition against the table in one
place; it peels in one place and reads the residual two-colourings off the
peels; the peel itself builds no vertex array; a level's endgame keeps
its vertex sets as int masks; and the small-case searches keep no flag
beside a colour's odd girth and witness."""

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


class _Builds(ast.NodeVisitor):
    """(scope, kind) of every instance of class ``name`` (defined in module
    ``home``) built in a module: ``validating`` for a ``name(...)`` call
    (``cls(...)`` inside the class), ``unchecked`` for a bare
    ``name.__new__``."""

    def __init__(self, module, home, name):
        self.scope = [module]
        self.home = [home, name]
        self.name = name
        self.found = set()

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Call(self, node):
        names = {self.name, "cls"} if self.scope[:2] == self.home else {self.name}
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            self.found.add((".".join(self.scope), "validating"))
        if (isinstance(func, ast.Attribute) and func.attr == "__new__"
                and isinstance(func.value, ast.Name) and func.value.id in names):
            self.found.add((".".join(self.scope), "unchecked"))
        self.generic_visit(node)


def _builds(home, name):
    builds = set()
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Builds(path.stem, home, name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        builds |= visitor.found
    return builds


def test_only_builders_validate_graphs():
    # Graph(...) checks a matrix handed in from outside; a graph the package
    # builds itself (colour classes, views, and Graph.from_edges, which
    # checks its edges and sets symmetric rows) is packed unchecked through
    # Graph._from_rows, so no other function may construct one.
    builds = _builds("graph", "Graph")
    assert any(scope.startswith("builders.") for scope, _ in builds)
    assert {b for b in builds if not b[0].startswith("builders.")} == {
        ("graph.Graph._from_rows", "unchecked"),
    }


def test_only_tables_from_outside_are_checked():
    # EdgeColouring(...) checks a table handed in from outside; a table a
    # package builder makes is valid by construction and goes through
    # EdgeColouring._from_table. colouring_from_classes validates because
    # its edge lists come from outside.
    assert _builds("colouring", "EdgeColouring") == {
        ("colouring.colouring_from_classes", "validating"),
        ("colouring.EdgeColouring._from_table", "unchecked"),
    }


class _NameUses(ast.NodeVisitor):
    """Scopes (``module.Class.function``) whose code names ``target``."""

    def __init__(self, module, target):
        self.scope = [module]
        self.target = target
        self.found = set()

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Name(self, node):
        if node.id == self.target:
            self.found.add(".".join(self.scope))

    def visit_Attribute(self, node):
        if node.attr == self.target:
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def _package_uses(target):
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _NameUses(path.stem, target)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        users |= visitor.found
    return users


def test_table_packing_has_one_home():
    # Packing a bool matrix into row ints is for a matrix from outside
    # (Graph.__init__) and the validated colouring table (colour_class);
    # searches keep their classes as row ints and never pack a table.
    assert _package_uses("_pack_rows") == {"graph.Graph.__init__", "colouring.colour_class"}


def test_pairs_join_a_class_by_one_rule():
    # The small-case searches put a pair into a colour class only through
    # analysis._add, the one caller of the even-walk search: the exhaustive
    # search adds every pair by it, annealing builds its start by it and
    # recolours through it. No second builder of class states is left. A
    # kept odd girth is exact when it is 3 or its colour keeps a witness, and
    # a lower bound otherwise, so analysis.py keeps no flag beside it; that
    # holds because _add keeps the witness the even-walk search returns.
    assert _package_uses("_even_walk") == {"analysis._add"}
    defined = {node.name for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert not defined & {"_class_rows", "_triangles", "_class_state"}
    tree = ast.parse((PACKAGE / "analysis.py").read_text())
    names = {getattr(node, key, None) for node in ast.walk(tree) for key in ("id", "arg", "attr", "name")}
    assert "stale" not in names


def _modules_where(hit):
    """Modules of the package holding an AST node for which ``hit`` holds."""
    return {path.stem for path in sorted(PACKAGE.glob("*.py"))
            if any(map(hit, ast.walk(ast.parse(path.read_text(), filename=str(path)))))}


def _names(node):
    """What a node names: an imported name, a name or an attribute."""
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return [node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)]


def test_the_colour_table_has_one_home():
    # colouring.py alone knows the table's layout, its pair order and the
    # row blocks it is walked in; every other module goes through its
    # functions. certify reads the table itself, so that the verifiers stay
    # independent of the producers.
    for name in ("_from_table", "_BLOCK", "_row_blocks", "_upper"):
        assert _modules_where(lambda node: name in _names(node)) == {"colouring"}, name
    reads_table = _modules_where(lambda node: isinstance(node, ast.Attribute)
                                 and node.attr == "table")
    assert reads_table == {"colouring", "certify"}


def test_peel_builds_no_arrays():
    # peel hands back int masks; its results turn them into numpy arrays
    # only when a caller reads a field.
    path = PACKAGE / "peeling.py"
    visitor = _NameUses(path.stem, "_bits_to_array")
    visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    assert visitor.found  # the results still build their arrays from masks
    assert "peeling.peel" not in visitor.found


def _pipeline_uses(target):
    path = PACKAGE / "pipeline.py"
    visitor = _NameUses(path.stem, target)
    visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return visitor.found


def test_bipartitions_are_checked_in_one_place():
    # Both consumers of a bipartition (the reduction and the signatures)
    # check its sides against the table through _checked_sides, by one pass
    # over the table that gathers no submatrix of either side; the
    # signatures rebuild no colour class, component list or dense class
    # matrix.
    assert _package_uses("_joins_one_side") == {"pipeline._checked_sides"}
    assert _package_uses("ix_") == set()
    for name in ("colour_class", "components", "masked_matrix"):
        assert "pipeline.signatures" not in _pipeline_uses(name)


def test_the_endgame_keeps_vertex_sets_as_masks():
    # Steps 5-7 of a level split the residuals, pick the shortening targets
    # and pair the survivors on int masks: the level builds no component id
    # arrays and turns no array back into a mask. The mask sweep serves the
    # public id-array ``components`` and the level, and nothing else.
    tree = ast.parse((PACKAGE / "pipeline.py").read_text())
    level = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_find_level")
    named = {node.id for node in ast.walk(level) if isinstance(node, ast.Name)}
    assert named & {"components", "_array_to_bits", "_unpack_rows"} == set()
    assert _package_uses("_component_masks") == {"graph.components", "pipeline._find_level"}


def test_residual_sides_come_from_the_peels():
    # The one peel-and-pool helper serves both pipelines, and the residual
    # two-colourings are read off its balls: the step-2 bipartite test is
    # the pipeline's only check_bipartite.
    assert _pipeline_uses("peel") == {"pipeline._peel_all"}
    assert _pipeline_uses("check_bipartite") == {"pipeline._find_level"}
