"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "crushtacean"


def test_no_assert_in_package():
    """Checks that guard correctness must raise: ``python -O`` strips asserts."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imports_networkx(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "networkx" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "networkx"


def _outside_functions(node: ast.AST):
    """Every node that runs when its module is imported."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


def test_networkx_loads_only_inside_planar_embed():
    """Inputs that carry a rotation never need the planarity test, so
    importing the package must not load networkx."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    at_import = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in _outside_functions(tree)
        if _imports_networkx(node)
    ]
    assert at_import == []
    importers = {
        f"{name}:{fn.name}"
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_imports_networkx(node) for node in ast.walk(fn))
    }
    assert importers == {"graphs.py:planar_embed"}
