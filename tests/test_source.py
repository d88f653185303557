"""Rules on the package source itself."""

import ast
import importlib
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


# the functions a rotation may be handed to; every stage reads g.embedding
ROTATION_PRIMITIVES = {
    "graphs.py:faces",
    "graphs.py:dual",
    "graphs.py:serialize_graph",
    "graphs.py:check_rotation",
    "graphs.py:check_3_connected",
    "graphs.py:Embedding.__init__",  # the one place a checked rotation is stored
}


def _functions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) for every function, methods named Class.method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def _takes_rotation(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
    return any(
        p.arg == "rot" or (p.annotation is not None and "Rotation" in ast.unparse(p.annotation))
        for p in params
    )


def test_only_the_rotation_primitives_take_a_rotation():
    """A stage gets its rotation from the graph it is given, never from a
    separate argument that could disagree with it."""
    takers = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name, fn in _functions(ast.parse(path.read_text(), filename=str(path)))
        if _takes_rotation(fn)
    }
    assert takers == ROTATION_PRIMITIVES


def test_benchmark_stages_still_resolve():
    """The traced benchmark wraps these functions by name; a rename or a
    deletion here would silently drop a layer from its spans."""
    spans = SRC.parents[1] / "bench" / "spans.py"
    tree = ast.parse(spans.read_text(), filename=str(spans))
    (stages,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "STAGES"
    ]
    assert stages
    missing = [
        f"{module}.{name}"
        for module, name in stages.values()
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
