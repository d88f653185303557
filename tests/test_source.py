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


def _imports(node: ast.AST, package: str) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == package for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package


def _import_sites(package: str) -> set[str]:
    """``file:function`` for each innermost function of the package source
    that imports ``package``, ``file:<module>`` for an import that runs
    when its module is imported."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        enclosing = {}
        for name, fn in _functions(tree):
            for node in ast.walk(fn):
                enclosing[node] = name  # inner functions come later and win
        sites |= {
            f"{path.name}:{enclosing.get(node, '<module>')}"
            for node in ast.walk(tree)
            if _imports(node, package)
        }
    return sites


def test_networkx_loads_only_inside_planar_embed():
    """The planarity test is the package's own, so no module imports
    networkx; it is an oracle of the tests and the benchmark only."""
    assert _import_sites("networkx") == set()


def test_numpy_loads_only_inside_tutte_layout():
    """The Tutte layout's linear solve is the package's own sparse
    elimination, so no module imports numpy; it is a test oracle only."""
    assert _import_sites("numpy") == set()


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
