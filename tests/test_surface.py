"""The library's public surface is what the DSC system runs.

Every public top-level function and class of ``src/sgdsc`` must be referenced
by the library's own code (outside its definition) or by a ``bench/*.py``
file as ``<module>.<name>``.  Constructions only the tests need live in
``tests/constructions.py``.  The scan reads source with ``ast``; it imports
nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIB = ROOT / "src" / "sgdsc"

# Definitions with no caller the scan can see, each with its reason.
ALLOWED = {
    "byleen.express_pair": "the Byleen monoid's DSC certificate: any pair (p, q) "
                           "as a product of (g, h) and diagonal pairs",
}
# cli's subcommand handlers are looked up by name in globals() at dispatch
DISPATCHED_PREFIX = "cli.cmd_"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(LIB.glob("*.py")) if path.stem != "__init__"}


def _public_definitions(modules):
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield mod, node


def _nodes_outside(tree, skip):
    """Every node of ``tree`` except those inside the definition ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _qualified(node):
    """``mod.name`` for an attribute read off a bare name, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def _library_refers(modules, mod, definition):
    name = definition.name
    for other, tree in modules.items():
        for node in _nodes_outside(tree, definition):
            if other == mod and isinstance(node, ast.Name) and node.id == name \
                    and isinstance(node.ctx, ast.Load):
                return True
            if _qualified(node) == f"{mod}.{name}":
                return True
            if isinstance(node, ast.ImportFrom) and node.module == mod and node.level == 1 \
                    and any(alias.name == name for alias in node.names):
                return True
    return False


def _bench_references():
    refs = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            ref = _qualified(node)
            if ref is not None:
                refs.add(ref)
    return refs


def test_every_public_definition_has_a_caller_outside_the_tests():
    modules = _modules()
    bench = _bench_references()
    unused = sorted(
        f"{mod}.{node.name}" for mod, node in _public_definitions(modules)
        if f"{mod}.{node.name}" not in bench
        and not _library_refers(modules, mod, node)
        and not f"{mod}.{node.name}".startswith(DISPATCHED_PREFIX))
    assert unused == sorted(ALLOWED)


def test_finite_imports_nothing_from_relations():
    tree = ast.parse((LIB / "finite.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("relations", "sgdsc.relations")
            assert not any(alias.name == "relations" for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("relations") for alias in node.names)


def test_simplicity_and_group_tests_read_no_table_row():
    """The kernel, the J-components, Green's classes, the group test and the
    identity are read off the Cayley graphs, never off ``self.table``."""
    tree = ast.parse((LIB / "finite.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "FiniteSemigroup")
    methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
    for name in ("_is_group", "_proper_ideal", "_j_components", "_greens", "_identity"):
        assert not any(isinstance(node, ast.Attribute) and node.attr == "table"
                       and isinstance(node.value, ast.Name) and node.value.id == "self"
                       for node in ast.walk(methods[name])), name


def test_no_library_function_calls_itself():
    """No function or method recurses by calling its own bare name, so input
    size is bounded by time and memory, never by Python's recursion limit."""
    recursive = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == node.name for call in ast.walk(node)):
                recursive.append(f"{mod}.{node.name}")
    assert recursive == []


def test_no_check_depends_on_debug_mode():
    """No ``assert`` and no read of ``__debug__``: every certificate re-check
    and validation still runs under ``python -O``."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(LIB.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []
