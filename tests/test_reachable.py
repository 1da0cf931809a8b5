"""Every public top-level function and class of the package is used.

A name counts as used when some code in ``src/lidartmc`` or
``perfbench/`` refers to it outside its own definition: by name, by a
``from ... import``, or as an attribute of an imported package module.
Tests do not count, so code kept alive only by its tests fails here.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lidartmc"

# Public names that no command calls but that stay on purpose.
ALLOWED = {
    "random_script": "the random script generator that ROADMAP item 3 replaces",
    "save_intersection_config": "tests write their configs through it",
}


def _sources() -> dict[Path, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths}


def _module_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to package modules (``from lidartmc import cli``)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "lidartmc"):
            aliases.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name.split(".")[-1]
                           for a in node.names if a.name.startswith("lidartmc."))
    return aliases


def _references(tree: ast.Module, skip: ast.AST | None) -> set[str]:
    """Names that ``tree`` refers to outside the subtree ``skip``."""
    aliases = _module_aliases(tree)
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_names() -> list[str]:
    sources = _sources()
    refs = {path: _references(tree, None) for path, tree in sources.items()}
    unused = []
    for path, tree in sources.items():
        if path.parent != PACKAGE:
            continue
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in elsewhere:
                continue
            if node.name not in _references(tree, node):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_name_is_referenced():
    unused = [name for name in unreferenced_names() if name.split(".")[1] not in ALLOWED]
    assert unused == []


def test_allowed_names_exist_and_are_otherwise_unreferenced():
    # An entry that is gone, or that code now uses, is stale.
    assert sorted(name.split(".")[1] for name in unreferenced_names()) == sorted(ALLOWED)


def test_perfbench_imports_exist():
    # The benchmark runs the package from its checkout: every module and
    # name it imports must exist, or its per-layer trace fails.
    imported = []
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported += [(a.name, None) for a in node.names if a.name.startswith("lidartmc")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lidartmc"):
                imported += [(node.module, a.name) for a in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")  # a submodule
    kernels = importlib.import_module("lidartmc._kernels")
    assert hasattr(kernels, "NUMBA_ENABLED")


def test_kernels_is_only_the_benchmark_flag():
    # ``_kernels`` stays only because the benchmark records NUMBA_ENABLED:
    # it defines nothing else and no package module imports it, so it can
    # go together with the benchmark's read of the flag.
    tree = ast.parse((PACKAGE / "_kernels.py").read_text(encoding="utf-8"))
    defined = [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    others = [node for node in tree.body if not isinstance(node, ast.Assign)
              and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert defined == ["NUMBA_ENABLED"] and others == []
    importers = [path.name for path, tree in _sources().items() if path.parent == PACKAGE
                 for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 and "_kernels" in ast.unparse(node)]
    assert importers == []
