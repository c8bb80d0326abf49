"""The export surface: every exported name resolves, so star imports work,
no module imports a name it never uses, every import sits at module level
and the modules import each other without a cycle, every private
module-level name is read somewhere in the package, and the constants the
README quotes are the code's."""

import ast
import graphlib
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import fsdim

SUBMODULES = sorted(f"fsdim.{m.name}" for m in pkgutil.iter_modules(fsdim.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    exec(f"from {name} import *", {})


def test_package_reexports_listed_names():
    # fsdim has no __all__ of its own; each public name it re-exports must be
    # an object some submodule lists in its __all__
    listed = {}
    for name in SUBMODULES:
        module = importlib.import_module(name)
        listed.update({n: getattr(module, n) for n in module.__all__})
    public = {n: v for n, v in vars(fsdim).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public
    stray = [n for n, v in public.items() if n not in listed or listed[n] is not v]
    assert not stray, f"fsdim re-exports names no submodule lists: {stray}"
    exec("from fsdim import *", {})


# Imports kept on purpose although the importing module never reads them,
# with the reason; entries that stop being unused imports fail the test too.
UNUSED_IMPORTS_ALLOWED = {
    # perfbench's tracing.PATCHES wraps this module attribute
    ("constructor", "low_discrepancy_test"),
}


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_modules_use_every_import():
    # fsdim/__init__.py is left out: its imports are the package's re-exports
    src = Path(fsdim.__file__).parent
    found = {(path.stem, name) for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py" for name in _unused_imports(path)}
    assert found == UNUSED_IMPORTS_ALLOWED


def _package_imports(tree: ast.Module) -> set:
    # the fsdim modules a module imports at top level ("__init__" for fsdim itself)
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fsdim":
            found.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] or "__init__"
                      for a in node.names if a.name.split(".")[0] == "fsdim"}
    return found


def test_imports_sit_at_module_level_without_cycles():
    # an import inside a function hides a cycle from the module graph
    trees = _source_trees()
    nested = sorted((stem, fn.name) for stem, tree in trees.items()
                    for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(fn)))
    assert not nested, f"functions that import: {nested}"
    graph = {stem: _package_imports(tree) for stem, tree in trees.items()}
    assert graph["cli"] and graph["__init__"]
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"fsdim modules import in a cycle: {exc.args[1]}")


def _private_top_level_names(tree: ast.Module) -> set:
    # names a module binds at top level that start with one underscore
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name for a in node.names}
    return {n for n in bound if _is_private(n)}


def _source_trees() -> dict:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(fsdim.__file__).parent.glob("*.py"))}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_private_names_are_read():
    # a private name nothing in src/fsdim reads is dead code; tests and
    # perfbench reaching for it do not keep it alive
    trees = _source_trees()
    read = {n.id for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = sorted((stem, name) for stem, tree in trees.items()
                    for name in _private_top_level_names(tree) if name not in read)
    assert not unread, f"private names no src/fsdim module reads: {unread}"


def test_private_attributes_are_read():
    # a private attribute stored on self that no src/fsdim code loads
    # (self._x = ... with no ._x read anywhere) is dead state
    stored, loaded = set(), set()
    for stem, tree in _source_trees().items():
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Attribute) and _is_private(n.attr)):
                continue
            if isinstance(n.ctx, ast.Load):
                loaded.add(n.attr)
            elif isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self":
                stored.add((stem, n.attr))
    assert stored
    unread = sorted((stem, name) for stem, name in stored if name not in loaded)
    assert not unread, f"private attributes no src/fsdim code reads: {unread}"


def test_readme_constants_match_the_code():
    # every `NAME = <int>` the README quotes is that fsdim module constant
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    quoted = re.findall(r"`([A-Z][A-Z0-9_]*) = (\d+)`", readme)
    assert quoted
    modules = [importlib.import_module(name) for name in SUBMODULES]
    for name, value in quoted:
        found = {getattr(m, name) for m in modules if hasattr(m, name)}
        assert found == {int(value)}, f"README says {name} = {value}; fsdim has {found}"
