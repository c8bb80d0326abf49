"""The export surface: every exported name resolves, so star imports work."""

import importlib
import pkgutil
import types

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
