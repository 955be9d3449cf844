"""Every exported name resolves, and each module exports exactly its public
top-level functions and classes."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import kinkzeta

SUBMODULES = [importlib.import_module(f"kinkzeta.{info.name}")
              for info in pkgutil.iter_modules(kinkzeta.__path__)]
MODULES = [kinkzeta] + SUBMODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", SUBMODULES, ids=lambda m: m.__name__)
def test_all_is_the_public_definitions(module):
    tree = ast.parse(inspect.getsource(module))
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{module.__name__} has no __all__"
    assert len(exported) == len(set(exported))
    assert set(exported) == public
