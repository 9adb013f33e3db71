import ast
import importlib
import inspect
import pkgutil

import pytest

import stokesbc

MODULES = [importlib.import_module(f"stokesbc.{info.name}")
           for info in pkgutil.iter_modules(stokesbc.__path__)
           if not info.name.startswith("_")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", [])
               if not hasattr(module, name)]
    assert not missing


def test_package_reexports_only_listed_names():
    # a name removed from a module must not linger in the package's imports
    tree = ast.parse(inspect.getsource(stokesbc))
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"stokesbc.{node.module}")
            unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name not in module.__all__]
    assert not unlisted
