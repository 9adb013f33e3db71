import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


SOURCES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(stokesbc.__path__[0]).glob("*.py"))}


def _private_names(node):
    """Private names a top-level statement defines, dunders excepted."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_")
            and not (name.startswith("__") and name.endswith("__"))]


def _uses(node, skip):
    """Names read in ``node``, as names or attributes, outside ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, skip)


def test_every_private_helper_is_used():
    # a helper whose last caller went must go with it
    orphans = [f"{module}.{name}" for module, tree in SOURCES.items()
               for node in tree.body for name in _private_names(node)
               if not any(name in _uses(other, node)
                          for other in SOURCES.values())]
    assert not orphans
