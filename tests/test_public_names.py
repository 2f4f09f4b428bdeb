"""Every public name of the package resolves: each entry of a module's
__all__, and each name that cavityqed/__init__.py imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import cavityqed


def test_module_all_entries_resolve():
    missing = []
    for info in pkgutil.iter_modules(cavityqed.__path__):
        module = importlib.import_module(f"cavityqed.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(cavityqed.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(cavityqed, n)] == []
