"""The package's public names agree with its modules' ``__all__`` lists.

Every name ``llckit/__init__.py`` imports from a module is listed in that
module's ``__all__``, and every ``__all__`` entry of every module exists,
so deleting a function leaves no stale export behind.
"""

import ast
import importlib
from pathlib import Path

import pytest

import llckit

PACKAGE = Path(llckit.__file__).resolve().parent


def _package_imports() -> dict[str, list[str]]:
    """Module name -> names ``llckit/__init__.py`` imports from it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {node.module: [a.name for a in node.names]
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1}


IMPORTS = _package_imports()
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py")
                 if p.stem not in ("__init__", "__main__"))


def test_the_package_imports_from_its_modules():
    assert IMPORTS and set(IMPORTS) <= set(MODULES)


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_package_names_are_listed_in_all(module):
    listed = importlib.import_module(f"llckit.{module}").__all__
    missing = [name for name in IMPORTS[module] if name not in listed]
    assert not missing, f"llckit.{module}.__all__ lacks {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_exists(module):
    mod = importlib.import_module(f"llckit.{module}")
    stale = [name for name in getattr(mod, "__all__", ())
             if not hasattr(mod, name)]
    assert not stale, f"llckit.{module}.__all__ names missing {stale}"


def test_load_spec_is_one_class():
    # LoadSpec lives in tank; the simulator module still binds it for the
    # callers that take it from there
    from llckit import sim, tank
    assert sim.LoadSpec is tank.LoadSpec is llckit.LoadSpec
