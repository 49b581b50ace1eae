"""Package-wide source checks: no ``assert`` statements, and exports that
resolve."""

import ast
import importlib
from pathlib import Path

import pytest

import pnormlab

PACKAGE = Path(pnormlab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips an assert statement, so a check made by one vanishes
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_name_in_all_resolves(path):
    module = importlib.import_module(f"pnormlab.{path.stem}".removesuffix(".__init__"))
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_every_package_export_is_public_in_its_module():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"pnormlab.{node.module}")
        # a module without __all__ (errors) makes public what it defines
        public = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        stray = [alias.name for alias in node.names if alias.name not in public]
        assert stray == [], f"pnormlab exports {stray}, not public in pnormlab.{node.module}"
