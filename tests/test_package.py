"""Package-wide source checks: no ``assert`` statements, the four value
rules stated only in ``errors``, and exports that resolve."""

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


# the wording of errors' _require_unit, _require_positive, _require_finite
# and _require_dimension
VALUE_RULES = ("must lie in (0, 1)", "must be a positive real", "must be finite",
               "dimension must be >= 1")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_value_rules_are_stated_only_in_errors(path):
    # a module refuses a level, a positive real, a finite real or a dimension
    # through the errors helper, so each rule and its wording live in one place
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "DomainError"):
            text = "".join(part.value for arg in node.exc.args for part in ast.walk(arg)
                           if isinstance(part, ast.Constant) and isinstance(part.value, str))
            if any(rule in text for rule in VALUE_RULES):
                lines.append(node.lineno)
    assert lines == [], f"{path.name} states a value rule by hand on lines {lines}"


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
