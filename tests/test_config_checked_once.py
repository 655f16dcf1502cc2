"""A config is checked once, when it is built: keep re-checks out of the package.

``ExperimentConfig.__new__`` runs ``validate_config``, and ``replace``,
``_replace`` and ``_make`` build through it too, so a call anywhere else in
``src/wiregrid`` would only check a config that is already valid.
"""

import ast
from pathlib import Path

import wiregrid

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wiregrid"


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_validate_config_runs_only_when_a_config_is_built():
    calls = []
    for module, tree in _trees().items():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node.func) == "validate_config":
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                calls.append((module, getattr(scope, "name", "<module>")))
    assert calls == [("config.py", "__new__")]


def test_only_the_package_root_imports_validate_config():
    # an aliased import would hide a re-check from the call scan above; the
    # root resolves the name lazily, under that same name, from its table
    importers = sorted(
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "validate_config" for alias in node.names)
    )
    assert set(importers) <= {"__init__.py"}
    assert wiregrid._MODULE_OF["validate_config"] == "config"
