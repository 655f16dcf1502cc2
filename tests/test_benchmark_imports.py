"""The benchmark in ``perfbench/`` imports the package by name: keep those names alive.

The probe and workloads are only run by the benchmark, so a renamed or
removed public name would otherwise surface there and not in this suite.
"""

import ast
import importlib.util
from pathlib import Path

import wiregrid
from wiregrid import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _trees():
    return [ast.parse(path.read_text(), str(path)) for path in sorted(PERFBENCH.glob("*.py"))]


def test_perfbench_package_imports_exist():
    names = {
        alias.name
        for tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "wiregrid"
        for alias in node.names
    }
    assert names
    missing = sorted(
        n for n in names
        if not hasattr(wiregrid, n) and importlib.util.find_spec(f"wiregrid.{n}") is None
    )
    assert missing == []


def test_perfbench_cli_attributes_exist():
    used = {
        node.attr
        for tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cli"
    }
    assert {"run", "RunRequest", "emit_report"} <= used
    assert sorted(n for n in used if not hasattr(cli, n)) == []
