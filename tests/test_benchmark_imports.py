"""The benchmark in ``perfbench/`` imports the package by name and reads the
CLI's JSON keys: keep those names alive.

The probe and workloads are only run by the benchmark, so a renamed or
removed public name or printed key would otherwise surface there and not in
this suite.
"""

import ast
import importlib.util
import json
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


class _FailedChecks:
    """Stands in for the benchmark's operation: collects the checks that fail."""

    def __init__(self):
        self.failed = []

    def check(self, ok, what):
        if not ok:
            self.failed.append(what)


def test_perfbench_output_checks_pass_in_process(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    seed = 20_250_101
    failed = {}
    for sub in workloads.SUBCOMMANDS:
        options = {"seed": seed} if sub == "simulate" else {}
        assert cli.run(cli.RunRequest(sub, options=options)) == 0, sub
        doc = json.loads(capsys.readouterr().out)
        op = _FailedChecks()
        if sub == "simulate":
            workloads._check_simulate(doc, op, seed)
        else:
            workloads._CHECKS[sub](doc, op)
        failed[sub] = op.failed
    assert failed == {sub: [] for sub in workloads.SUBCOMMANDS}
