"""Every record type is a named tuple that checks its values on every construction route.

A record with invariants checks them in ``__new__``; ``_make`` (which
``_replace`` calls) and ``replace`` build through it, so no route, copy or
unpickling yields a record that ``__new__`` would refuse.
"""

import ast
import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

from wiregrid import (
    Check,
    ComplementarityReport,
    ConfigError,
    DerivedGeometry,
    DomainError,
    EmpiricalMetrics,
    ExperimentConfig,
    FateCounts,
    PhotonBudget,
    ScenarioReport,
    SingleBeamBudget,
    SweepRow,
    derive_geometry,
    estimate_metrics,
    single_beam_budget,
    sweep_thickness,
    truth_table,
    two_beam_budget,
)
from wiregrid.cli import Report, RunRequest
from wiregrid.oracle import DiffractionPattern, FieldProfile

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wiregrid"

_CONFIG = ExperimentConfig()
_COUNTS = FateCounts(
    detected_own=997_000, absorbed=1_000, diffracted_away=2_000, diffracted_to_detectors=100,
    seed=0, total=1_000_000,
)

# a valid record of each type, built as the package builds it
RECORDS = {
    "ExperimentConfig": _CONFIG,
    "DerivedGeometry": derive_geometry(_CONFIG),
    "RunRequest": RunRequest("metrics"),
    "Report": Report({"fractions": {"absorbed": 0.5}}),
    "ComplementarityReport": ComplementarityReport(0.9, 0.0, 0.99),
    "PhotonBudget": two_beam_budget(_CONFIG),
    "SingleBeamBudget": single_beam_budget(_CONFIG),
    "FateCounts": _COUNTS,
    "EmpiricalMetrics": estimate_metrics(_COUNTS, _CONFIG),
    "DiffractionPattern": DiffractionPattern([-1.0, 0.0, 1.0], [0.5, 1.0, 0.5]),
    "FieldProfile": FieldProfile([0.0, 1e-3], [1.0, 1.0], 638e-9),
    "Check": Check("fringe_pitch_match", True, "relative mismatch 0"),
    "ScenarioReport": truth_table(_CONFIG)[1],
    "SweepRow": sweep_thickness(_CONFIG, [1e-6, 32e-6])[1],
}

# for each type with a check: a field, a value it refuses, the error and its message
INVALID = {
    "ExperimentConfig": ("wire_count", 5, ConfigError, "wire_count must be even"),
    "ComplementarityReport": (
        "visibility_lower", 1.5, DomainError, r"visibility_lower must lie in \[0, 1\], got 1.5",
    ),
    "PhotonBudget": ("absorbed", 1.5, ValueError, r"absorbed must be a fraction in \[0, 1\]"),
    "SingleBeamBudget": ("blocked", -0.1, ValueError, r"blocked must be a fraction in \[0, 1\]"),
    "FateCounts": ("absorbed", -1, ValueError, "counts must be non-negative"),
    "DiffractionPattern": (
        "intensity_samples", [0.5, -1.0, 0.5], ValueError, "finite and non-negative",
    ),
    "FieldProfile": ("wavelength", -1.0, ValueError, "wavelength must be positive"),
}


def _same(a, b) -> bool:
    """Same type and field-for-field equal, arrays compared by value."""
    return type(a) is type(b) and len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    )


def test_every_record_type_is_covered():
    assert [type(r) for r in RECORDS.values()] == [
        ExperimentConfig, DerivedGeometry, RunRequest, Report, ComplementarityReport, PhotonBudget,
        SingleBeamBudget, FateCounts, EmpiricalMetrics, DiffractionPattern, FieldProfile, Check,
        ScenarioReport, SweepRow,
    ]
    assert all(isinstance(r, tuple) and type(r).__name__ == name for name, r in RECORDS.items())
    assert set(INVALID) <= set(RECORDS)


@pytest.mark.parametrize("name", INVALID)
def test_a_refused_value_is_refused_by_every_route(name):
    record, (field, bad, error, message) = RECORDS[name], INVALID[name]
    cls = type(record)
    args = record.__getnewargs__()  # the arguments __new__ takes, in field order
    position = cls._fields.index(field)
    bad_args = (*args[:position], bad, *args[position + 1:])
    bad_fields = (*record[:position], bad, *record[position + 1:])
    routes = {
        "positional": lambda: cls(*bad_args),
        "keyword": lambda: cls(**dict(zip(cls._fields, bad_args))),
        "_make": lambda: cls._make(bad_fields),
        "_replace": lambda: record._replace(**{field: bad}),
    }
    if hasattr(cls, "replace"):
        routes["replace"] = lambda: record.replace(**{field: bad})
    for route, build in routes.items():
        with pytest.raises(error, match=message):
            build()
            pytest.fail(f"{route} built a {name} with {field}={bad!r}")


@pytest.mark.parametrize("name", RECORDS)
def test_valid_fields_rebuild_the_same_record_by_every_route(name):
    record = RECORDS[name]
    cls = type(record)
    args = record.__getnewargs__()
    assert _same(cls(*args), record)
    assert _same(cls(**dict(zip(cls._fields, args))), record)
    assert _same(cls._make(tuple(record)), record)
    assert _same(record._replace(), record)


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_every_attribute_write(name):
    record = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.not_a_field = None


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_return_an_equal_record_of_the_same_type(name):
    record = RECORDS[name]
    assert _same(copy.copy(record), record)
    assert _same(copy.deepcopy(record), record)
    assert _same(pickle.loads(pickle.dumps(record)), record)


def test_a_report_recomputes_its_sums_and_refuses_sums_that_do_not_follow():
    report = RECORDS["ComplementarityReport"]
    moved = report._replace(visibility_lower=0.5)
    assert moved == ComplementarityReport(0.5, 0.0, 0.99) == report.replace(visibility_lower=0.5)
    assert moved.quantum_sum == 0.25
    with pytest.raises(TypeError):
        report._replace(quantum_sum=0.0)
    with pytest.raises(ValueError, match="must follow from the bounds"):
        ComplementarityReport._make((*report[:3], 0.0, *report[4:]))
    with pytest.raises(ValueError, match="must follow from the bounds"):
        ComplementarityReport._make(report[:3])


def test_equality_is_tuple_equality():
    report = RECORDS["ComplementarityReport"]
    assert report == tuple(report) and hash(report) == hash(tuple(report))
    assert len(_CONFIG) == 8
    assert dict(zip(ExperimentConfig._fields, _CONFIG)) == _CONFIG.as_dict()


def test_a_request_shares_no_mutable_default():
    first = RunRequest("metrics")
    assert first.overrides == first.options == ()
    # a list or dict default would make a request unhashable
    assert len({first, RunRequest("budget"), RunRequest("metrics")}) == 2


def _dataclasses_imports(tree: ast.AST) -> list[int]:
    """Lines that import ``dataclasses``, or name it to an import call."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = [node.value] if isinstance(getattr(node, "value", None), str) else []
        if any(name.split(".")[0] == "dataclasses" for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_dataclasses():
    found = {
        path.name: lines
        for path in PACKAGE.glob("*.py")
        if (lines := _dataclasses_imports(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


@pytest.mark.parametrize("source", [
    "import dataclasses", "import dataclasses as d", "from dataclasses import dataclass",
    "import importlib\nimportlib.import_module('dataclasses')",
])
def test_the_import_scan_finds_each_way_of_importing(source):
    assert _dataclasses_imports(ast.parse(source))
