import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wiregrid
from wiregrid import (
    DEFAULTS,
    ExperimentConfig,
    band_fraction,
    crosscheck,
    first_order_window,
    single_beam_budget,
    sweep_thickness,
    two_beam_budget,
)
from wiregrid.budget import _MAX_WINDOW_NODES
from wiregrid.cli import (
    _COMMANDS, RunRequest, _linspace, _request_from_args, apply_overrides, build_parser, main,
    parse_config, run,
)
from wiregrid.errors import ConfigError, ConfigParseError


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_empty_file_gives_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()


def test_single_key_override_file():
    cfg = parse_config("wire_thickness = 16 um\n")
    assert cfg.wire_thickness == pytest.approx(16e-6)
    assert cfg.wire_pitch == ExperimentConfig().wire_pitch


def test_all_units_accepted():
    text = """
    # comment line
    wavelength = 638 nm
    wire_thickness = 0.032 mm   # trailing comment
    wire_pitch = 0.000319 m
    beam_side = 2550 um
    crossing_angle = 2 mrad
    detector_half_width = 0.0005 rad
    wire_count = 6
    photon_count = 1000000
    """
    cfg = parse_config(text)
    ref = ExperimentConfig()
    # the config echo lists the fields in DEFAULTS order
    assert list(ref.as_dict()) == list(DEFAULTS)
    # unit conversion rounds in the last ulp, so compare fields numerically
    for name, value in ref.as_dict().items():
        assert getattr(cfg, name) == pytest.approx(value, rel=1e-12), name


def test_unknown_unit_rejected_with_token():
    with pytest.raises(ConfigParseError, match="parsecs"):
        parse_config("wire_thickness = 16 parsecs\n")


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigParseError, match="line 2"):
        parse_config("wire_thickness = 16 um\nwire_width = 1 um\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigParseError, match="duplicate"):
        parse_config("wire_count = 6\nwire_count = 8\n")


def test_counts_take_bare_integers():
    with pytest.raises(ConfigParseError, match="bare integer"):
        parse_config("wire_count = 6 mm\n")


def test_validation_failures_propagate():
    with pytest.raises(Exception, match="even"):
        parse_config("wire_count = 5\n")


def test_override_equivalent_to_editing_file():
    edited = parse_config("wire_thickness = 16 um\n")
    overridden = apply_overrides(parse_config(""), ["wire_thickness=16um"])
    assert edited == overridden


def test_overrides_applied_after_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("wire_thickness = 16 um\n")
    rc = main(["metrics", "--config", str(path), "--override", "wire_thickness=32um",
               "--out", str(tmp_path / "m.json")])
    assert rc == 0
    data = json.loads((tmp_path / "m.json").read_text())
    assert data["config"]["wire_thickness"] == pytest.approx(32e-6)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_cli(tmp_path, *args, name="out"):
    out = tmp_path / name
    rc = main([*args, "--out", str(out)])
    return rc, out.read_text() if out.exists() else ""


def test_pattern_csv_first_order_at_detector_angle(tmp_path):
    rc, text = run_cli(tmp_path, "pattern", "--format", "csv", name="pattern.csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["theta_rad", "intensity_rel"]
    theta = np.array([float(r[0]) for r in rows[1:]])
    inten = np.array([float(r[1]) for r in rows[1:]])
    assert len(theta) == 4001
    assert theta[0] == pytest.approx(-0.01) and theta[-1] == pytest.approx(0.01)
    lo, hi = first_order_window(ExperimentConfig())
    assert lo < 0.001 < hi
    assert 0.5 * (lo + hi) == pytest.approx(0.001, abs=1e-5)
    # the emitted pattern is brightest on the positive side up to hi inside
    # the window, and nearly dark at the samples next to its edges
    up_to_hi = (theta > 0) & (theta <= hi)
    assert lo <= theta[up_to_hi][np.argmax(inten[up_to_hi])] <= hi
    in_window = (theta >= lo) & (theta <= hi)
    peak = inten[in_window].max()
    for edge in (lo, hi):
        assert inten[np.argmin(np.abs(theta - edge))] <= 1e-3 * peak
    # even in theta
    assert np.array_equal(inten, inten[::-1])


def test_pattern_csv_has_roundtrip_precision(tmp_path):
    rc, text = run_cli(tmp_path, "pattern", "--format", "csv", "--samples", "11",
                       "--theta-range", "2", name="p.csv")
    assert rc == 0
    for line in text.splitlines()[1:]:
        value = line.split(",")[1]
        if value not in ("0", "0.0"):
            mantissa = value.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) >= 9


def test_pattern_json_includes_config_echo(tmp_path):
    rc, text = run_cli(tmp_path, "pattern", name="pattern.json")
    assert rc == 0
    data = json.loads(text)
    assert data["config"]["wavelength"] == pytest.approx(638e-9)
    assert len(data["pattern"]["theta_rad"]) == 4001
    # the scale is fixed, and validate's oracle row checks it without fitting
    assert data["scale_note"] == (
        "|F|^2 / (4 k^2), F the far field of the fringe field on the wire strips, "
        "k = pi / wire_pitch"
    )


def test_budget_json_sections(tmp_path):
    rc, text = run_cli(tmp_path, "budget", name="budget.json")
    assert rc == 0
    data = json.loads(text)
    counts = data["two_beam_counts"]
    assert counts["detected"] == pytest.approx(997_522, abs=60)
    assert counts["absorbed"] == pytest.approx(1_240, abs=30)
    assert data["single_beam"]["own_detector_decrease"] == pytest.approx(0.1438, rel=0.15)
    assert data["single_beam"]["detector_half_width_rad"] == pytest.approx(5e-4)
    assert data["detector_windows_rad"]["half_width"] == pytest.approx(5e-4)
    assert data["single_beam_counts"]["blocked"] == pytest.approx(75_294, rel=1e-3)


def test_budget_csv_flat_rows(tmp_path):
    rc, text = run_cli(tmp_path, "budget", "--format", "csv", name="budget.csv")
    assert rc == 0
    rows = dict((r[0], r[1]) for r in csv.reader(io.StringIO(text)) if len(r) == 2)
    assert float(rows["two_beam_fractions.absorbed"]) == pytest.approx(0.00124, rel=0.01)
    assert float(rows["single_beam.detector_half_width_rad"]) == pytest.approx(5e-4)
    assert float(rows["two_beam_counts.diffracted_to_detectors"]) == pytest.approx(2, abs=1)


def test_metrics_report_values(tmp_path):
    rc, text = run_cli(tmp_path, "metrics", name="metrics.json")
    assert rc == 0
    data = json.loads(text)
    report = data["report"]
    assert report["visibility_lower"] >= 0.9699
    assert report["quantum_sum"] == pytest.approx(0.941, abs=5e-4)
    assert report["quantum_sum"] <= 1.0
    assert report["classical_sum"] >= 1.932
    assert data["worst_case_intensities_per_mm2"]["i_min"] == pytest.approx(2533, abs=2)


def test_metrics_csv_flat_rows(tmp_path):
    rc, text = run_cli(tmp_path, "metrics", "--format", "csv", name="metrics.csv")
    assert rc == 0
    rows = dict(
        (r[0], r[1]) for r in csv.reader(io.StringIO(text)) if len(r) == 2
    )
    assert rows["quantity"] == "value"
    assert float(rows["report.visibility_lower"]) >= 0.9699


def test_sweep_row_count_and_columns(tmp_path):
    rc, text = run_cli(tmp_path, "sweep", "--format", "csv", name="sweep.csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "wire_thickness_um"
    assert len(rows) == 151  # header + 150 rows
    b_values = [float(r[0]) for r in rows[1:]]
    assert b_values[0] == pytest.approx(1.0) and b_values[-1] == pytest.approx(150.0)
    sums = [float(r[8]) for r in rows[1:]]
    assert all(s < 2 for s in sums)


def test_sweep_custom_range(tmp_path):
    rc, text = run_cli(tmp_path, "sweep", "--b-min", "10", "--b-max", "20",
                       "--steps", "3", "--format", "csv", name="s.csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert [float(r[0]) for r in rows[1:]] == pytest.approx([10.0, 15.0, 20.0])


def test_sweep_grid_is_numpys_linspace_to_the_bit():
    # `sweep` builds both of its grids as lists; they must be np.linspace's
    rng = np.random.default_rng(26)
    triples = [(1.0, 150.0, 150), (1e-6, 150e-6, 150), (5.0, 9.0, 1), (5.0, 9.0, 2),
               (-0.0, 9.0, 1), (5.0, 5.0, 3), (1e-316, 2e-316, 50), (1e-310, 2e-310, 50)]
    for _ in range(20_000):
        scale = 10.0 ** rng.uniform(-316, 3)
        a, b = sorted((scale * rng.uniform(0.0, 1000.0, 2)).tolist())
        triples.append((a, b, int(rng.integers(1, 200))))
    for a, b, n in triples:
        assert _linspace(a, b, n) == np.linspace(a, b, n).tolist(), (a, b, n)
    # a step that underflows to 0 takes numpy's other branch: both grids repeat a value
    a, b, n = 5e-324, 1e-323, 5
    for grid in (_linspace(a, b, n), np.linspace(a, b, n).tolist()):
        assert any(q <= p for p, q in zip(grid, grid[1:]))


def test_one_step_sweep_prints_b_min(capsys):
    assert main(["sweep", "--b-min", "5", "--b-max", "9", "--steps", "1"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["sweep"]
    assert row["wire_thickness_um"] == 5.0
    assert row["absorbed"] == sweep_thickness(ExperimentConfig(), [5e-6])[0].absorbed


def test_printed_column_orders_are_pinned(tmp_path):
    # the printed orders follow the result types' fields, so reordering a type fails here
    _, text = run_cli(tmp_path, "sweep", "--format", "csv", name="sweep.csv")
    assert next(csv.reader(io.StringIO(text))) == [
        "wire_thickness_um", "absorbed", "covered", "visibility_lower", "classical_whichway_lower",
        "visibility_sq", "classical_sq", "quantum_sum", "classical_sum", "in_domain", "note",
    ]
    _, text = run_cli(tmp_path, "scenario", "--format", "csv", name="scenario.csv")
    assert next(csv.reader(io.StringIO(text))) == [
        "scenario", "grid", "output_beam_splitter", "visibility_measured", "quantum_whichway",
        "visibility", "classical_whichway", "quantum_sum", "classical_sum", "rationale",
    ]
    _, text = run_cli(tmp_path, "budget", name="budget.json")
    # no diffracted_total: it equals absorbed (Babinet accounting)
    assert [(k, list(v)) for k, v in json.loads(text).items() if k != "config"] == [
        ("detector_windows_rad", ["negative", "positive", "half_width"]),
        ("two_beam_fractions", ["absorbed", "covered", "diffracted_to_detectors",
                                "diffracted_away", "detected", "undisturbed_detected"]),
        ("two_beam_counts", ["detected", "absorbed", "diffracted_away", "diffracted_to_detectors"]),
        ("single_beam", ["blocked", "own_detector_decrease", "wrong_detector",
                         "detector_half_width_rad"]),
        ("single_beam_counts", ["blocked", "own_detector_decrease", "wrong_detector"]),
    ]


def test_simulate_deterministic_bytes(tmp_path):
    for command in ("pattern", "budget", "metrics", "sweep", "scenario", "validate", "simulate"):
        for fmt in ("json", "csv"):
            rc1, first = run_cli(tmp_path, command, "--format", fmt, name=f"{command}-1.{fmt}")
            rc2, second = run_cli(tmp_path, command, "--format", fmt, name=f"{command}-2.{fmt}")
            assert rc1 == rc2 == 0, (command, fmt)
            assert first and first == second, (command, fmt)
    rc1, text1 = run_cli(tmp_path, "simulate", "--seed", "0", name="a.json")
    rc2, text2 = run_cli(tmp_path, "simulate", "--seed", "0", name="b.json")
    assert rc1 == rc2 == 0
    assert text1 == text2
    data = json.loads(text1)
    assert data["counts"]["seed"] == 0
    assert data["counts"]["total"] == 1_000_000
    assert data["estimates"]["absorbed_fraction"] == pytest.approx(0.00124, rel=0.15)


def test_simulate_seed_changes_output(tmp_path):
    _, text1 = run_cli(tmp_path, "simulate", "--seed", "0", name="a.json")
    _, text2 = run_cli(tmp_path, "simulate", "--seed", "1", name="b.json")
    assert text1 != text2


def test_scenario_truth_table(tmp_path):
    rc, text = run_cli(tmp_path, "scenario", name="scenario.json")
    assert rc == 0
    data = json.loads(text)
    rows = {r["scenario"]: r for r in data["scenarios"]}
    bare = rows["bare_beams"]
    assert (bare["quantum_whichway"], bare["visibility"], bare["classical_whichway"]) == (0, 0, 1)
    assert bare["quantum_sum"] == 0
    grid = rows["wire_grid"]
    assert grid["visibility"] == pytest.approx(0.9699, abs=1e-4)
    assert grid["classical_whichway"] == pytest.approx(0.99752, abs=1e-5)
    splitter = rows["output_splitter"]
    assert (splitter["quantum_whichway"], splitter["visibility"], splitter["classical_whichway"]) == (0, 1, 0)


def test_validate_passes_on_defaults(tmp_path, capsys):
    rc, text = run_cli(tmp_path, "validate", name="validate.json")
    assert rc == 0
    data = json.loads(text)
    names = [c["check"] for c in data["checks"]]
    assert "fourier_oracle_vs_closed_form" in names
    assert "fringe_oracle_vs_closed_form" in names
    assert "absorbed_closed_vs_quadrature" in names
    assert names == [c.name for c in crosscheck(ExperimentConfig())]
    assert all(c["passed"] is True for c in data["checks"])
    assert text.count('"passed": true') == len(names)


def test_validate_fringe_mismatch_is_exit_2(tmp_path):
    # 2.05 mrad puts the fringe spacing 2.4 % off the pitch; only that row fails
    override = ("--override", "crossing_angle=2.05 mrad")
    rc, text = run_cli(tmp_path, "validate", *override, name="validate.json")
    assert rc == 2
    failed = [c["check"] for c in json.loads(text)["checks"] if not c["passed"]]
    assert failed == ["fringe_pitch_match"]
    rc, text = run_cli(tmp_path, "validate", *override, "--format", "csv", name="validate.csv")
    assert rc == 2
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["check", "status", "detail"]
    failed = [(r[0], r[1]) for r in rows[1:] if r[1] != "pass"]
    assert failed == [("fringe_pitch_match", "FAIL")]


# ---------------------------------------------------------------------------
# exit codes and error objects
# ---------------------------------------------------------------------------

def test_validation_error_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("wire_count = 5\n")
    rc = main(["metrics", "--config", str(path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert "even" in err["error"]["message"]


def test_parse_error_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("wire_thickness = 16 parsecs\n")
    rc = main(["budget", "--config", str(path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigParseError"


BAD_ARGV = {
    "steps-not-an-int": (["sweep", "--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
    "samples-not-an-int": (["pattern", "--samples", "1e3"], "argument --samples: invalid int value: '1e3'"),
    "unknown-format": (["budget", "--format", "xml"],
                       "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    "unknown-flag": (["budget", "--bogus"], "unrecognized arguments: --bogus"),
    "unknown-subcommand": (["nosuch"], "argument subcommand: invalid choice: 'nosuch' (choose from "
                           "'pattern', 'budget', 'metrics', 'sweep', 'simulate', 'scenario', 'validate')"),
    "no-subcommand": ([], "the following arguments are required: subcommand"),
}


@pytest.mark.parametrize("argv, message", BAD_ARGV.values(), ids=BAD_ARGV)
def test_argparse_errors_are_exit_1_with_one_json_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == {"type": "ConfigParseError", "message": message, "exit_code": 1}


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["--version"]])
def test_help_and_version_print_to_stdout_and_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: wiregrid" if "--help" in argv else "wiregrid ")
    assert captured.err == ""


def test_non_utf8_config_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"wire_count = 6\n\xff\xfe = 3\n")
    out = tmp_path / "m.json"
    rc = main(["metrics", "--config", str(path), "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigParseError"
    assert err["error"]["message"].startswith("config file is not UTF-8 text")
    assert not out.exists()


def test_domain_error_is_exit_2(tmp_path, capsys):
    for argv, message in [
        (["pattern", "--samples", "2"], "--samples must be at least 3, got 2"),
        (["sweep", "--steps", "0"], "--steps must be at least 1, got 0"),
    ]:
        rc = main([*argv, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 2
        assert err["error"]["message"] == message


@pytest.mark.parametrize(
    "argv, grid_builder",
    [(["pattern", "--samples"], "wiregrid.diffraction.symmetric_grid_list"),
     (["sweep", "--steps"], "wiregrid.cli._linspace")],
    ids=["samples", "steps"],
)
def test_grid_size_is_capped_before_any_grid(capsys, monkeypatch, argv, grid_builder):
    def refuse(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(grid_builder, refuse)
    assert main([*argv, str(10**6 + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "DomainError",
        "message": f"{argv[1]} must be at most 1000000, got 1000001",
        "exit_code": 2,
    }


def test_overflow_is_exit_2_with_one_json_line(capsys):
    # (beam_side in mm) ** 2 overflows a float in metrics' per-mm^2 intensities;
    # at 1e306 m the side in mm is already inf, and so would be the area
    for typed, shown in (("1e300um", "1e+294"), ("1e306m", "1e+306")):
        assert main(["metrics", "--override", f"beam_side={typed}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == {
            "type": "DomainError",
            "message": f"beam_side ({shown} m) is too large: its area in mm^2 overflows a float",
            "exit_code": 2,
        }


def test_grid_that_diffracts_no_power_detects_every_photon(capsys):
    # at 1e-310 m the absorbed fraction x rounds to 0: no window quadrature runs
    assert main(["budget", "--override", "wire_thickness=1e-310m"]) == 0
    two = json.loads(capsys.readouterr().out)["two_beam_fractions"]
    assert (two["absorbed"], two["detected"], two["undisturbed_detected"]) == (0.0, 1.0, 1.0)
    assert main(["simulate", "--override", "wire_thickness=1e-310m", "--override", "photon_count=1000"]) == 0
    counts = json.loads(capsys.readouterr().out)["counts"]
    assert (counts["detected_own"], counts["total"]) == (1000, 1000)


@pytest.mark.parametrize("command", ["budget", "simulate", "metrics", "scenario"])
def test_half_absorbing_grid_is_the_which_way_domain_error(capsys, command):
    # x = 0.5618 > 1/2: each subcommand names the rule that broke, not a budget field
    overrides = ["wire_pitch=300um", "wire_count=2", "beam_side=0.72mm", "wire_thickness=250um"]
    assert main([command, *(a for o in overrides for a in ("--override", o))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DomainError"
    assert error["message"].startswith(
        "classical which-way bound needs absorbed fraction in [0, 1/2], got 0.5618"
    )


def test_metrics_squares_the_largest_finite_area(capsys):
    # (1e150 mm) ** 2 is still a float, so metrics reports its intensities
    assert main(["metrics", "--override", "beam_side=1e147m"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    i_max = json.loads(captured.out)["worst_case_intensities_per_mm2"]["i_max"]
    assert i_max == pytest.approx(10**6 / 1e300, rel=1e-12)


def test_negative_seed_is_exit_2(tmp_path, capsys):
    rc = main(["simulate", "--seed", "-1", "--out", str(tmp_path / "s.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DomainError"


def test_non_finite_sweep_thickness_is_exit_1(tmp_path, capsys):
    rc = main(["sweep", "--b-min", "nan", "--out", str(tmp_path / "s.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert err["error"]["message"].endswith("got nan")


@pytest.mark.parametrize("bound", [("--b-max", "inf"), ("--b-min", "nan")])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_sweep_bound_is_exit_1_before_the_grid(capsys, bound, fmt):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["sweep", *bound, "--format", fmt])
    assert rc == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "ConfigError"
    assert err["error"]["message"] == (
        f"wire_thickness must be a positive finite length, got {bound[1]}"
    )


@pytest.mark.parametrize(
    "bound,message",
    [
        (("--b-min", "0"), "wire_thickness must be a positive finite length, got 0.0"),
        (("--b-min", "-5"), "wire_thickness must be a positive finite length, got -5e-06"),
        (
            ("--b-max", "400"),
            "wires must not touch: wire_thickness (0.0004 m) must be < wire_pitch (0.000319 m)",
        ),
    ],
    ids=["b-min-0", "b-min-negative", "b-max-touching"],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bad_sweep_thickness_is_the_configs_error(capsys, bound, message, fmt):
    # a finite swept thickness that no config could hold exits 1 with the
    # ConfigError a config of that wire_thickness raises, like nan and inf
    rc = main(["sweep", *bound, "--format", fmt])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["type"], err["message"], err["exit_code"]) == ("ConfigError", message, 1)
    with pytest.raises(ConfigError) as raised:
        ExperimentConfig().replace(wire_thickness=float(bound[1]) / 1e6)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "bounds,message",
    [
        (
            ("--b-min", "150", "--b-max", "1"),
            "--b-min must be below --b-max for more than one step, got --b-min 150, --b-max 1",
        ),
        (
            ("--b-min", "5", "--b-max", "5", "--steps", "3"),
            "--b-min must be below --b-max for more than one step, got --b-min 5, --b-max 5",
        ),
        # below --b-max, yet too close for the metre grid to hold distinct values
        (
            ("--b-min", "1", "--b-max", "1.0000000000000002", "--steps", "3"),
            "--b-min 1.0 and --b-max 1.0000000000000002 are too close to split into "
            "--steps 3 distinct thicknesses",
        ),
        (
            ("--b-min", "100", "--b-max", "100.00000000000003", "--steps", "4"),
            "--b-min 100.0 and --b-max 100.00000000000003 are too close to split into "
            "--steps 4 distinct thicknesses",
        ),
    ],
    ids=["descending", "equal", "one-ulp", "three-ulp"],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_bounds_out_of_order_name_the_flags(capsys, bounds, message, fmt):
    rc = main(["sweep", *bounds, "--format", fmt])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["type"], err["message"]) == ("DomainError", message)
    # one step needs no order: it is the thickness --b-min
    assert main(["sweep", "--b-min", "5", "--b-max", "5", "--steps", "1"]) == 0


@pytest.mark.parametrize("theta_range", ["0", "-1", "nan"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_degenerate_theta_range_is_exit_2(capsys, theta_range, fmt):
    rc = main(["pattern", "--theta-range", theta_range, "--format", fmt])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert (err["type"], err["message"]) == (
        "DomainError", f"--theta-range must be positive and finite (mrad), got {theta_range}",
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_theta_range_reaching_pi_over_2_names_the_flag(capsys, fmt):
    # pi/2 is 1570.7963267948965 mrad, and the grid's edge is what must stay below it
    assert main(["pattern", "--theta-range", "1570.796326794896", "--format", fmt]) == 0
    assert capsys.readouterr().out
    rejected = [("1570.7963267948965", "4001"), ("2000", "4001"), ("1570.7963267948962", "4")]
    for theta_range, samples in rejected:  # with 4 samples the edge rounds up past pi/2
        args = ["pattern", "--theta-range", theta_range, "--samples", samples, "--format", fmt]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["type"], err["message"]) == (
            "DomainError",
            "--theta-range must keep the grid inside |theta| < pi/2 = 1570.7963267948965 mrad, "
            f"got {float(theta_range)!r}",
        )


@pytest.mark.parametrize("command", ["budget", "simulate"])
def test_a_window_quadrature_beyond_its_node_cap_is_refused_at_once(capsys, command):
    # at 1e-300 m each detector window spans about 4e294 half-lobe panels: counted, not built
    start = time.perf_counter()
    assert main([command, "--override", "wavelength=1e-300m"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)["error"]
    assert err["type"] == "SamplingError"
    assert err["message"].startswith("window quadrature needs ")
    assert err["message"].endswith(f" nodes, above the cap of {_MAX_WINDOW_NODES}")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_validate_rejects_invalid_config_before_any_check(capsys, fmt):
    # a config is checked when it is built, while the CLI loads it, so no
    # check runs and no row is printed
    rc = main(["validate", "--override", "wire_count=5", "--format", fmt])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "ConfigError"
    assert err["error"]["exit_code"] == 1


def test_validate_fails_an_oracle_row_without_a_stray_warning(capsys):
    # at this wavelength no angle of the oracle's grid reaches an order, so the
    # closed form is 0 everywhere: its normalised RMS is reported as inf
    assert main(["validate", "--override", "wavelength=1e300nm", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "fourier_oracle_vs_closed_form,FAIL,normalized RMS inf" in captured.out.splitlines()


def test_validate_refuses_a_grid_above_the_cap(capsys):
    # 64,000,781 nodes: one kernel block over them would ask numpy for 122 GiB
    assert main(["validate", "--override", "beam_side=319m"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == {
        "type": "SamplingError",
        "message": "aperture grid needs 64000781 nodes, above the cap of 131072",
        "exit_code": 2,
    }


@pytest.mark.parametrize(
    "failing", [(("sweep", "--b-max", "400"), 1), (("pattern", "--theta-range", "2000"), 2)]
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failing_command_leaves_the_out_file_unchanged(tmp_path, capsys, failing, fmt):
    args, code = failing
    out = tmp_path / f"f.{fmt}"
    out.write_text("an earlier result\n")
    rc = main([*args, "--format", fmt, "--out", str(out)])
    assert rc == code
    assert capsys.readouterr().out == ""
    assert out.read_text() == "an earlier result\n"


@pytest.mark.parametrize(
    "command", ["pattern", "budget", "metrics", "sweep", "simulate", "scenario", "validate"]
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, command, fmt):
    assert main([command, "--format", fmt]) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / f"out.{fmt}"
    out.write_text("a longer earlier result\n" * 10_000)
    assert main([command, "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


@pytest.mark.parametrize(
    "command", ["pattern", "budget", "metrics", "sweep", "simulate", "scenario", "validate"]
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_with_empty_options_writes_the_cli_default_bytes(capsys, command, fmt):
    # each option default lives in one place, so a request built without
    # argparse (as the benchmark probe builds it) prints what the CLI prints
    assert main([command, "--format", fmt]) == 0
    stdout = capsys.readouterr().out
    assert run(RunRequest(subcommand=command, output_format=fmt)) == 0
    assert capsys.readouterr().out == stdout


def test_io_error_is_exit_3(capsys):
    rc = main(["metrics", "--out", "/nonexistent-dir/foo.json"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] in ("FileNotFoundError", "OSError", "PermissionError")


# ---------------------------------------------------------------------------
# the subcommand table and the argv contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", _COMMANDS)
def test_each_subcommands_flags_are_its_functions_keyword_parameters(name):
    # a flag with no parameter would escape main as a TypeError traceback
    function, _, options = _COMMANDS[name]
    argv = [name, *(token for flag, *_ in options for token in (flag, "1"))]
    request = _request_from_args(build_parser().parse_args(argv))
    assert list(request.options) == list(inspect.signature(function).parameters)[1:]


# edge values for any config field, and units valid for some field or for none
_EDGE_VALUES = ["0", "-1", "nan", "inf", "1e-320", "1e300"]
_EDGE_UNITS = ["", "nm", "um", "mm", "m", "rad", "mrad", "parsecs"]


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(list(_COMMANDS)))
    argv = [name, "--format", draw(st.sampled_from(["csv", "json"]))]
    for flag, *_ in _COMMANDS[name][2]:
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(0, 20)))]
    # a large valid grid: up to 2000 wires, in a beam that holds them; not for validate,
    # whose oracle takes about 2 s near its 2**17-node aperture cap whatever M is
    if name != "validate" and draw(st.booleans()):
        count = 2 * draw(st.integers(1, 1000))
        argv += ["--override", f"wire_count={count}", "--override", f"beam_side={count}mm"]
    keys = draw(st.lists(st.sampled_from(list(DEFAULTS)), max_size=3))
    for key in keys:
        value = draw(st.sampled_from(_EDGE_VALUES)) + draw(st.sampled_from(_EDGE_UNITS))
        argv += ["--override", f"{key}={value}"]
    return [*argv, "--override", "photon_count=1000"]  # keeps simulate cheap


@settings(max_examples=200, deadline=2000)
@given(_argv())
def test_every_argv_keeps_the_error_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in {0, 1, 2, 3}
    if err.getvalue():
        assert out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        assert json.loads(line)["error"]["exit_code"] == rc
    else:  # only validate prints its rows and exits 2, when a check fails
        assert rc == 0 or (argv[0], rc) == ("validate", 2)


# ---------------------------------------------------------------------------
# import floor
# ---------------------------------------------------------------------------

# The standard-library modules ``import wiregrid.cli`` may load beyond those
# numpy already loads; every CLI run pays for each one at start-up.
CLI_STDLIB_MODULES = {
    "__future__", "_json", "argparse", "gettext", "json",
    "json.decoder", "json.encoder", "json.scanner",
}


def _fresh_process(code: str, *args: str) -> subprocess.Popen:
    """A new interpreter running ``code`` with this checkout's package on its path."""
    src = str(Path(wiregrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-c", code, *args], env=env, stdout=subprocess.PIPE, text=True
    )


def _stdout(proc: subprocess.Popen) -> str:
    out, _ = proc.communicate()
    assert proc.returncode == 0
    return out


def test_cli_import_loads_no_module_beyond_its_floor():
    code = (
        "import json, sys, numpy\n"
        "before = set(sys.modules)\n"
        "import wiregrid.cli\n"
        "print(json.dumps({'before': sorted(before), 'after': sorted(sys.modules)}))\n"
    )
    loaded = json.loads(_stdout(_fresh_process(code)))
    before, after = set(loaded["before"]), set(loaded["after"])
    assert "concurrent.futures" not in after
    # sample_fates' threads come from a module numpy has already loaded
    assert "threading" in before
    added = {m for m in after - before if m != "wiregrid" and not m.startswith("wiregrid.")}
    assert added <= CLI_STDLIB_MODULES, sorted(added - CLI_STDLIB_MODULES)


# The wiregrid modules every CLI process loads, and those each subcommand adds.
CLI_FLOOR = {"cli", "config", "errors"}
SUBCOMMAND_MODULES = {
    "pattern": {"diffraction"},
    "metrics": {"complementarity"},
    "sweep": {"complementarity"},
    "scenario": {"complementarity"},
    "budget": {"budget", "complementarity", "diffraction"},
    "validate": {"complementarity", "diffraction", "oracle"},
    "simulate": {"budget", "complementarity", "diffraction", "montecarlo"},
}
_PRINT_WIREGRID_MODULES = (
    "print(' '.join(m.removeprefix('wiregrid.') for m in sys.modules if m.startswith('wiregrid.')))\n"
)


def test_cli_import_version_and_config_errors_load_no_numpy():
    code = (
        "import contextlib, io, sys\n"
        "import wiregrid\n"
        "assert not [m for m in sys.modules if m.startswith('wiregrid.')]\n"
        "from wiregrid.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    main(['--version'])\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert main(['metrics', '--override', 'wire_count=5']) == 1\n"
        "    assert main(['budget', '--override', 'wire_count=6.5']) == 1\n"
        "assert 'numpy' not in sys.modules\n"
        + _PRINT_WIREGRID_MODULES
    )
    assert set(_stdout(_fresh_process(code)).split()) == CLI_FLOOR


def test_montecarlo_import_loads_no_budget_or_diffraction():
    # sample_fates names PhotonBudget only in an annotation, which is never evaluated
    code = "import sys\nimport wiregrid.montecarlo\n" + _PRINT_WIREGRID_MODULES
    loaded = set(_stdout(_fresh_process(code)).split())
    assert loaded == {"montecarlo", "complementarity", "config", "errors"}


# The subcommands that run on math alone: they load no numpy.
NUMPY_FREE_SUBCOMMANDS = {"pattern", "budget", "metrics", "sweep", "scenario"}


def test_each_subcommand_loads_only_the_modules_it_runs():
    code = (
        "import os, sys\n"
        "from wiregrid.cli import main\n"
        "assert main([sys.argv[1], '--out', os.devnull]) == 0\n"
        "print('numpy' in sys.modules)\n"
        + _PRINT_WIREGRID_MODULES
    )
    # one fresh process per subcommand, all started before any is read
    procs = {sub: _fresh_process(code, sub) for sub in SUBCOMMAND_MODULES}
    outputs = {sub: _stdout(proc).split("\n", 1) for sub, proc in procs.items()}
    loaded = {sub: set(modules.split()) for sub, (_, modules) in outputs.items()}
    assert loaded == {sub: CLI_FLOOR | extra for sub, extra in SUBCOMMAND_MODULES.items()}
    numpy_loaded = {sub: flag == "True" for sub, (flag, _) in outputs.items()}
    assert numpy_loaded == {sub: sub not in NUMPY_FREE_SUBCOMMANDS for sub in SUBCOMMAND_MODULES}


@pytest.mark.parametrize("sub", sorted(NUMPY_FREE_SUBCOMMANDS))
def test_light_subcommands_load_neither_dataclasses_nor_inspect(sub):
    # dataclasses, with the inspect it imports, took about 15 % of a light run's wall
    code = (
        "import os, sys\n"
        "from wiregrid.cli import main\n"
        "assert main([sys.argv[1], '--out', os.devnull]) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert _stdout(_fresh_process(code, sub)) == "[]\n"


@pytest.mark.parametrize("overrides", [[], ["wire_count=4"], ["wire_count=12", "beam_side=5mm"]],
                         ids=["reference", "M4", "M12-W5mm"])
def test_budget_prints_the_library_budgets_bit_for_bit(overrides):
    # `wiregrid budget` integrates its windows on math, without numpy; the
    # library here, as in `simulate`, runs them on numpy arrays
    args = [arg for item in overrides for arg in ("--override", item)]
    code = "import sys\nfrom wiregrid.cli import main\nsys.exit(main(['budget', *sys.argv[1:]]))\n"
    printed = json.loads(_stdout(_fresh_process(code, *args)))
    cfg = apply_overrides(ExperimentConfig(), overrides)
    single = {**single_beam_budget(cfg)._asdict(), "detector_half_width_rad": cfg.detector_half_width}
    assert printed["two_beam_fractions"] == two_beam_budget(cfg)._asdict()
    assert printed["single_beam"] == single


_BUDGET_OUTCOMES = (
    "from wiregrid import band_fraction, first_order_window, single_beam_budget, two_beam_budget\n"
    "def outcome(f, *args):\n"
    "    try:\n"
    "        return f(*args)\n"
    "    except Exception as e:\n"
    "        return type(e).__name__, str(e)\n"
    "def outcomes(cfg):\n"
    "    return repr((outcome(two_beam_budget, cfg), outcome(single_beam_budget, cfg),"
    " outcome(band_fraction, cfg, *first_order_window(cfg))))\n"
)


def test_budgets_are_the_same_bits_with_and_without_numpy(reference_config, consistent_geometries):
    # a process that never imports numpy evaluates each window integrand per
    # node on math; this one, with numpy loaded, evaluates it on one array.
    # the diffracted power rounds to 0 at 1e-310 m (x = 0) and 1.02e-310 m
    # (x > 0), and x exceeds 1/2 in the out-of-domain geometry: both paths must
    # skip the same quadrature or raise the same error
    edges = [
        reference_config.replace(wire_thickness=1e-310),
        reference_config.replace(wire_thickness=1.0204081632653061e-310),
        OUT_OF_DOMAIN_CONFIG.replace(wire_thickness=250e-6),
    ]
    large = reference_config.replace(wire_count=600, beam_side=0.2)
    configs = [reference_config, *edges, large, *consistent_geometries(25, 300)]
    code = (
        "import sys\n"
        "from wiregrid import ExperimentConfig\n"
        + _BUDGET_OUTCOMES
        + "for arg in sys.argv[1:]:\n"
        "    print(outcomes(eval(arg)))\n"
        "assert 'numpy' not in sys.modules\n"
    )
    printed = _stdout(_fresh_process(code, *map(repr, configs))).splitlines()
    namespace = {}
    exec(_BUDGET_OUTCOMES, namespace)
    assert printed == [namespace["outcomes"](c) for c in configs]
    assert all("DomainError" in line for line in printed[1:4])


# in this narrow-beam geometry wires thicker than about 238 um absorb over half of an arm
OUT_OF_DOMAIN_CONFIG = ExperimentConfig(
    wire_pitch=300e-6, wire_count=2, beam_side=0.72e-3, wire_thickness=32e-6
)


def test_sweep_rows_are_the_same_bits_with_and_without_numpy(reference_config, consistent_geometries):
    # a process that never imports numpy runs the sweep per row on math; this
    # one, with numpy loaded, runs each function once over the whole array
    grids = [(reference_config, 1e-6, 150e-6, 150), (OUT_OF_DOMAIN_CONFIG, 1e-6, 299e-6, 40)]
    grids += [(c, c.wire_pitch / 300, c.wire_pitch / 2, 150) for c in consistent_geometries(26, 300)]
    code = (
        "import hashlib, sys\n"
        "from wiregrid import ExperimentConfig, sweep_thickness\n"
        "from wiregrid.cli import _linspace\n"
        "for arg in sys.argv[1:]:\n"
        "    cfg, *grid = eval(arg)\n"
        "    print(hashlib.sha256(repr(sweep_thickness(cfg, _linspace(*grid))).encode()).hexdigest())\n"
        "assert 'numpy' not in sys.modules\n"
    )
    printed = _stdout(_fresh_process(code, *map(repr, grids))).splitlines()
    assert "numpy" in sys.modules
    expected = [
        hashlib.sha256(repr(sweep_thickness(cfg, _linspace(*grid))).encode()).hexdigest()
        for cfg, *grid in grids
    ]
    assert len(printed) == len(grids)
    assert [i for i, (p, e) in enumerate(zip(printed, expected)) if p != e] == []
    assert not all(row.in_domain for row in sweep_thickness(OUT_OF_DOMAIN_CONFIG, _linspace(*grids[1][1:])))


# Each runs sweep_thickness (``wc``) on bad thicknesses; the array path's
# errors, checked in order: the empty and unsorted ValueErrors, both edges,
# then the whole y column, the whole x column and the uniform share.
# six wires exactly fill the beam, M d = W
_GRID_FILLS_BEAM = (
    "ExperimentConfig(wire_pitch=0.0007359278474474644, wire_count=6, beam_side=0.004415567084684786)"
)
SWEEP_ERROR_CASES = {
    "empty": "wc.sweep_thickness(ExperimentConfig(), [])",
    "unsorted": "wc.sweep_thickness(ExperimentConfig(), [2e-6, 1e-6])",
    "nan-in-the-middle": "wc.sweep_thickness(ExperimentConfig(), [1e-6, math.nan, 2e-6])",
    "nan-unsorted": "wc.sweep_thickness(ExperimentConfig(), [2e-6, math.nan, 1e-6])",
    "inf": "wc.sweep_thickness(ExperimentConfig(), iter([1e-6, math.inf]))",
    "zero": "wc.sweep_thickness(ExperimentConfig(), [0.0, 1e-6])",
    "at-the-pitch": "wc.sweep_thickness(ExperimentConfig(), [1e-6, 319e-6])",
    "above-the-pitch": "wc.sweep_thickness(ExperimentConfig(), [1e-6, 400e-6])",
    "subnormal": "wc.sweep_thickness(ExperimentConfig(), [1e-310 + i * 1e-310 / 49 for i in range(50)])",
    # row 0 has x < 0, the last row y = 1.0 (M d = W): the y column is checked first
    "y-column-first": (
        f"wc.sweep_thickness({_GRID_FILLS_BEAM}, [3e-310, math.nextafter(0.0007359278474474644, 0)])"
    ),
    # row 0 breaks the uniform share, row 1 has x < 0: the x column is checked first
    "x-column-first": (
        "f = wc.absorbed_fraction_formula\n"
        "wc.absorbed_fraction_formula = lambda b, *_: (2e-5 - b) * 47368.0\n"
        "try:\n"
        "    wc.sweep_thickness(ExperimentConfig(), [1e-6, 3e-5])\n"
        "finally:\n"
        "    wc.absorbed_fraction_formula = f\n"
    ),
}
_SWEEP_OUTCOME = (
    "import json, math, sys\n"
    "import wiregrid.complementarity as wc\n"
    "from wiregrid import ExperimentConfig\n"
    "def outcome(source):\n"
    "    try:\n"
    "        exec(source)\n"
    "    except Exception as exc:\n"
    "        return [type(exc).__name__, str(exc)]\n"
)


def test_sweep_errors_are_the_same_with_and_without_numpy():
    code = _SWEEP_OUTCOME + (
        "print(json.dumps([outcome(source) for source in sys.argv[1:]]))\n"
        "assert 'numpy' not in sys.modules\n"
    )
    printed = json.loads(_stdout(_fresh_process(code, *SWEEP_ERROR_CASES.values())))
    namespace = {}
    exec(_SWEEP_OUTCOME, namespace)
    expected = [namespace["outcome"](source) for source in SWEEP_ERROR_CASES.values()]
    assert dict(zip(SWEEP_ERROR_CASES, printed)) == dict(zip(SWEEP_ERROR_CASES, expected))
    outcomes = dict(zip(SWEEP_ERROR_CASES, expected))
    assert outcomes["subnormal"] == ["DomainError", "absorbed fraction must lie in [0, 1), got -2.325e-320"]
    assert outcomes["y-column-first"] == ["DomainError", "covered fraction must lie in (0, 1), got 1.0"]
    assert outcomes["x-column-first"][1].startswith("absorbed fraction must lie in [0, 1), got -0.4")
    assert outcomes["nan-in-the-middle"] == outcomes["nan-unsorted"] == [
        "ConfigError", "wire_thickness must be a positive finite length, got nan",
    ]


SWEEP_CLI_ERROR_CASES = [
    ["--b-min", "0"], ["--b-max", "400"], ["--b-min", "150", "--b-max", "1"],
    ["--b-min", "5", "--b-max", "5", "--steps", "3"], ["--steps", "0"],
    ["--b-min", "1e-310", "--b-max", "2e-310", "--steps", "50"],
]


def test_sweep_cli_errors_are_the_same_with_and_without_numpy(capsys):
    code = (
        "import contextlib, io, json, sys\n"
        "from wiregrid.cli import main\n"
        "outcomes = []\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        outcomes.append([main(['sweep', *args]), out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(outcomes))\n"
        "assert 'numpy' not in sys.modules\n"
    )
    printed = json.loads(_stdout(_fresh_process(code, json.dumps(SWEEP_CLI_ERROR_CASES))))
    expected = []
    for args in SWEEP_CLI_ERROR_CASES:
        rc = main(["sweep", *args])
        expected.append([rc, *capsys.readouterr()])
    assert printed == expected
    assert [rc for rc, _, _ in expected] == [1, 1, 2, 2, 2, 2]
    assert all(out == "" and json.loads(err)["error"]["exit_code"] == rc for rc, out, err in expected)


def test_numpy_sin_and_cos_are_libm_sin_and_cos(consistent_geometries):
    # the premise of every test that a math path and its array path agree to
    # the bit: numpy's float64 sin and cos round as the platform's libm does
    rng = np.random.default_rng(26)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e5), 200_000)) * rng.choice([-1.0, 1.0], 200_000)
    sweep_args = [np.pi * np.array(_linspace(1e-6, 150e-6, 150)) / 319e-6]  # pi b / d
    for c in consistent_geometries(26, 300):
        b = np.array(_linspace(c.wire_pitch / 300, c.wire_pitch / 2, 150))
        sweep_args.append(np.pi * b / c.wire_pitch)
    for name in ("sin", "cos"):
        for args in (t, *sweep_args):
            got, want = getattr(np, name)(args).tolist(), [getattr(math, name)(a) for a in args.tolist()]
            bad = [a for a, g, w in zip(args.tolist(), got, want) if g != w]
            assert not bad, (
                f"np.{name} differs from math.{name} at {len(bad)} arguments, first {bad[0]!r}: "
                "the math and numpy paths cannot agree to the bit here, so the path-identity "
                "tests (test_budgets_are_the_same_bits_with_and_without_numpy, "
                "test_sweep_rows_are_the_same_bits_with_and_without_numpy, "
                "test_scalar_and_array_paths_agree_bit_for_bit) fail for this platform's "
                "numpy, not for the package"
            )
