import csv
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import wiregrid
from wiregrid import (
    DEFAULTS,
    ExperimentConfig,
    band_fraction,
    crosscheck,
    first_order_window,
    single_beam_budget,
    two_beam_budget,
)
from wiregrid.cli import RunRequest, apply_overrides, main, parse_config, run
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
    rc = main(["pattern", "--samples", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 2


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
# import floor
# ---------------------------------------------------------------------------

# The standard-library modules ``import wiregrid.cli`` may load beyond those
# numpy already loads; every CLI run pays for each one at start-up.
CLI_STDLIB_MODULES = {
    "__future__", "_json", "argparse", "copy", "dataclasses", "gettext", "json",
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
    "validate": {"budget", "complementarity", "diffraction", "oracle"},
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


# The subcommands that compute scalars only, on math: they load no numpy.
NUMPY_FREE_SUBCOMMANDS = {"pattern", "budget", "metrics", "scenario"}


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


@pytest.mark.parametrize("overrides", [[], ["wire_count=4"], ["wire_count=12", "beam_side=5mm"]],
                         ids=["reference", "M4", "M12-W5mm"])
def test_budget_prints_the_library_budgets_bit_for_bit(overrides):
    # `wiregrid budget` integrates its windows on math, without numpy; the
    # library here, as in `simulate`, runs them on numpy arrays
    args = [arg for item in overrides for arg in ("--override", item)]
    code = "import sys\nfrom wiregrid.cli import main\nsys.exit(main(['budget', *sys.argv[1:]]))\n"
    printed = json.loads(_stdout(_fresh_process(code, *args)))
    cfg = apply_overrides(ExperimentConfig(), overrides)
    single = asdict(single_beam_budget(cfg))
    single["detector_half_width_rad"] = single.pop("detector_half_width")
    assert printed["two_beam_fractions"] == asdict(two_beam_budget(cfg))
    assert printed["single_beam"] == single


def test_budgets_are_the_same_bits_with_and_without_numpy(reference_config, consistent_geometries):
    # a process that never imports numpy evaluates each window integrand per
    # node on math; this one, with numpy loaded, evaluates it on one array
    configs = [reference_config, *consistent_geometries(25, 300)]
    code = (
        "import sys\n"
        "from wiregrid import ExperimentConfig, band_fraction, first_order_window,"
        " single_beam_budget, two_beam_budget\n"
        "for arg in sys.argv[1:]:\n"
        "    cfg = eval(arg)\n"
        "    print(repr((two_beam_budget(cfg), single_beam_budget(cfg),"
        " band_fraction(cfg, *first_order_window(cfg)))))\n"
        "assert 'numpy' not in sys.modules\n"
    )
    printed = _stdout(_fresh_process(code, *map(repr, configs))).splitlines()
    assert printed == [
        repr((two_beam_budget(c), single_beam_budget(c), band_fraction(c, *first_order_window(c))))
        for c in configs
    ]
