import csv
import io
import json

import numpy as np
import pytest

from wiregrid import DEFAULTS, ExperimentConfig, crosscheck, first_order_window
from wiregrid.cli import apply_overrides, main, parse_config
from wiregrid.errors import ConfigParseError


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


def test_io_error_is_exit_3(capsys):
    rc = main(["metrics", "--out", "/nonexistent-dir/foo.json"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] in ("FileNotFoundError", "OSError", "PermissionError")
