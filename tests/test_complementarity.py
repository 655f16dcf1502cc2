import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiregrid import (
    ComplementarityReport,
    ConfigError,
    DomainError,
    ExperimentConfig,
    SweepRow,
    absorbed_fraction_two_beams,
    classical_whichway,
    coverage_fraction,
    fraction_report,
    grid_metrics,
    quantum_whichway,
    sweep_thickness,
    visibility_lower_bound,
    worst_case_intensity_pair,
)
from wiregrid.complementarity import absorbed_fraction_formula

BENCH_X = 0.001240
BENCH_Y = 0.07529


# ---------------------------------------------------------------------------
# visibility
# ---------------------------------------------------------------------------

def test_visibility_benchmark_intensities(pair_visibility):
    assert pair_visibility(2_533, 166_103) == pytest.approx(0.96996, abs=5e-6)


def test_visibility_uniform_and_perfect_nulls(pair_visibility):
    assert pair_visibility(3.0, 3.0) == 0.0
    assert pair_visibility(0.0, 5.0) == 1.0


@given(
    y=st.floats(min_value=1e-4, max_value=0.9),
    frac=st.floats(min_value=0.0, max_value=1.0),
    photons=st.floats(min_value=1.0, max_value=1e9),
    beam_area=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=100, deadline=None)
def test_visibility_scale_invariance_and_range(pair_visibility, y, frac, photons, beam_area):
    # photons and beam area scale both intensities alike, so V does not see them
    x = y * frac * 0.999
    v = visibility_lower_bound(x, y)
    assert 0.0 <= v <= 1.0
    v_scaled = pair_visibility(*worst_case_intensity_pair(x, y, photons, beam_area))
    assert v_scaled == pytest.approx(v, rel=1e-12)
    if x == 0.0:
        assert v == 1.0


def test_worst_case_pair_reproduces_benchmark_counts():
    # 1,240 absorbed photons spread over the strip area, the rest elsewhere,
    # per square millimetre of a 2.55 mm square beam
    area_mm2 = 2.55**2
    i_min, i_max = worst_case_intensity_pair(BENCH_X, 192 / 2550, 1_000_000, area_mm2)
    assert i_min == pytest.approx(2_533, abs=1)
    assert i_max == pytest.approx(166_103, abs=1)
    # strip and remainder areas behind those numbers
    assert (192 / 2550) * area_mm2 == pytest.approx(0.4896, rel=1e-12)
    assert (1 - 192 / 2550) * area_mm2 == pytest.approx(6.0129, rel=1e-12)


def test_visibility_lower_bound_benchmark_value():
    assert visibility_lower_bound(BENCH_X, BENCH_Y) == pytest.approx(0.9699, abs=5e-4)
    assert visibility_lower_bound(BENCH_X, 192 / 2550) == pytest.approx(0.96996, abs=1e-5)


def test_visibility_lower_bound_edge_cases():
    assert visibility_lower_bound(0.05, 0.05) == 0.0
    assert visibility_lower_bound(0.0, BENCH_Y) == 1.0


def test_visibility_lower_bound_domain_errors():
    with pytest.raises(DomainError):
        visibility_lower_bound(0.1, 0.0)
    with pytest.raises(DomainError):
        visibility_lower_bound(0.1, 1.0)
    with pytest.raises(DomainError, match="uniform share"):
        visibility_lower_bound(0.5, 0.1)


@given(
    y=st.floats(min_value=1e-4, max_value=0.9),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_round_trip_with_intensity_formula(pair_visibility, y, frac):
    # bound equals the visibility of the worst-case intensity pair, exactly
    x = y * frac * 0.999
    v_bound = visibility_lower_bound(x, y)
    v_pair = pair_visibility(x / y, (1 - x) / (1 - y))
    assert v_bound == v_pair


def test_bound_strictly_decreasing_in_absorbed():
    xs = np.linspace(0.0, 0.07, 40)
    vs = [visibility_lower_bound(x, BENCH_Y) for x in xs]
    assert all(v2 < v1 for v1, v2 in zip(vs, vs[1:]))


# ---------------------------------------------------------------------------
# which-way
# ---------------------------------------------------------------------------

def test_classical_whichway_values():
    assert classical_whichway(0.0) == 1.0
    assert classical_whichway(0.5) == 0.0
    assert classical_whichway(BENCH_X) == pytest.approx(0.99752, abs=1e-5)


def test_classical_whichway_domain():
    with pytest.raises(DomainError):
        classical_whichway(0.6)
    with pytest.raises(DomainError):
        classical_whichway(-0.01)


def test_quantum_whichway_constant_zero():
    assert quantum_whichway() == 0.0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _report(k, k_classical, v):
    return ComplementarityReport(
        quantum_whichway=k, classical_whichway_lower=k_classical, visibility_lower=v
    )


def test_report_benchmark_numbers():
    report = _report(0.0, 0.99752, 0.96996)
    assert report.quantum_sum == pytest.approx(0.9408, abs=1e-4)
    assert report.classical_sum == pytest.approx(1.9358, abs=1e-3)
    assert report.quantum_inequality_satisfied
    assert report.classical_sum_below_two


def test_report_no_measurement_case():
    report = _report(0.0, 1.0, 0.0)
    assert report.quantum_sum == 0.0
    assert report.classical_sum == 1.0


def test_report_delayed_choice_limit():
    report = _report(0.0, 0.0, 1.0)
    assert report.quantum_sum == 1.0
    assert report.classical_sum == 1.0


def test_report_validates_ranges():
    bounds = dict(quantum_whichway=0.0, classical_whichway_lower=0.5, visibility_lower=0.5)
    for bad in (1.5, -0.01, float("nan")):
        for name in bounds:
            with pytest.raises(DomainError, match=rf"^{name} must lie in \[0, 1\], got {bad!r}$"):
                ComplementarityReport(**(bounds | {name: bad}))
            with pytest.raises(DomainError, match=f"^{name}"):
                dataclasses.replace(ComplementarityReport(**bounds), **{name: bad})
        # checked in the order K, K', V
        with pytest.raises(DomainError, match="^quantum_whichway"):
            _report(bad, bad, bad)
        with pytest.raises(DomainError, match="^classical_whichway_lower"):
            _report(0.0, bad, bad)


@pytest.mark.parametrize(
    "k,k_classical,v",
    [(0.0, 0.99752, 0.96996), (0.6, 0.3, 0.8), (0.8, 1.0, 0.9), (0.0, 1.0, 1.0)],
)
def test_report_derives_its_sums_and_verdicts(k, k_classical, v):
    report = _report(k, k_classical, v)
    assert report.quantum_sum == k**2 + v**2
    assert report.classical_sum == k_classical**2 + v**2
    assert report.quantum_inequality_satisfied is (k**2 + v**2 <= 1.0)
    assert report.classical_sum_below_two is (k_classical**2 + v**2 < 2.0)
    # a changed bound carries its own sums and verdicts, never the old ones
    moved = dataclasses.replace(report, visibility_lower=0.1)
    assert moved == _report(k, k_classical, 0.1)
    assert moved.quantum_sum == k**2 + 0.1**2
    assert moved.classical_sum == k_classical**2 + 0.1**2
    with pytest.raises(TypeError):
        ComplementarityReport(
            visibility_lower=v, quantum_whichway=k, classical_whichway_lower=k_classical,
            quantum_sum=0.0,
        )


def test_grid_metrics_reference_config(reference_config):
    report = grid_metrics(reference_config)
    assert report.visibility_lower == pytest.approx(0.96996, abs=2e-5)
    assert report.classical_whichway_lower == pytest.approx(0.99752, abs=1e-5)
    assert report.quantum_whichway == 0.0
    assert report.quantum_sum == pytest.approx(0.941, abs=5e-4)
    assert report.classical_sum == pytest.approx(1.936, abs=1e-3)
    assert report.classical_sum >= 1.932
    assert report.classical_sum < 2.0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_reference_row(reference_config):
    rows = sweep_thickness(reference_config, [32e-6])
    row = rows[0]
    assert row.in_domain
    assert row.visibility_sq == pytest.approx(0.941, abs=5e-4)
    assert row.classical_sq == pytest.approx(0.995, abs=5e-4)
    assert row.classical_sum == pytest.approx(1.936, abs=1e-3)


def test_sweep_monotone_and_bounded(reference_config):
    bs = list(np.linspace(1e-6, 150e-6, 150))
    rows = sweep_thickness(reference_config, bs)
    assert len(rows) == 150
    vs = [r.visibility_lower for r in rows]
    ks = [r.classical_whichway_lower for r in rows]
    assert all(v2 < v1 for v1, v2 in zip(vs, vs[1:]))
    assert all(k2 < k1 for k1, k2 in zip(ks, ks[1:]))
    for r in rows:
        assert r.absorbed < r.covered
        assert r.quantum_sum <= 1.0
        assert r.classical_sum < 2.0
        assert r.in_domain


def test_sweep_visibility_approaches_one_for_thin_wires(reference_config):
    rows = sweep_thickness(reference_config, [0.5e-6, 1e-6, 2e-6])
    assert rows[0].visibility_sq > rows[1].visibility_sq > rows[2].visibility_sq
    assert rows[0].visibility_sq > 0.99998


def test_sweep_cubic_law_below_8um(reference_config):
    bs = list(np.linspace(1e-6, 8e-6, 15))
    rows = sweep_thickness(reference_config, bs)
    ratios = [r.absorbed / r.wire_thickness**3 for r in rows]
    assert max(ratios) / min(ratios) - 1 < 0.01


def test_sweep_out_of_domain_rows_marked(reference_config):
    # absorbed exceeds 1/2 only for wires wider than the validated pitch
    # allows in the reference geometry, so use a relaxed pitch-to-beam ratio
    cfg = ExperimentConfig(
        wire_pitch=300e-6, wire_count=2, beam_side=0.72e-3, wire_thickness=32e-6
    )
    rows = sweep_thickness(cfg, [100e-6, 290e-6])
    assert rows[0].in_domain
    assert not rows[1].in_domain
    assert rows[1].classical_whichway_lower is None
    assert "1/2" in rows[1].note


# in this narrow-beam geometry wires thicker than about 238 um absorb over half of an arm
OUT_OF_DOMAIN_CONFIG = ExperimentConfig(
    wire_pitch=300e-6, wire_count=2, beam_side=0.72e-3, wire_thickness=32e-6
)


def _scalar_sweep_row(config, b):
    """One sweep row through the scalar pipeline on a config of thickness b."""
    c_b = config.replace(wire_thickness=b)
    x, y = absorbed_fraction_two_beams(c_b), coverage_fraction(c_b)
    row = dict(wire_thickness=b, absorbed=x, covered=y, in_domain=x <= 0.5)
    if not row["in_domain"]:
        v = visibility_lower_bound(x, y)
        return row | dict(visibility_lower=v, visibility_sq=v * v, quantum_sum=v * v,
                          classical_whichway_lower=None, classical_sq=None, classical_sum=None)
    r = fraction_report(x, y)
    return row | dict(
        visibility_lower=r.visibility_lower,
        visibility_sq=r.visibility_lower**2,
        quantum_sum=r.quantum_sum,
        classical_whichway_lower=r.classical_whichway_lower,
        classical_sq=r.classical_whichway_lower**2,
        classical_sum=r.classical_sum,
    )


@pytest.mark.parametrize(
    "config,b_values",
    [
        (ExperimentConfig(), np.linspace(1e-6, 150e-6, 150)),
        (OUT_OF_DOMAIN_CONFIG, np.linspace(1e-6, 299e-6, 40)),
    ],
    ids=["reference", "out-of-domain"],
)
def test_sweep_matches_scalar_pipeline(config, b_values):
    rows = sweep_thickness(config, b_values)
    assert len(rows) == len(b_values)
    for row, b in zip(rows, b_values):
        expected = _scalar_sweep_row(config, float(b))
        for name, want in expected.items():
            got = getattr(row, name)
            if want is None or isinstance(want, bool):
                assert got is want, name
            else:
                assert type(got) is float, name
                assert got == pytest.approx(want, rel=1e-9, abs=0.0), name
    if config is OUT_OF_DOMAIN_CONFIG:
        assert any(r.in_domain for r in rows) and not all(r.in_domain for r in rows)


def test_sweep_quantum_sum_follows_quantum_whichway(monkeypatch):
    # K = 0 hides a sweep that writes V^2 for K^2 + V^2; a nonzero K shows it
    monkeypatch.setattr("wiregrid.complementarity.quantum_whichway", lambda: 0.25)
    rows = sweep_thickness(OUT_OF_DOMAIN_CONFIG, np.linspace(1e-6, 299e-6, 40))
    inside = [row for row in rows if row.in_domain]
    assert inside and len(inside) < len(rows)
    for row in inside:
        assert row.quantum_sum == fraction_report(row.absorbed, row.covered).quantum_sum
        assert row.quantum_sum != row.visibility_sq


def test_scalar_pipeline_returns_plain_python_types(reference_config):
    x = absorbed_fraction_formula(32e-6, 319e-6, 6, 2.55e-3)
    assert type(x) is float
    for b in (np.float64(32e-6), np.array(32e-6)):  # numpy scalars and 0-d arrays too
        assert type(absorbed_fraction_formula(b, 319e-6, 6, 2.55e-3)) is float
        assert absorbed_fraction_formula(b, 319e-6, 6, 2.55e-3) == x
    assert type(visibility_lower_bound(BENCH_X, BENCH_Y)) is float
    assert type(classical_whichway(BENCH_X)) is float
    assert [type(i) for i in worst_case_intensity_pair(BENCH_X, BENCH_Y, 1e6, 6.5)] == [float] * 2
    report = grid_metrics(reference_config)
    for name, value in report.as_dict().items():
        assert type(value) in (float, bool), name
    assert type(report.quantum_inequality_satisfied) is bool


def test_elementwise_bounds_name_the_first_bad_value():
    xs = np.array([0.1, 0.6, 0.7])
    with pytest.raises(DomainError, match=r"1/2\], got 0\.6$"):
        classical_whichway(xs)
    assert classical_whichway(xs[:1]).tolist() == [1.0 - 2.0 * 0.1]
    with pytest.raises(DomainError, match="x=0.5 exceeds the uniform share for y=0.1"):
        visibility_lower_bound(np.array([0.01, 0.5]), np.array([0.1, 0.1]))
    # a scalar covered fraction broadcasts against the absorbed array
    with pytest.raises(DomainError, match="x=0.3 exceeds the uniform share for y=0.2;"):
        visibility_lower_bound(np.array([0.01, 0.3, 0.4]), 0.2)
    # the first failing element is named, not the first element
    with pytest.raises(DomainError, match=r"x=0\.4 exceeds the uniform share for y=0\.3;"):
        visibility_lower_bound(np.array([0.01, 0.02, 0.4, 0.5]), np.array([0.1, 0.2, 0.3, 0.3]))


@pytest.mark.parametrize(
    "bound, args, text",
    [
        (visibility_lower_bound, (0.01, 1.5), "covered fraction must lie in (0, 1)"),
        (visibility_lower_bound, (1.5, 0.1), "absorbed fraction must lie in [0, 1)"),
        (visibility_lower_bound, (0.5, 0.1), "exceeds the uniform share"),
        (classical_whichway, (0.6,), "absorbed fraction in [0, 1/2]"),
    ],
)
def test_scalar_and_one_element_bounds_raise_the_same_text(bound, args, text):
    with pytest.raises(DomainError) as scalar:
        bound(*args)
    with pytest.raises(DomainError) as array:
        bound(*(np.array([a]) for a in args))
    assert text in str(scalar.value)
    assert str(array.value) == str(scalar.value)


@pytest.mark.parametrize(
    "bound, args", [(classical_whichway, (0.6,)), (visibility_lower_bound, (0.6, 0.1))]
)
@pytest.mark.parametrize(
    "wrap", [np.float64, np.array, lambda a: np.array([a, a])], ids=["float64", "0-d", "array"]
)
def test_python_float_and_numpy_inputs_raise_the_same_text(bound, args, wrap):
    # a Python float takes the math path; numpy scalars and arrays the numpy one
    with pytest.raises(DomainError) as scalar:
        bound(*args)
    with pytest.raises(DomainError) as numpy_input:
        bound(*map(wrap, args))
    assert str(numpy_input.value) == str(scalar.value)


def test_scalar_and_array_paths_agree_bit_for_bit(consistent_geometries):
    # scalars run on math and arrays on numpy: metrics and sweep must print
    # the same x, V, K' and duality sums for the same thickness (with ** for
    # the squares, libm pow gave 3 of these geometries a different sum)
    for config in consistent_geometries(seed=23, n=2000):
        b, d, m, w = config.wire_thickness, config.wire_pitch, config.wire_count, config.beam_side
        x = absorbed_fraction_two_beams(config)
        assert x == absorbed_fraction_formula(np.array([b]), d, m, w)[0]
        report, (row,) = grid_metrics(config), sweep_thickness(config, [b])
        fields = ("visibility_lower", "classical_whichway_lower", "quantum_sum", "classical_sum")
        assert [getattr(report, f) for f in fields] == [getattr(row, f) for f in fields]


# the sweep CSV column order
SWEEP_ROW_FIELDS = (
    "wire_thickness",
    "absorbed",
    "covered",
    "visibility_lower",
    "classical_whichway_lower",
    "visibility_sq",
    "classical_sq",
    "quantum_sum",
    "classical_sum",
    "in_domain",
    "note",
)


def test_dense_sweep_in_domain_rows_are_a_prefix():
    # sweep_thickness computes the classical columns on the leading rows alone,
    # relying on x rising with b; 1 nm steps across x = 1/2 (b near 237.85 um)
    b = np.linspace(230e-6, 246e-6, 16001)
    cfg = OUT_OF_DOMAIN_CONFIG
    inside = absorbed_fraction_formula(b, cfg.wire_pitch, cfg.wire_count, cfg.beam_side) <= 0.5
    m = int(np.count_nonzero(inside))
    assert 0 < m < b.size
    assert inside[:m].all() and not inside[m:].any()
    flags = [True] * m + [False] * (b.size - m)
    rows = sweep_thickness(cfg, b)
    assert [row.in_domain for row in rows] == flags
    assert [row.absorbed <= 0.5 for row in rows] == flags


def test_sweep_rows_are_immutable_named_tuples():
    rows = sweep_thickness(OUT_OF_DOMAIN_CONFIG, [100e-6, 290e-6])
    inside, outside = rows
    assert tuple(inside._asdict()) == SWEEP_ROW_FIELDS
    assert SweepRow._field_defaults == {"note": ""}
    with pytest.raises(AttributeError):
        inside.visibility_lower = 1.0
    assert inside.in_domain is True and inside.note == ""
    assert outside.in_domain is False
    assert (outside.classical_whichway_lower, outside.classical_sq, outside.classical_sum) == (
        None, None, None,
    )
    assert "1/2" in outside.note
    for row in rows:
        for name, value in row._asdict().items():
            allowed = (str,) if name == "note" else (float, bool, type(None))
            assert type(value) in allowed, name
        always_float = ("wire_thickness", "absorbed", "covered", "visibility_lower",
                        "visibility_sq", "quantum_sum")
        assert all(type(getattr(row, name)) is float for name in always_float)


def test_sweep_rejects_non_finite_thickness(reference_config):
    with pytest.raises(ConfigError, match=r"finite length, got nan$"):
        sweep_thickness(reference_config, [1e-6, float("nan"), 2e-6])


def test_sweep_rejects_unsorted_or_out_of_range(reference_config):
    with pytest.raises(ValueError, match="ascending"):
        sweep_thickness(reference_config, [2e-6, 1e-6])
    with pytest.raises(ValueError, match="empty"):
        sweep_thickness(reference_config, [])
    # a thickness no config could hold raises the config's own error
    with pytest.raises(ConfigError, match=r"finite length, got 0\.0$"):
        sweep_thickness(reference_config, [0.0, 1e-6])
    with pytest.raises(ConfigError, match=r"^wires must not touch: wire_thickness \(0\.000319 m\)"):
        sweep_thickness(reference_config, [1e-6, 319e-6])
