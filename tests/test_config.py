import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiregrid import (
    ConfigError,
    ExperimentConfig,
    derive_geometry,
    validate_config,
    wire_centers,
)


def test_reference_config_accepted(reference_config):
    assert validate_config(reference_config) is reference_config


def test_wires_touching_rejected():
    with pytest.raises(ConfigError, match="must not touch"):
        ExperimentConfig(wire_thickness=319e-6, wire_pitch=319e-6)


def test_odd_wire_count_rejected():
    with pytest.raises(ConfigError, match="even"):
        ExperimentConfig(wire_count=9)


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("wavelength", -1e-9, "positive"),
        ("wire_thickness", 0.0, "positive"),
        ("beam_side", float("nan"), "positive"),
        ("crossing_angle", 0.0, "positive"),
        ("detector_half_width", -1e-4, "positive"),
        ("wire_count", 0, ">= 2"),
        ("photon_count", 0, "positive integer"),
        ("crossing_angle", 0.2, "small-angle"),
        ("detector_half_width", 0.001, "overlap"),
    ],
)
def test_each_invariant_has_its_own_error(field, value, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(**{field: value})


def test_grid_must_fit_inside_beam():
    with pytest.raises(ConfigError, match="grid does not fit"):
        ExperimentConfig(wire_count=10, wire_pitch=319e-6, beam_side=2.55e-3)


def test_replace_checks_the_new_config(reference_config):
    with pytest.raises(ConfigError, match="overlap"):
        reference_config.replace(detector_half_width=0.001)
    with pytest.raises(ConfigError, match="grid does not fit"):
        reference_config.replace(wire_count=10)


def test_derived_geometry_reference_values(reference_config):
    geo = derive_geometry(reference_config)
    # lambda / (2 sin(alpha/2)) evaluated directly
    assert geo.fringe_spacing == pytest.approx(638e-9 / (2 * math.sin(0.001)), rel=1e-15)
    assert geo.fringe_spacing == pytest.approx(319.0e-6, rel=1e-4)  # 4 significant figures
    assert geo.fringe_consistency <= 0.001


def test_doubling_crossing_angle_halves_fringe_spacing(reference_config):
    geo1 = derive_geometry(reference_config)
    geo2 = derive_geometry(reference_config.replace(crossing_angle=0.004))
    assert geo2.fringe_spacing == pytest.approx(159.5e-6, rel=1e-4)
    assert geo1.fringe_spacing / geo2.fringe_spacing == pytest.approx(2.0, rel=1e-5)


def test_derive_geometry_is_pure(reference_config):
    a = derive_geometry(reference_config)
    b = derive_geometry(ExperimentConfig())
    assert a == b


@given(alpha=st.floats(min_value=1e-5, max_value=0.09))
@settings(max_examples=50, deadline=None)
def test_fringe_spacing_identity(alpha):
    # detector windows scale with the crossing angle so they never overlap
    cfg = ExperimentConfig(crossing_angle=alpha, detector_half_width=alpha / 4)
    geo = derive_geometry(cfg)
    # fringe_spacing * sin(alpha/2) = lambda / 2 exactly
    assert geo.fringe_spacing * math.sin(alpha / 2) == pytest.approx(
        cfg.wavelength / 2, rel=1e-14
    )


@given(scale=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_length_scaling_leaves_dimensionless_outputs_alone(scale):
    base = ExperimentConfig()
    scaled = ExperimentConfig(
        wavelength=base.wavelength * scale,
        wire_thickness=base.wire_thickness * scale,
        wire_pitch=base.wire_pitch * scale,
        beam_side=base.beam_side * scale,
    )
    g0 = derive_geometry(base)
    g1 = derive_geometry(scaled)
    assert g1.fringe_consistency == pytest.approx(g0.fringe_consistency, abs=1e-9)


def test_wire_centers_symmetric_and_on_half_pitch(reference_config):
    centers = wire_centers(reference_config)
    d = reference_config.wire_pitch
    assert len(centers) == reference_config.wire_count
    assert centers == sorted(centers)
    for c in centers:
        assert -c in centers
        assert abs(c) / d == pytest.approx(round(abs(c) / d - 0.5) + 0.5, rel=1e-12)


@pytest.mark.parametrize(
    "wire_count, wire_pitch, beam_side",
    [(2, 300e-6, 0.72e-3), (4, 319e-6, 2.55e-3), (12, 319e-6, 5e-3), (40, 1.7e-4, 7e-3)],
)
def test_wire_centers_are_the_mirrored_odd_half_pitches(wire_count, wire_pitch, beam_side):
    cfg = ExperimentConfig(
        wire_count=wire_count, wire_pitch=wire_pitch, beam_side=beam_side, wire_thickness=1e-5
    )
    reference = []
    for n in range(1, wire_count // 2 + 1):
        xc = (2 * n - 1) * wire_pitch / 2.0
        reference.extend((-xc, +xc))
    reference.sort()
    assert [c.hex() for c in wire_centers(cfg)] == [c.hex() for c in reference]
