"""Experiment configuration and derived geometry.

All lengths are stored in metres and all angles in radians.  An
``ExperimentConfig`` is a named tuple checked once, when it is built
(``replace`` and ``_make`` included), so every instance satisfies the
invariants of ``validate_config``: the other modules take a config as valid
and do not check it again.  It is immutable and safe to share between threads.

This module is the one place that knows each field's default and kind
(length, angle or count), where every closed form picks ``math`` or numpy, and
where every record type gets its base (``_record``).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import ConfigError

LENGTH_FIELDS = ("wavelength", "wire_thickness", "wire_pitch", "beam_side")
ANGLE_FIELDS = ("crossing_angle", "detector_half_width")
COUNT_FIELDS = ("wire_count", "photon_count")

# Small-angle scalar treatment breaks down well before this.
MAX_CROSSING_ANGLE = 0.1


def numeric(x):
    """The module a closed form runs ``x`` on, to the same bits either way: ``math``
    for an int or float (numpy's float64 included), so scalars load no numpy, else
    numpy, loaded already since an array arrived."""
    if isinstance(x, (int, float)):
        return math
    import numpy
    return numpy


def loaded_numpy():
    """numpy if this process has loaded it, so a loop over scalars can run as one
    array call (same bits) at no import cost, else None."""
    return sys.modules.get("numpy")


def _record(typename: str, field_names, defaults=()) -> type:
    """The named tuple a record type subclasses (with ``__slots__ = ()``, so no
    attribute can be set), checking its values in ``__new__`` if it has any
    invariant.  Its ``_make``, which ``_replace`` calls, builds through that
    ``__new__``: namedtuple's own calls ``tuple.__new__`` and skips the check."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


# The reference defaults by field name, in field order: a desk-scale setup of
# 638 nm light and six 32 um wires at 319 um pitch, placed where two 2.55 mm
# square beams cross at 2 mrad.
DEFAULTS = {
    "wavelength": 638e-9, "wire_thickness": 32e-6, "wire_pitch": 319e-6, "wire_count": 6,
    "beam_side": 2.55e-3, "crossing_angle": 0.002, "detector_half_width": 0.0005,
    "photon_count": 1_000_000,
}


class ExperimentConfig(_record("ExperimentConfig", DEFAULTS, DEFAULTS.values())):
    """Physical parameters of the crossed-beam wire-grid setup, ``DEFAULTS`` unless given.

    Attributes
    ----------
    wavelength : float
        Vacuum wavelength of the light [m].
    wire_thickness : float
        Width of each absorbing wire [m].
    wire_pitch : float
        Centre-to-centre wire separation [m].
    wire_count : int
        Number of wires; must be even so the grid is symmetric about the
        pattern centre.
    beam_side : float
        Side of the square beam cross section [m].
    crossing_angle : float
        Full angle between the two beams [rad].
    detector_half_width : float
        Angular half-acceptance of each detector window [rad].  The
        detectors themselves sit at +-crossing_angle/2.
    photon_count : int
        Photons per source arm used for count-based reporting.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return validate_config(super().__new__(cls, *args, **kwargs))

    def replace(self, **changes) -> "ExperimentConfig":
        return self._replace(**changes)

    def as_dict(self) -> dict:
        return self._asdict()


class DerivedGeometry(_record("DerivedGeometry", "fringe_spacing fringe_consistency")):
    """Secondary quantities shared by the analysis modules.

    ``fringe_consistency`` is |fringe_spacing - wire_pitch| / wire_pitch;
    callers should warn when it is not small, because the model places the
    wires at dark-fringe centres spaced by the pitch.
    """

    __slots__ = ()


def positive_finite_error(name: str, value) -> ConfigError:
    """The error for a length or angle field that is not positive and finite."""
    kind = "length" if name in LENGTH_FIELDS else "angle"
    return ConfigError(f"{name} must be a positive finite {kind}, got {value!r}")


def check_wire_thickness(b: float, pitch: float) -> None:
    """``validate_config``'s two checks on a wire thickness b: positive, finite, below pitch."""
    if not (math.isfinite(b) and b > 0):
        raise positive_finite_error("wire_thickness", b)
    if b >= pitch:
        raise ConfigError(
            f"wires must not touch: wire_thickness ({b:g} m) must be < wire_pitch ({pitch:g} m)"
        )


def _is_number(value, types) -> bool:
    """isinstance(value, types), but a bool is a flag and no number."""
    return isinstance(value, types) and not isinstance(value, bool)


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Check every invariant, returning the config unchanged if all hold.

    Raises ConfigError naming the offending field and bound otherwise.
    ``ExperimentConfig`` runs this when it is built, so calling it on a
    config again always returns the config.
    """
    for name in (*LENGTH_FIELDS, *ANGLE_FIELDS):
        value = getattr(config, name)
        if not (_is_number(value, (int, float)) and math.isfinite(value) and value > 0):
            raise positive_finite_error(name, value)
    if not _is_number(config.wire_count, int) or config.wire_count < 2:
        raise ConfigError(f"wire_count must be an integer >= 2, got {config.wire_count!r}")
    if config.wire_count % 2 != 0:
        raise ConfigError(
            f"wire_count must be even so the grid is symmetric about the "
            f"pattern centre, got {config.wire_count}"
        )
    if not _is_number(config.photon_count, int) or config.photon_count < 1:
        raise ConfigError(f"photon_count must be a positive integer, got {config.photon_count!r}")
    check_wire_thickness(config.wire_thickness, config.wire_pitch)
    if config.wire_count * config.wire_pitch > config.beam_side:
        raise ConfigError(
            f"grid does not fit inside the beam: wire_count * wire_pitch = "
            f"{config.wire_count * config.wire_pitch:g} m exceeds beam_side "
            f"({config.beam_side:g} m)"
        )
    if config.detector_half_width >= config.crossing_angle / 2.0:
        raise ConfigError(
            f"detector windows overlap: detector_half_width "
            f"({config.detector_half_width:g} rad) must be < crossing_angle / 2 "
            f"({config.crossing_angle / 2.0:g} rad)"
        )
    if config.crossing_angle >= MAX_CROSSING_ANGLE:
        raise ConfigError(
            f"crossing_angle ({config.crossing_angle:g} rad) must be < "
            f"{MAX_CROSSING_ANGLE} rad for the small-angle scalar model"
        )
    return config


def derive_geometry(config: ExperimentConfig) -> DerivedGeometry:
    """Compute the fringe spacing and its mismatch with the wire pitch."""
    fringe_spacing = config.wavelength / (2.0 * math.sin(config.crossing_angle / 2.0))
    return DerivedGeometry(
        fringe_spacing=fringe_spacing,
        fringe_consistency=abs(fringe_spacing - config.wire_pitch) / config.wire_pitch,
    )


def wire_centers(config: ExperimentConfig) -> list[float]:
    """Wire centre positions, symmetric about the pattern centre.

    The wires sit at consecutive dark fringes of the crossed-beam field,
    at +-pitch/2, +-3*pitch/2, ... up to +-(wire_count-1)*pitch/2.
    """
    m, d = config.wire_count, config.wire_pitch
    return [(j - (m - 1) / 2) * d for j in range(m)]
