"""Fringe visibility, which-way information, and the duality inequalities.

The wire grid absorbs a fraction x of each arm while covering a fraction y
of the beam; spreading the absorbed photons over dark strips of wire width
and the rest uniformly elsewhere gives the flattest interference pattern
consistent with the counts, hence a lower bound on the visibility.  The
classical which-way parameter tracks photons whose momentum was provably
untouched, bounded below by 1 - 2x.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .budget import (
    _coverage_formula,
    absorbed_fraction_formula,
    absorbed_fraction_two_beams,
    coverage_fraction,
)
from .config import ExperimentConfig, check_wire_thickness
from .errors import DomainError


@dataclass(frozen=True)
class VisibilityInputs:
    """Extreme intensities of an interference pattern, arbitrary common scale."""

    i_max: float
    i_min: float

    def __post_init__(self):
        if not (self.i_max >= self.i_min >= 0.0) or self.i_max <= 0.0:
            raise ValueError(
                f"need i_max >= i_min >= 0 and i_max > 0, got "
                f"i_max={self.i_max!r}, i_min={self.i_min!r}"
            )


@dataclass(frozen=True)
class ComplementarityReport:
    visibility_lower: float
    quantum_whichway: float
    classical_whichway_lower: float
    quantum_sum: float
    classical_sum: float
    quantum_inequality_satisfied: bool
    classical_sum_below_two: bool

    def as_dict(self) -> dict:
        return asdict(self)


def visibility_from_intensities(inputs: VisibilityInputs) -> float:
    """(i_max - i_min) / (i_max + i_min)."""
    return (inputs.i_max - inputs.i_min) / (inputs.i_max + inputs.i_min)


def _require(ok, values, message: str) -> None:
    """Raise DomainError naming the first of ``values`` where ``ok`` is false."""
    if not np.asarray(ok).all():
        bad = np.broadcast_to(values, np.shape(ok))[np.logical_not(ok)][0]
        raise DomainError(f"{message}, got {float(bad)!r}")


def _check_fractions(x, y) -> None:
    _require((0.0 < y) & (y < 1.0), y, "covered fraction must lie in (0, 1)")
    _require((0.0 <= x) & (x < 1.0), x, "absorbed fraction must lie in [0, 1)")


def worst_case_intensity_pair(
    absorbed: float, covered: float, photons: float, beam_area: float
) -> VisibilityInputs:
    """Flattest-pattern intensity pair consistent with the counts.

    The absorbed photons fill thin boxes of total area covered*beam_area,
    everything else spreads over the remainder, so
    i_min = x N / (y A) and i_max = (1 - x) N / ((1 - y) A).
    Units of ``beam_area`` are the caller's choice; they cancel in the
    visibility and set the scale of the reported intensities.
    """
    _check_fractions(absorbed, covered)
    return VisibilityInputs(
        i_max=(1.0 - absorbed) * photons / ((1.0 - covered) * beam_area),
        i_min=absorbed * photons / (covered * beam_area),
    )


def visibility_lower_bound(absorbed, covered):
    """Worst-case visibility from the absorbed (x) and covered (y) fractions.

    Equals visibility_from_intensities of the worst-case pair, evaluated as
    [(1-x)/(1-y) - x/y] / [(1-x)/(1-y) + x/y].  Requires the wires at the
    minima to absorb at most their uniform share (x/y <= (1-x)/(1-y)),
    otherwise the bound would go negative.  Elementwise; scalar fractions
    give a float.
    """
    x = np.asarray(absorbed, dtype=float)
    y = np.asarray(covered, dtype=float)
    _check_fractions(x, y)
    i_max = (1.0 - x) / (1.0 - y)
    i_min = x / y
    over = i_min > i_max
    if over.any():
        xb, yb = (np.broadcast_to(a, over.shape)[over][0] for a in (x, y))
        raise DomainError(
            f"absorbed fraction x={xb:g} exceeds the uniform share for y={yb:g}; "
            f"the square-profile visibility bound would be negative"
        )
    v = (i_max - i_min) / (i_max + i_min)
    return float(v) if v.ndim == 0 else v


def classical_whichway(absorbed):
    """Lower bound 1 - 2x on the classical which-way information.

    Out of every arm's photons, a fraction x is stopped and (by Babinet
    accounting) another x is diffracted with no path information left; the
    rest reach the detector with momentum intact.  Beyond x = 1/2 the
    undeflected count is exhausted and the bound is undefined.  Elementwise;
    a scalar fraction gives a float.
    """
    x = np.asarray(absorbed, dtype=float)
    _require(
        (0.0 <= x) & (x <= 0.5), x,
        "classical which-way bound needs absorbed fraction in [0, 1/2]",
    )
    k = 1.0 - 2.0 * x
    return float(k) if k.ndim == 0 else k


def quantum_whichway() -> float:
    """Which-way information of the symmetric setup: zero.

    With or without the grid both arms are identical (the grid straddles
    the crossing symmetrically), so the two paths stay indistinguishable.
    """
    return 0.0


def complementarity_report(
    quantum_k: float, classical_k: float, visibility: float
) -> ComplementarityReport:
    """Assemble both duality sums and their verdict flags."""
    for name, v in (
        ("quantum_k", quantum_k),
        ("classical_k", classical_k),
        ("visibility", visibility),
    ):
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {v!r}")
    quantum_sum = quantum_k**2 + visibility**2
    classical_sum = classical_k**2 + visibility**2
    return ComplementarityReport(
        visibility_lower=visibility,
        quantum_whichway=quantum_k,
        classical_whichway_lower=classical_k,
        quantum_sum=quantum_sum,
        classical_sum=classical_sum,
        quantum_inequality_satisfied=quantum_sum <= 1.0,
        classical_sum_below_two=classical_sum < 2.0,
    )


def fraction_report(absorbed: float, covered: float) -> ComplementarityReport:
    """Report from the absorbed (x) and covered (y) fractions of the grid.

    K = 0 by symmetry, K' >= 1 - 2x and V >= the worst-case bound; a DomainError
    names the broken condition when x exceeds 1/2 or its uniform share.
    """
    return complementarity_report(
        quantum_k=quantum_whichway(),
        classical_k=classical_whichway(absorbed),
        visibility=visibility_lower_bound(absorbed, covered),
    )


def grid_metrics(config: ExperimentConfig) -> ComplementarityReport:
    """Report for the configured wire thickness, K = 0 by symmetry."""
    return fraction_report(absorbed_fraction_two_beams(config), coverage_fraction(config))


class SweepRow(NamedTuple):
    """One wire thickness in a sweep; bound columns are lower bounds.

    ``classical_whichway_lower`` and the classical sum are None past the
    half-absorption point, with the reason in ``note``.  A named tuple, so
    ``row._asdict()`` gives the columns as a dict in field order.
    """

    wire_thickness: float
    absorbed: float
    covered: float
    visibility_lower: float
    visibility_sq: float
    quantum_sum: float
    classical_whichway_lower: float | None
    classical_sq: float | None
    classical_sum: float | None
    in_domain: bool
    note: str = ""


def sweep_thickness(config: ExperimentConfig, b_values) -> list[SweepRow]:
    """Evaluate x, y, V and K' bounds over a range of wire thicknesses.

    ``b_values`` must be non-empty and sorted strictly ascending (ValueError)
    and lie between thicknesses the config could hold (ConfigError from
    ``check_wire_thickness``); rows where the absorbed fraction exceeds 1/2
    are marked out-of-domain instead of raising.  Every column is computed
    in one elementwise pass, and the rows in one pass over their values.
    """
    b = np.fromiter(b_values, dtype=float)
    if not b.size:
        raise ValueError("b_values must not be empty")
    if (b[1:] <= b[:-1]).any():
        raise ValueError("b_values must be sorted strictly ascending")
    for edge in (b.min(), b.max()):  # a nan anywhere in b reaches both
        check_wire_thickness(float(edge), config.wire_pitch)
    x = absorbed_fraction_formula(b, config.wire_pitch, config.wire_count, config.beam_side)
    y = _coverage_formula(b, config.wire_count, config.beam_side)
    v = visibility_lower_bound(x, y)
    in_domain = x <= 0.5
    k = np.full_like(x, np.nan)
    k[in_domain] = classical_whichway(x[in_domain])
    v_sq, k_sq = v * v, k * k
    classical = (np.where(in_domain, c, None) for c in (k, k_sq, k_sq + v_sq))
    note = np.where(in_domain, "", "absorbed fraction exceeds 1/2; classical bound undefined")
    columns = (b, x, y, v, v_sq, quantum_whichway() ** 2 + v_sq, *classical, in_domain, note)
    return list(map(SweepRow._make, zip(*(c.tolist() for c in columns))))
