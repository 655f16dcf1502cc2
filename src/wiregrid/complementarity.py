"""Fringe visibility, which-way information, and the duality inequalities.

The wire grid absorbs a fraction x of each arm while covering a fraction y
of the beam; spreading the absorbed photons over dark strips of wire width
and the rest uniformly elsewhere gives the flattest interference pattern
consistent with the counts, hence a lower bound on the visibility.  The
classical which-way parameter tracks photons whose momentum was provably
untouched, bounded below by 1 - 2x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import absorbed_fraction_two_beams, coverage_fraction
from .config import ExperimentConfig, validate_config
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
        return {
            "visibility_lower": self.visibility_lower,
            "quantum_whichway": self.quantum_whichway,
            "classical_whichway_lower": self.classical_whichway_lower,
            "quantum_sum": self.quantum_sum,
            "classical_sum": self.classical_sum,
            "quantum_inequality_satisfied": self.quantum_inequality_satisfied,
            "classical_sum_below_two": self.classical_sum_below_two,
        }


def visibility_from_intensities(inputs: VisibilityInputs) -> float:
    """(i_max - i_min) / (i_max + i_min)."""
    return (inputs.i_max - inputs.i_min) / (inputs.i_max + inputs.i_min)


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
    if not (0.0 < covered < 1.0):
        raise DomainError(f"covered fraction must lie in (0, 1), got {covered!r}")
    if not (0.0 <= absorbed < 1.0):
        raise DomainError(f"absorbed fraction must lie in [0, 1), got {absorbed!r}")
    return VisibilityInputs(
        i_max=(1.0 - absorbed) * photons / ((1.0 - covered) * beam_area),
        i_min=absorbed * photons / (covered * beam_area),
    )


def visibility_lower_bound(absorbed: float, covered: float) -> float:
    """Worst-case visibility from the absorbed (x) and covered (y) fractions.

    Equals visibility_from_intensities of the worst-case pair, evaluated as
    [(1-x)/(1-y) - x/y] / [(1-x)/(1-y) + x/y].  Requires the wires at the
    minima to absorb at most their uniform share (x/y <= (1-x)/(1-y)),
    otherwise the bound would go negative.
    """
    x, y = absorbed, covered
    if not (0.0 < y < 1.0):
        raise DomainError(f"covered fraction must lie in (0, 1), got {y!r}")
    if not (0.0 <= x < 1.0):
        raise DomainError(f"absorbed fraction must lie in [0, 1), got {x!r}")
    i_max = (1.0 - x) / (1.0 - y)
    i_min = x / y
    if i_min > i_max:
        raise DomainError(
            f"absorbed fraction x={x:g} exceeds the uniform share for y={y:g}; "
            f"the square-profile visibility bound would be negative"
        )
    return (i_max - i_min) / (i_max + i_min)


def classical_whichway(absorbed: float) -> float:
    """Lower bound 1 - 2x on the classical which-way information.

    Out of every arm's photons, a fraction x is stopped and (by Babinet
    accounting) another x is diffracted with no path information left; the
    rest reach the detector with momentum intact.  Beyond x = 1/2 the
    undeflected count is exhausted and the bound is undefined.
    """
    x = absorbed
    if not (0.0 <= x <= 0.5):
        raise DomainError(
            f"classical which-way bound needs absorbed fraction in [0, 1/2], got {x!r}"
        )
    return 1.0 - 2.0 * x


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


def grid_metrics(config: ExperimentConfig) -> ComplementarityReport:
    """Report for the configured wire thickness, K = 0 by symmetry."""
    validate_config(config)
    x = absorbed_fraction_two_beams(config)
    y = coverage_fraction(config)
    return complementarity_report(
        quantum_k=quantum_whichway(),
        classical_k=classical_whichway(x),
        visibility=visibility_lower_bound(x, y),
    )


@dataclass(frozen=True)
class SweepRow:
    """One wire thickness in a sweep; bound columns are lower bounds.

    ``classical_whichway_lower`` and the classical sum are None past the
    half-absorption point, with the reason in ``note``.
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

    ``b_values`` must be sorted ascending and lie strictly inside
    (0, wire_pitch); rows where the absorbed fraction exceeds 1/2 are
    marked out-of-domain instead of raising.
    """
    validate_config(config)
    b_values = list(b_values)
    if any(b2 <= b1 for b1, b2 in zip(b_values, b_values[1:])):
        raise ValueError("b_values must be sorted strictly ascending")
    if not b_values or b_values[0] <= 0 or b_values[-1] >= config.wire_pitch:
        raise ValueError(
            f"b_values must lie strictly inside (0, wire_pitch={config.wire_pitch:g})"
        )
    rows = []
    for b in b_values:
        cfg = validate_config(config.replace(wire_thickness=b))
        x = absorbed_fraction_two_beams(cfg)
        y = coverage_fraction(cfg)
        v = visibility_lower_bound(x, y)
        in_domain = bool(x <= 0.5)  # x may be a numpy scalar; reports want a plain bool
        k = classical_whichway(x) if in_domain else None
        note = "" if in_domain else "absorbed fraction exceeds 1/2; classical bound undefined"
        rows.append(
            SweepRow(
                wire_thickness=b,
                absorbed=x,
                covered=y,
                visibility_lower=v,
                visibility_sq=v * v,
                quantum_sum=v * v,
                classical_whichway_lower=k,
                classical_sq=None if k is None else k * k,
                classical_sum=None if k is None else k * k + v * v,
                in_domain=in_domain,
                note=note,
            )
        )
    return rows
