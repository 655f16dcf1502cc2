"""Fringe visibility, which-way information, and the duality inequalities.

The wire grid absorbs a fraction x of each arm while covering a fraction y
of the beam (both closed forms live here, next to the bounds that use
them, so this module needs no pattern or budget); spreading the absorbed photons over dark strips of wire width
and the rest uniformly elsewhere gives the flattest interference pattern
consistent with the counts, hence a lower bound on the visibility.  The
classical which-way parameter tracks photons whose momentum was provably
untouched, bounded below by 1 - 2x.  ``truth_table`` sets the grid beside
the bare beams and the output beam splitter.

Each form runs on the module ``config.numeric`` picks for its argument.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import NamedTuple

from .config import ExperimentConfig, check_wire_thickness, loaded_numpy, numeric
from .errors import DomainError


@dataclass(frozen=True)
class ComplementarityReport:
    """V, K and K' with both duality sums and their verdicts.

    Built from the three bounds alone: each must lie in [0, 1] (DomainError,
    checked in the order K, K', V), and the sums K^2 + V^2 and K'^2 + V^2
    and their verdicts follow from them, so ``dataclasses.replace``
    recomputes them.
    """

    visibility_lower: float
    quantum_whichway: float
    classical_whichway_lower: float
    quantum_sum: float = field(init=False)
    classical_sum: float = field(init=False)
    quantum_inequality_satisfied: bool = field(init=False)
    classical_sum_below_two: bool = field(init=False)

    def __post_init__(self):
        for name in ("quantum_whichway", "classical_whichway_lower", "visibility_lower"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {v!r}")
        quantum_sum = _duality_sum(self.quantum_whichway, self.visibility_lower)
        classical_sum = _duality_sum(self.classical_whichway_lower, self.visibility_lower)
        object.__setattr__(self, "quantum_sum", quantum_sum)
        object.__setattr__(self, "classical_sum", classical_sum)
        object.__setattr__(self, "quantum_inequality_satisfied", quantum_sum <= 1.0)
        object.__setattr__(self, "classical_sum_below_two", classical_sum < 2.0)

    def as_dict(self) -> dict:
        return asdict(self)


def _duality_sum(whichway, visibility):
    """K^2 + V^2 for a which-way bound K and a visibility V, elementwise."""
    # products, as numpy squares an array: a float's ** calls libm pow, which can round apart
    return whichway * whichway + visibility * visibility


def _require(ok, message: str, *values) -> None:
    """Raise DomainError, ``message`` formatted by ``values`` where ``ok`` is first false."""
    np = numeric(ok)
    if ok is True or (np is not math and ok.all()):
        return
    if np is not math:
        bad = np.logical_not(ok)
        values = [np.broadcast_to(v, np.shape(ok))[bad][0] for v in values]
    raise DomainError(message.format(*map(float, values)))


def _coverage_formula(b, wire_count: int, beam_side: float):
    """M*b/W, elementwise in b."""
    return wire_count * b / beam_side


def coverage_fraction(config: ExperimentConfig) -> float:
    """Fraction of the beam cross section covered by the wires, M*b/W."""
    return _coverage_formula(config.wire_thickness, config.wire_count, config.beam_side)


def absorbed_fraction_formula(b, d: float, wire_count: int, beam_side: float):
    """Closed-form absorbed fraction for wires centred on dark fringes.

    Integral of the squared fringe field over the strips, divided by the
    beam-wide integral (average one half):
    M * (b/2 - (d / 2 pi) sin(pi b / d)) / (W / 2).
    Elementwise in b; a scalar b (int, float or 0-d array) gives a float.
    """
    per_wire = b / 2.0 - (d / (2.0 * math.pi)) * numeric(b).sin(math.pi * b / d)
    x = wire_count * per_wire / (beam_side / 2.0)
    return x if getattr(x, "ndim", 0) else float(x)


def absorbed_fraction_two_beams(config: ExperimentConfig) -> float:
    """Fraction of one arm's photons stopped by the wires with both beams on."""
    return absorbed_fraction_formula(
        config.wire_thickness, config.wire_pitch, config.wire_count, config.beam_side
    )


def _check_covered(y) -> None:
    _require((0.0 < y) & (y < 1.0), "covered fraction must lie in (0, 1), got {!r}", y)


def _check_absorbed(x) -> None:
    _require((0.0 <= x) & (x < 1.0), "absorbed fraction must lie in [0, 1), got {!r}", x)


def worst_case_intensity_pair(absorbed, covered, photons, beam_area):
    """Flattest-pattern intensity pair (i_min, i_max) consistent with the counts.

    The absorbed photons fill thin boxes of total area covered*beam_area,
    everything else spreads over the remainder, so
    i_min = x N / (y A) and i_max = (1 - x) N / ((1 - y) A).
    Units of ``beam_area`` are the caller's choice; they cancel in the
    visibility and set the scale of the reported intensities.  Elementwise:
    float fractions give floats and arrays give arrays.
    """
    x, y = absorbed, covered
    _check_covered(y)
    _check_absorbed(x)
    i_min = x * photons / (y * beam_area)
    i_max = (1.0 - x) * photons / ((1.0 - y) * beam_area)
    return i_min, i_max


def visibility_lower_bound(absorbed, covered):
    """Worst-case visibility from the absorbed (x) and covered (y) fractions.

    The visibility (i_max - i_min) / (i_max + i_min) of the worst-case pair
    per unit photons and area, i_min = x/y and i_max = (1-x)/(1-y).
    Requires the wires at the minima to absorb at most their uniform share
    (x/y <= (1-x)/(1-y)), otherwise the bound would go negative.
    Elementwise; float fractions give a float.
    """
    i_min, i_max = worst_case_intensity_pair(absorbed, covered, 1.0, 1.0)
    _require(
        i_min <= i_max,
        "absorbed fraction x={:g} exceeds the uniform share for y={:g}; "
        "the square-profile visibility bound would be negative",
        absorbed, covered,
    )
    return (i_max - i_min) / (i_max + i_min)


def classical_whichway(absorbed):
    """Lower bound 1 - 2x on the classical which-way information.

    Out of every arm's photons, a fraction x is stopped and (by Babinet
    accounting) another x is diffracted with no path information left; the
    rest reach the detector with momentum intact.  Beyond x = 1/2 the
    undeflected count is exhausted and the bound is undefined.  Elementwise;
    a float fraction gives a float.
    """
    _require(
        (0.0 <= absorbed) & (absorbed <= 0.5),
        "classical which-way bound needs absorbed fraction in [0, 1/2], got {!r}", absorbed,
    )
    return 1.0 - 2.0 * absorbed


def quantum_whichway() -> float:
    """Which-way information of the symmetric setup: zero.

    With or without the grid both arms are identical (the grid straddles
    the crossing symmetrically), so the two paths stay indistinguishable.
    """
    return 0.0


def fraction_report(absorbed: float, covered: float) -> ComplementarityReport:
    """Report from the absorbed (x) and covered (y) fractions of the grid.

    K = 0 by symmetry, K' >= 1 - 2x and V >= the worst-case bound; a DomainError
    names the broken condition when x exceeds 1/2 or its uniform share.
    """
    return ComplementarityReport(
        quantum_whichway=quantum_whichway(),
        classical_whichway_lower=classical_whichway(absorbed),
        visibility_lower=visibility_lower_bound(absorbed, covered),
    )


def grid_metrics(config: ExperimentConfig) -> ComplementarityReport:
    """Report for the configured wire thickness, K = 0 by symmetry."""
    return fraction_report(absorbed_fraction_two_beams(config), coverage_fraction(config))


class ScenarioReport(NamedTuple):
    """One row of the truth table: a configuration, its bounds and why.

    The wire grid and the output beam splitter are never combined: the grid
    probes the fringes in place, the splitter replaces the crossing.
    """

    scenario: str
    grid: bool
    output_beam_splitter: bool
    report: ComplementarityReport
    rationale: str

    @property
    def visibility_measured(self) -> bool:
        """Whether this configuration yields a visibility measurement at all."""
        return self.grid or self.output_beam_splitter


def truth_table(config: ExperimentConfig) -> list[ScenarioReport]:
    """(K, V, K') for the bare beams, the wire grid and the output splitter.

    Bare beams: paths identical so K = 0, V unmeasured and floored at 0,
    while a detector click plus momentum conservation traces the photon
    back to one mirror, K' = 1.  Grid in place: V is the measured lower
    bound from the absorbed and covered fractions and K' = 1 - 2x.  Output
    splitter: one detector goes silent, so V = 1 is measured, and the
    merged paths leave no way to extrapolate, K' = 0.
    """
    k = quantum_whichway()
    x, y = absorbed_fraction_two_beams(config), coverage_fraction(config)
    grid = fraction_report(x, y)
    return [
        ScenarioReport(
            "bare_beams", False, False,
            ComplementarityReport(visibility_lower=0.0, quantum_whichway=k, classical_whichway_lower=1.0),
            "bare crossed beams: V = 0 (unmeasured, assigned its floor); a click "
            "plus momentum conservation traces the path, K' = 1; identical arms, K = 0",
        ),
        ScenarioReport(
            "wire_grid", True, False, grid,
            f"wire grid at the dark fringes: measured visibility bound "
            f"V >= {grid.visibility_lower:.5f} from absorbed fraction x = {x:.6f} "
            f"and coverage y = {y:.5f}; undeflected photons keep their momentum, "
            f"K' >= {grid.classical_whichway_lower:.5f}; symmetric arms, K = 0",
        ),
        ScenarioReport(
            "output_splitter", False, True,
            ComplementarityReport(visibility_lower=1.0, quantum_whichway=k, classical_whichway_lower=0.0),
            "output beam splitter at the crossing: total destructive interference "
            "leaves one detector silent (which one depends on the phase convention), "
            "so V = 1 is measured; the merged paths cannot be extrapolated, K' = 0; K = 0",
        ),
    ]


class SweepRow(NamedTuple):
    """One wire thickness in a sweep; bound columns are lower bounds.

    ``classical_whichway_lower`` and the classical columns after it are None
    past the half-absorption point, with the reason in ``note``.  The field
    order is the ``sweep`` CSV column order, and ``row._asdict()`` is the
    printed row (the CLI shows the thickness in um).
    """

    wire_thickness: float
    absorbed: float
    covered: float
    visibility_lower: float
    classical_whichway_lower: float | None
    visibility_sq: float
    classical_sq: float | None
    quantum_sum: float
    classical_sum: float | None
    in_domain: bool
    note: str = ""


def sweep_thickness(config: ExperimentConfig, b_values) -> list[SweepRow]:
    """Evaluate x, y, V and K' bounds over a range of wire thicknesses.

    ``b_values`` must be non-empty and sorted strictly ascending (ValueError)
    and lie between thicknesses the config could hold (ConfigError from
    ``check_wire_thickness``); rows where the absorbed fraction exceeds 1/2
    are marked out-of-domain instead of raising.  x rises with b, up to
    rounding where b << d, so the in-domain rows lead: the classical columns
    cover them alone, padded with None, and each row is a tuple of SweepRow's
    fields in order.  Each function runs once over the whole array if numpy is
    loaded, else per row on ``math``, to the same bits and the same errors.
    """
    d, wires, side = config.wire_pitch, config.wire_count, config.beam_side
    if np := loaded_numpy():
        b = np.fromiter(b_values, dtype=float)
        each, nonzero, listed = (lambda f, *cols: f(*cols)), np.count_nonzero, np.ndarray.tolist
    else:
        b = [float(c) for c in b_values]
        each, nonzero, listed = (lambda f, *cols: [f(*row) for row in zip(*cols)]), sum, list
    if not len(b):
        raise ValueError("b_values must not be empty")
    if nonzero(each(operator.le, b[1:], b[:-1])):
        raise ValueError("b_values must be sorted strictly ascending")
    has_nan = nonzero(each(operator.ne, b, b))
    for edge in (b[0], b[-1]):  # as np.min and np.max, a nan anywhere in b reaches both
        check_wire_thickness(math.nan if has_nan else float(edge), d)
    x = each(lambda c: absorbed_fraction_formula(c, d, wires, side), b)
    y = each(lambda c: _coverage_formula(c, wires, side), b)
    try:
        v = each(visibility_lower_bound, x, y)
    except DomainError:  # per row, the first bad row raises; arrays check all y, then all x, first
        each(_check_covered, y)
        each(_check_absorbed, x)
        raise
    m = int(nonzero(each(lambda a: a <= 0.5, x)))
    k = each(classical_whichway, x[:m])  # raises if the in-domain rows were not a prefix
    pad = [None] * (len(b) - m)
    note = "absorbed fraction exceeds 1/2; classical bound undefined"
    k, k_sq, k_sum = (listed(c) + pad for c in (k, each(operator.mul, k, k), each(_duality_sum, k, v[:m])))
    q_sum = each(lambda c: _duality_sum(quantum_whichway(), c), v)
    b, x, y, v, v_sq, q_sum = map(listed, (b, x, y, v, each(operator.mul, v, v), q_sum))
    in_domain, notes = [True] * m + [False] * len(pad), [""] * m + [note] * len(pad)
    columns = (b, x, y, v, k, v_sq, k_sq, q_sum, k_sum, in_domain, notes)
    return list(map(tuple.__new__, repeat(SweepRow), zip(*columns)))
