"""Discrete measurement scenarios and their (K, V, K') assignments.

Three configurations are distinguished: the bare crossed beams, the beams
probed by the wire grid, and the delayed-choice variant with a 50:50
output beam splitter at the crossing.  Visibility that is not measured is
assigned its floor of zero, and the rationale text says which kind of zero
it is so downstream tables stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import absorbed_fraction_two_beams, coverage_fraction
from .complementarity import ComplementarityReport, fraction_report, quantum_whichway
from .config import ExperimentConfig


@dataclass(frozen=True)
class Scenario:
    """Measurement configuration flags.

    The wire grid and the output beam splitter are never combined; the
    grid probes the fringes in place, the splitter replaces the crossing.
    """

    grid: bool
    output_beam_splitter: bool

    def __post_init__(self):
        if self.grid and self.output_beam_splitter:
            raise ValueError("grid and output beam splitter are mutually exclusive")

    @property
    def visibility_measured(self) -> bool:
        """Whether this configuration yields a visibility measurement at all."""
        return self.grid or self.output_beam_splitter


BARE = Scenario(grid=False, output_beam_splitter=False)
GRID = Scenario(grid=True, output_beam_splitter=False)
SPLITTER = Scenario(grid=False, output_beam_splitter=True)


@dataclass(frozen=True)
class ScenarioReport:
    scenario: Scenario
    report: ComplementarityReport
    rationale: str


def evaluate_scenario(scenario: Scenario, config: ExperimentConfig) -> ScenarioReport:
    """Assign (K, V, K') for one scenario.

    Bare beams: paths identical so K = 0, V unmeasured and floored at 0,
    while a detector click plus momentum conservation traces the photon
    back to one mirror, K' = 1.  Grid in place: V is the measured lower
    bound from the absorbed and covered fractions and K' = 1 - 2x.  Output
    splitter: one detector goes silent, so V = 1 is measured, and the
    merged paths leave no way to extrapolate, K' = 0.
    """
    k_quantum = quantum_whichway()
    if scenario.grid:
        x = absorbed_fraction_two_beams(config)
        y = coverage_fraction(config)
        report = fraction_report(x, y)
        rationale = (
            f"wire grid at the dark fringes: measured visibility bound "
            f"V >= {report.visibility_lower:.5f} from absorbed fraction x = {x:.6f} "
            f"and coverage y = {y:.5f}; undeflected photons keep their momentum, "
            f"K' >= {report.classical_whichway_lower:.5f}; symmetric arms, K = 0"
        )
    elif scenario.output_beam_splitter:
        report = ComplementarityReport(
            quantum_whichway=k_quantum, classical_whichway_lower=0.0, visibility_lower=1.0
        )
        rationale = (
            "output beam splitter at the crossing: total destructive interference "
            "leaves one detector silent (which one depends on the phase convention), "
            "so V = 1 is measured; the merged paths cannot be extrapolated, K' = 0; K = 0"
        )
    else:
        report = ComplementarityReport(
            quantum_whichway=k_quantum, classical_whichway_lower=1.0, visibility_lower=0.0
        )
        rationale = (
            "bare crossed beams: V = 0 (unmeasured, assigned its floor); a click "
            "plus momentum conservation traces the path, K' = 1; identical arms, K = 0"
        )
    return ScenarioReport(scenario=scenario, report=report, rationale=rationale)


def truth_table(config: ExperimentConfig) -> list[ScenarioReport]:
    """The three canonical scenarios in order: bare, grid, splitter."""
    return [evaluate_scenario(s, config) for s in (BARE, GRID, SPLITTER)]
