"""Numerical toolkit for the crossed-beam wire-grid interference experiment.

Computes far-field diffraction patterns of a thin wire grid placed at the
dark fringes where two coherent beams cross, the resulting photon-fate
budgets, fringe-visibility and which-way bounds with their duality sums,
and seeded single-photon Monte Carlo tallies.
"""

__version__ = "0.1.0"

from .budget import (
    Check,
    PhotonBudget,
    SingleBeamBudget,
    absorbed_fraction_quadrature,
    absorbed_fraction_two_beams,
    band_fraction,
    coverage_fraction,
    crosscheck,
    detector_capture_fraction,
    single_beam_budget,
    two_beam_budget,
)
from .complementarity import (
    ComplementarityReport,
    ScenarioReport,
    SweepRow,
    classical_whichway,
    fraction_report,
    grid_metrics,
    quantum_whichway,
    sweep_thickness,
    truth_table,
    visibility_lower_bound,
    worst_case_intensity_pair,
)
from .config import (
    DEFAULTS,
    DerivedGeometry,
    ExperimentConfig,
    derive_geometry,
    validate_config,
    wire_centers,
)
from .diffraction import (
    DiffractionPattern,
    FieldProfile,
    band_power,
    detector_windows,
    far_field_amplitude,
    first_order_window,
    fringe_field_profile,
    single_beam_strip_far_field,
    symmetric_grid,
    two_beam_grid_intensity,
    two_beam_pattern,
    wire_strip_complement_profile,
)
from .errors import (
    BandRangeError,
    ConfigError,
    ConfigParseError,
    DomainError,
    SamplingError,
    WiregridError,
)
from .montecarlo import (
    EmpiricalMetrics,
    FateCounts,
    estimate_metrics,
    photon_uniforms,
    sample_fates,
)
