"""Numerical toolkit for the crossed-beam wire-grid interference experiment.

Computes far-field diffraction patterns of a thin wire grid placed at the
dark fringes where two coherent beams cross, the resulting photon-fate
budgets, fringe-visibility and which-way bounds with their duality sums,
and seeded single-photon Monte Carlo tallies.

Each public name is imported from its module on first use (PEP 562), so
``import wiregrid`` loads no submodule and a caller pays only for the
modules whose names it reads: the closed forms (``diffraction``) load no
numpy, and the checks behind ``wiregrid validate`` (``oracle``) load only
for their own names.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "budget": (
        "PhotonBudget", "SingleBeamBudget", "band_fraction", "detector_capture_fraction",
        "single_beam_budget", "two_beam_budget",
    ),
    "complementarity": (
        "ComplementarityReport", "ScenarioReport", "SweepRow", "absorbed_fraction_two_beams",
        "classical_whichway", "coverage_fraction", "fraction_report", "grid_metrics",
        "quantum_whichway", "sweep_thickness", "truth_table", "visibility_lower_bound",
        "worst_case_intensity_pair",
    ),
    "config": (
        "DEFAULTS", "DerivedGeometry", "ExperimentConfig", "derive_geometry",
        "validate_config", "wire_centers",
    ),
    "diffraction": ("detector_windows", "first_order_window", "two_beam_grid_intensity"),
    "errors": (
        "ConfigError", "ConfigParseError", "DomainError", "SamplingError", "WiregridError",
    ),
    "montecarlo": (
        "EmpiricalMetrics", "FateCounts", "estimate_metrics", "photon_uniforms", "sample_fates",
    ),
    "oracle": (
        "Check", "absorbed_fraction_quadrature", "band_power", "crosscheck",
        "far_field_amplitude", "single_beam_strip_far_field", "symmetric_grid",
        "two_beam_pattern", "wire_strip_complement_profile",
    ),
}
# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
