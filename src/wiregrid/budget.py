"""Photon-fate budgets for the grid-present setups.

Bookkeeping convention: the absorbed fraction equals the diffracted
fraction (Babinet accounting for thin absorbing strips), the diffracted
light is partitioned by the share of the diffracted-component pattern that
falls in each detector window, and the unscattered beams are tracked
separately.  The three exclusive fates absorbed / diffracted-away /
detected sum to one exactly.

A detector share is the integral of the closed-form intensity over the
window's range of q = kappa sin(theta) (measured from the beam axis for a
single beam), divided by the pattern's total power over all q.  By
Parseval that total is 2 pi times the squared aperture field integrated
over the strips (times the pattern's fixed scale), a closed form, so no
pattern is sampled and the share does not depend on any sampled range.
The window integral is composite Gauss-Legendre quadrature on panels of
half an array lobe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, validate_config, wire_centers
from .diffraction import _grid_intensity, _single_beam_amplitude, detector_windows


@functools.cache
def _gauss_legendre_16() -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes and weights on [-1, 1].

    Built by the first budget rather than at import: ``numpy.polynomial``
    and the LAPACK eigensolver behind ``leggauss`` would otherwise load into
    every process that imports this module (about 1.3 MB more resident
    memory in ``wiregrid validate``).
    """
    from numpy.polynomial.legendre import leggauss

    return leggauss(16)


@dataclass(frozen=True)
class PhotonBudget:
    """Normalized photon fates per source arm, two beams on, grid in place."""

    absorbed: float
    covered: float
    diffracted_total: float
    diffracted_to_detectors: float
    diffracted_away: float
    detected: float
    undisturbed_detected: float

    def __post_init__(self):
        for name in (
            "absorbed",
            "covered",
            "diffracted_total",
            "diffracted_to_detectors",
            "diffracted_away",
            "detected",
            "undisturbed_detected",
        ):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a fraction in [0, 1], got {v!r}")
        if self.diffracted_to_detectors > self.diffracted_total + 1e-15:
            raise ValueError("diffracted_to_detectors cannot exceed diffracted_total")
        if self.undisturbed_detected > self.detected + 1e-15:
            raise ValueError("undisturbed_detected cannot exceed detected")
        residual = self.absorbed + self.diffracted_away + self.detected - 1.0
        if abs(residual) > 1e-12:
            raise ValueError(f"fates must sum to 1, off by {residual:g}")

    def fate_probabilities(self) -> tuple[float, float, float, float]:
        """(undisturbed-detected, absorbed, diffracted-away, diffracted-to-detector)."""
        return (
            self.undisturbed_detected,
            self.absorbed,
            self.diffracted_away,
            self.diffracted_to_detectors,
        )

    def expected_counts(self, n: int) -> dict[str, float]:
        """Mean counts out of ``n`` photons; detected includes diffracted-in."""
        return {
            "detected": self.detected * n,
            "absorbed": self.absorbed * n,
            "diffracted_away": self.diffracted_away * n,
            "diffracted_to_detectors": self.diffracted_to_detectors * n,
        }


@dataclass(frozen=True)
class SingleBeamBudget:
    """Photon fates for one beam alone (uniform illumination of the grid).

    ``detector_half_width`` echoes the window the band fractions were taken
    over, because the decrease numbers are calibration-sensitive to it.
    """

    blocked: float
    own_detector_decrease: float
    wrong_detector: float
    detector_half_width: float

    def __post_init__(self):
        for name in ("blocked", "own_detector_decrease", "wrong_detector"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a fraction in [0, 1], got {v!r}")
        if self.own_detector_decrease < self.blocked - 1e-12:
            raise ValueError("own_detector_decrease must include at least the blocked share")


def coverage_fraction(config: ExperimentConfig) -> float:
    """Fraction of the beam cross section covered by the wires, M*b/W."""
    validate_config(config)
    return config.wire_count * config.wire_thickness / config.beam_side


def absorbed_fraction_formula(b: float, d: float, wire_count: int, beam_side: float) -> float:
    """Closed-form absorbed fraction for wires centred on dark fringes.

    Integral of the squared fringe field over the strips, divided by the
    beam-wide integral (average one half):
    M * (b/2 - (d / 2 pi) sin(pi b / d)) / (W / 2).
    """
    per_wire = b / 2.0 - (d / (2.0 * math.pi)) * math.sin(math.pi * b / d)
    return wire_count * per_wire / (beam_side / 2.0)


def absorbed_fraction_two_beams(config: ExperimentConfig) -> float:
    """Fraction of one arm's photons stopped by the wires with both beams on."""
    validate_config(config)
    return absorbed_fraction_formula(
        config.wire_thickness, config.wire_pitch, config.wire_count, config.beam_side
    )


def absorbed_fraction_small_b(config: ExperimentConfig) -> float:
    """Leading cubic law M pi^2 b^3 / (6 d^2 W), for diagnostics."""
    validate_config(config)
    return (
        config.wire_count
        * math.pi**2
        * config.wire_thickness**3
        / (6.0 * config.wire_pitch**2 * config.beam_side)
    )


def absorbed_fraction_quadrature(config: ExperimentConfig, samples_per_strip: int = 4097) -> float:
    """Independent route to the absorbed fraction: composite-Simpson quadrature
    of the squared fringe field over each wire strip at its actual position,
    normalized by the same beam-average convention as the closed form.
    """
    validate_config(config)
    if samples_per_strip % 2 == 0:
        samples_per_strip += 1
    d = config.wire_pitch
    half = config.wire_thickness / 2.0
    total = 0.0
    for xc in wire_centers(config):
        x = np.linspace(xc - half, xc + half, samples_per_strip)
        y = np.cos(np.pi * x / d) ** 2
        h = x[1] - x[0]
        total += h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
    return total / (config.beam_side / 2.0)


def _window_integral(intensity, q_lo: float, q_hi: float, config: ExperimentConfig) -> float:
    """Integral of ``intensity(q)`` over [q_lo, q_hi], Gauss-Legendre on panels
    no wider than half an array lobe, pi / (M d).

    16 nodes per panel agree with 1/20-lobe panels to ~1e-13.
    """
    nodes, weights = _gauss_legendre_16()
    n = max(1, math.ceil((q_hi - q_lo) * config.wire_count * config.wire_pitch / math.pi))
    half = (q_hi - q_lo) / (2 * n)
    mids = q_lo + half * (2 * np.arange(n) + 1)
    q = (mids[:, None] + half * nodes).ravel()
    return half * float((intensity(q).reshape(n, -1) @ weights).sum())


def _two_beam_total(config: ExperimentConfig) -> float:
    """Integral over all q of ``two_beam_grid_intensity``: M pi b^3 / 24.

    The intensity is (1/4)|F|^2 for the linear field ramp u across each
    wire, so by Parseval it integrates to (2 pi / 4) M b^3 / 12.
    """
    return config.wire_count * math.pi * config.wire_thickness**3 / 24.0


def _strip_total(config: ExperimentConfig) -> float:
    """Integral over all q of the squared single-beam strip amplitude: 2 pi M b."""
    return 2.0 * math.pi * config.wire_count * config.wire_thickness


def detector_capture_fraction(config: ExperimentConfig) -> float:
    """Fraction of the two-beam diffracted light landing in either detector window."""
    validate_config(config)
    kappa = 2.0 * math.pi / config.wavelength

    def intensity(q):
        return _grid_intensity(np.abs(q), config)

    power = sum(
        _window_integral(intensity, kappa * math.sin(lo), kappa * math.sin(hi), config)
        for lo, hi in detector_windows(config)
    )
    return power / _two_beam_total(config)


def two_beam_budget(config: ExperimentConfig) -> PhotonBudget:
    """Assemble the per-arm photon budget for the two-beam, grid-present case.

    absorbed = diffracted_total = x (Babinet accounting), the diffracted
    share reaching any detector is x * capture, and detected photons are
    everything not absorbed and not diffracted away.
    """
    x = absorbed_fraction_two_beams(config)
    f_det = detector_capture_fraction(config)
    diffracted_away = x * (1.0 - f_det)
    detected = 1.0 - x - diffracted_away
    return PhotonBudget(
        absorbed=x,
        covered=coverage_fraction(config),
        diffracted_total=x,
        diffracted_to_detectors=x * f_det,
        diffracted_away=diffracted_away,
        detected=detected,
        undisturbed_detected=1.0 - 2.0 * x,
    )


def single_beam_budget(config: ExperimentConfig) -> SingleBeamBudget:
    """Photon fates for a single uniformly illuminating beam.

    A uniform beam loses its geometric coverage y to absorption and, by
    Babinet accounting, diffracts the same share again; the diffracted
    component's window fractions decide how much of it returns to the own
    detector or strays into the wrong one:

        own_detector_decrease = y * (2 - f_own)
        wrong_detector        = y * f_wrong

    The fractions come from the diffracted-component (strip) amplitude
    rather than the coherent masked far field, so the square beam's own
    sidelobe leakage does not masquerade as grid scatter.  Each is the
    window integral of that intensity in q = kappa (sin(theta) - sin(alpha/2))
    over its Parseval total.
    """
    validate_config(config)
    y = coverage_fraction(config)
    kappa = 2.0 * math.pi / config.wavelength
    s0 = math.sin(config.crossing_angle / 2.0)
    total = _strip_total(config)

    def intensity(q):
        return _single_beam_amplitude(config, q, keep_strips=True) ** 2

    def fraction(window):
        lo, hi = window
        q_lo, q_hi = kappa * (math.sin(lo) - s0), kappa * (math.sin(hi) - s0)
        return _window_integral(intensity, q_lo, q_hi, config) / total

    neg, pos = detector_windows(config)
    f_own, f_wrong = fraction(pos), fraction(neg)
    return SingleBeamBudget(
        blocked=y,
        own_detector_decrease=y * (2.0 - f_own),
        wrong_detector=y * f_wrong,
        detector_half_width=config.detector_half_width,
    )
