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

``crosscheck`` holds the checks behind ``wiregrid validate``: each closed
form against an independent numerical route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .complementarity import absorbed_fraction_two_beams, coverage_fraction
from .config import ExperimentConfig, derive_geometry, wire_centers
from .diffraction import (
    _fringe_amplitude,
    _grid_intensity,
    _single_beam_amplitude,
    detector_windows,
    symmetric_grid,
    two_beam_grid_intensity,
)
from .errors import DomainError


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
    diffracted_to_detectors: float
    diffracted_away: float
    detected: float
    undisturbed_detected: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{f.name} must be a fraction in [0, 1], got {v!r}")
        if self.diffracted_to_detectors > self.absorbed + 1e-15:
            raise ValueError("diffracted_to_detectors cannot exceed absorbed, the diffracted total")
        residual = self.absorbed + self.diffracted_away + self.detected - 1.0
        if abs(residual) > 1e-12:
            raise ValueError(f"fates must sum to 1, off by {residual:g}")
        residual = self.detected - self.undisturbed_detected - self.diffracted_to_detectors
        if abs(residual) > 1e-15:
            raise ValueError(
                "detected must equal undisturbed_detected + diffracted_to_detectors, "
                f"off by {residual:g}"
            )

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


# Simpson nodes per wire strip; odd, so the panels pair up.
_SIMPSON_NODES = 4097


def absorbed_fraction_quadrature(config: ExperimentConfig) -> float:
    """Independent route to the absorbed fraction: composite-Simpson quadrature
    of the squared fringe field over each wire strip at its actual position,
    normalized by the same beam-average convention as the closed form.
    """
    d = config.wire_pitch
    half = config.wire_thickness / 2.0
    total = 0.0
    for xc in wire_centers(config):
        x = np.linspace(xc - half, xc + half, _SIMPSON_NODES)
        y = np.cos(np.pi * x / d) ** 2
        h = x[1] - x[0]
        total += h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
    return float(total / (config.beam_side / 2.0))


def _window_integrals(intensity, q_windows, config: ExperimentConfig) -> list[float]:
    """Integral of ``intensity(q)`` over each window [q_lo, q_hi], Gauss-Legendre
    on panels no wider than half an array lobe, pi / (M d).

    ``intensity`` is called once, on every window's nodes together.
    16 nodes per panel agree with 1/20-lobe panels to ~1e-13.
    """
    nodes, weights = _gauss_legendre_16()
    edges, halves, q = [0], [], []
    for q_lo, q_hi in q_windows:
        n = max(1, math.ceil((q_hi - q_lo) * config.wire_count * config.wire_pitch / math.pi))
        half = (q_hi - q_lo) / (2 * n)
        mids = q_lo + half * (2 * np.arange(n) + 1)
        edges.append(edges[-1] + n)
        halves.append(half)
        q.append((mids[:, None] + half * nodes).ravel())
    panels = intensity(np.concatenate(q)).reshape(-1, nodes.size)
    return [h * float((panels[a:b] @ weights).sum()) for h, a, b in zip(halves, edges, edges[1:])]


def _two_beam_total(config: ExperimentConfig) -> float:
    """Integral over all q of ``two_beam_grid_intensity``: pi W x / (4 k^2).

    The intensity is |F|^2 / (4 k^2), k = pi / d, for the fringe field on the
    strips, and by Parseval |F|^2 integrates to 2 pi times the squared field
    over the strips, which is W x / 2 for the absorbed fraction x.
    """
    k = math.pi / config.wire_pitch
    x = absorbed_fraction_two_beams(config)
    return math.pi * config.beam_side * x / (4.0 * k * k)


def _strip_total(config: ExperimentConfig) -> float:
    """Integral over all q of the squared single-beam strip amplitude: 2 pi M b."""
    return 2.0 * math.pi * config.wire_count * config.wire_thickness


def _window_shares(config: ExperimentConfig, intensity, total: float, windows, axis: float):
    """Share of the power ``total`` that ``intensity(q)`` puts in each angle window.

    A window (theta_lo, theta_hi) maps to q = kappa (sin(theta) - axis),
    measured from a beam axis at sin(theta) = axis, and its integral is
    divided by the Parseval total, so no pattern is sampled.
    """
    kappa = 2.0 * math.pi / config.wavelength
    q = [(kappa * (math.sin(lo) - axis), kappa * (math.sin(hi) - axis)) for lo, hi in windows]
    return [integral / total for integral in _window_integrals(intensity, q, config)]


def _two_beam_shares(config: ExperimentConfig, windows) -> list[float]:
    """Shares of the two-beam diffracted power in each angle window."""
    return _window_shares(
        config, lambda q: _grid_intensity(np.abs(q), config), _two_beam_total(config), windows, 0.0
    )


def band_fraction(config: ExperimentConfig, theta_lo: float, theta_hi: float) -> float:
    """Share of the two-beam diffracted power between theta_lo and theta_hi.

    The window integral of ``two_beam_grid_intensity`` in q = kappa sin(theta)
    over its Parseval total; DomainError unless |edges| < pi/2 and lo <= hi.
    """
    for name, theta in (("theta_lo", theta_lo), ("theta_hi", theta_hi)):
        if not abs(theta) < math.pi / 2:  # nan fails too
            raise DomainError(f"{name} must be finite with |{name}| < pi/2, got {theta!r}")
    if theta_lo > theta_hi:
        raise DomainError(f"theta_lo {theta_lo!r} must not exceed theta_hi {theta_hi!r}")
    return _two_beam_shares(config, [(theta_lo, theta_hi)])[0]


def detector_capture_fraction(config: ExperimentConfig) -> float:
    """Fraction of the two-beam diffracted light landing in either detector window."""
    return sum(_two_beam_shares(config, detector_windows(config)))


def two_beam_budget(config: ExperimentConfig) -> PhotonBudget:
    """Assemble the per-arm photon budget for the two-beam, grid-present case.

    The diffracted total equals the absorbed x (Babinet accounting), the
    diffracted share reaching any detector is x * capture, and detected
    photons are everything not absorbed and not diffracted away.
    """
    x = absorbed_fraction_two_beams(config)
    f_det = detector_capture_fraction(config)
    diffracted_away = x * (1.0 - f_det)
    detected = 1.0 - x - diffracted_away
    return PhotonBudget(
        absorbed=x,
        covered=coverage_fraction(config),
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
    y = coverage_fraction(config)
    s0 = math.sin(config.crossing_angle / 2.0)
    total = _strip_total(config)
    neg, pos = detector_windows(config)
    f_own, f_wrong = _window_shares(
        config, lambda q: _single_beam_amplitude(config, q) ** 2, total, (pos, neg), s0
    )
    return SingleBeamBudget(
        blocked=y,
        own_detector_decrease=y * (2.0 - f_own),
        wrong_detector=y * f_wrong,
        detector_half_width=config.detector_half_width,
    )


@dataclass(frozen=True)
class Check:
    """One cross-check: its name, whether it passed, and the measured figure."""

    name: str
    passed: bool
    detail: str


def crosscheck(config: ExperimentConfig) -> list[Check]:
    """Check each closed form against an independent route.

    Rows, in order, each with its pass condition:

    * ``fringe_pitch_match``: the fringe spacing lies within 1 % of the pitch;
    * ``absorbed_closed_vs_quadrature``: the closed-form absorbed fraction
      and its Simpson quadrature agree to 1e-10 relative;
    * ``fourier_oracle_vs_closed_form``: the quadrature intensity of the
      wire-strip complement matches ``two_beam_grid_intensity`` at its fixed
      scale 4 k^2, k = pi / d, normalised RMS below 1 %;
    * ``fringe_oracle_vs_closed_form``: the quadrature amplitude of the
      unmasked fringe field matches its closed form within 1e-3 of the peak.

    The fringe field is built once, and the grid's strip shares split it into
    the complement, share * field, and the masked rest, (1 - share) * field.
    Each is transformed on the 1501 angles of ``symmetric_grid`` over |theta|
    <= 2.5 mrad, whose samples negate bit-exactly, so ``_transform`` builds
    one kernel per distinct |q| (751).  The unmasked field's amplitude is the
    sum of the two, equal to its direct transform to rounding since the
    trapezoid rule is linear.
    """
    from .oracle import FieldProfile, _fringe_samples, far_field_amplitude  # so only validate loads it

    mismatch = derive_geometry(config).fringe_consistency
    checks = [
        Check(
            "fringe_pitch_match",
            mismatch <= 0.01,
            f"|fringe spacing - pitch| / pitch = {mismatch:.3g}",
        )
    ]

    x_closed = absorbed_fraction_two_beams(config)
    rel = abs(absorbed_fraction_quadrature(config) - x_closed) / x_closed
    checks.append(
        Check("absorbed_closed_vs_quadrature", rel < 1e-10, f"relative difference {rel:.3g}")
    )

    theta = symmetric_grid(0.0025, 1501)
    x, share, field = _fringe_samples(config, 0.0025)
    f_complement = far_field_amplitude(FieldProfile(x, share * field, config.wavelength), theta)
    masked = FieldProfile(x, (1.0 - share) * field, config.wavelength)
    f_full = f_complement + far_field_amplitude(masked, theta)

    k = math.pi / config.wire_pitch
    numeric = np.abs(f_complement) ** 2
    closed = 4.0 * k * k * two_beam_grid_intensity(theta, config)
    nrms = float(np.sqrt(np.mean((numeric - closed) ** 2)) / np.sqrt(np.mean(closed**2)))
    checks.append(Check("fourier_oracle_vs_closed_form", nrms < 0.01, f"normalized RMS {nrms:.3g}"))

    q = (2.0 * math.pi / config.wavelength) * np.sin(theta)
    closed_amp = _fringe_amplitude(config, q)
    deviation = float(np.max(np.abs(f_full - closed_amp)) / np.max(np.abs(closed_amp)))
    checks.append(
        Check(
            "fringe_oracle_vs_closed_form",
            deviation < 1e-3,
            f"max deviation {deviation:.3g} of peak",
        )
    )
    return checks
