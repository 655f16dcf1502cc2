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

import math

from .complementarity import absorbed_fraction_two_beams, classical_whichway, coverage_fraction
from .config import ExperimentConfig, _record, loaded_numpy
from .diffraction import _grid_intensity, _single_beam_amplitude, detector_windows
from .errors import DomainError, SamplingError


# 16-point Gauss-Legendre nodes and weights on [-1, 1]: numpy's leggauss(16) to the bit.
_GL_NODES = (
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL_WEIGHTS = (
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)

# 2000 wires at the reference optics need 64,000 window nodes per budget, a window
# out to |theta| near pi/2 on the reference grid 95,760; 1e-300 m light, 1.2e296.
_MAX_WINDOW_NODES = 2**20


def _fractions(budget):
    """``budget``, if each of its fields is a fraction in [0, 1]; else ValueError."""
    for name, v in zip(budget._fields, budget):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must be a fraction in [0, 1], got {v!r}")
    return budget


class PhotonBudget(_record("PhotonBudget", (
    "absorbed", "covered", "diffracted_to_detectors", "diffracted_away", "detected",
    "undisturbed_detected",
))):
    """Normalized photon fates per source arm, two beams on, grid in place."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _fractions(super().__new__(cls, *args, **kwargs))
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
        return self

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


class SingleBeamBudget(_record("SingleBeamBudget", "blocked own_detector_decrease wrong_detector")):
    """Photon fates for one beam alone (uniform illumination of the grid)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = _fractions(super().__new__(cls, *args, **kwargs))
        if self.own_detector_decrease < self.blocked - 1e-12:
            raise ValueError("own_detector_decrease must include at least the blocked share")
        return self


def _window_integrals(intensity, q_windows, config: ExperimentConfig) -> list[float]:
    """Integral of ``intensity(q)`` over each window [q_lo, q_hi], Gauss-Legendre
    on panels no wider than half an array lobe, pi / (M d).

    ``intensity`` runs on all nodes as one array if numpy is loaded, else per
    node, and ``math.fsum`` sums each window either way.  16 nodes per panel
    agree with 1/20-lobe panels to ~1e-13.  More than ``_MAX_WINDOW_NODES``
    nodes in all are refused with a ``SamplingError``, counted before any is built.
    """
    panels = [
        max(1, math.ceil((q_hi - q_lo) * config.wire_count * config.wire_pitch / math.pi))
        for q_lo, q_hi in q_windows
    ]
    if (nodes := 16 * sum(panels)) > _MAX_WINDOW_NODES:
        raise SamplingError(f"window quadrature needs {nodes} nodes, above the cap of {_MAX_WINDOW_NODES}")
    spans, q = [], []
    for (q_lo, q_hi), n in zip(q_windows, panels):
        half = (q_hi - q_lo) / (2 * n)
        offsets = [half * t for t in _GL_NODES]
        mids = [q_lo + half * (2 * i + 1) for i in range(n)]
        q += [mid + u for mid in mids for u in offsets]
        spans.append((half, len(q) - 16 * n, len(q)))
    if np := loaded_numpy():
        weighted = (intensity(np.fromiter(q, float)).reshape(-1, 16) * _GL_WEIGHTS).ravel().tolist()
    else:
        weighted = [intensity(x) * w for x, w in zip(q, _GL_WEIGHTS * (len(q) // 16))]
    return [h * math.fsum(weighted[a:b]) for h, a, b in spans]


def _two_beam_total(config: ExperimentConfig, x: float) -> float:
    """Integral over all q of ``two_beam_grid_intensity``: pi W x / (4 k^2).

    The intensity is |F|^2 / (4 k^2), k = pi / d, for the fringe field on the
    strips, and by Parseval |F|^2 integrates to 2 pi times the squared field
    over the strips, which is W x / 2 for the absorbed fraction x.
    """
    k = math.pi / config.wire_pitch
    return math.pi * config.beam_side * x / (4.0 * k * k)


def _strip_total(config: ExperimentConfig) -> float:
    """Integral over all q of the squared single-beam strip amplitude: 2 pi M b."""
    return 2.0 * math.pi * config.wire_count * config.wire_thickness


def _window_shares(config: ExperimentConfig, intensity, total: float, windows, axis: float):
    """Share of the power ``total`` that ``intensity(q)`` puts in each angle window.

    A window (theta_lo, theta_hi) maps to q = kappa (sin(theta) - axis),
    measured from a beam axis at sin(theta) = axis, and its integral is
    divided by the Parseval total, so no pattern is sampled; DomainError if
    that total rounds to 0.
    """
    if total == 0.0:
        raise DomainError("the grid diffracts no power: its total over all q rounds to 0")
    kappa = 2.0 * math.pi / config.wavelength
    q = [(kappa * (math.sin(lo) - axis), kappa * (math.sin(hi) - axis)) for lo, hi in windows]
    return [integral / total for integral in _window_integrals(intensity, q, config)]


def _two_beam_shares(config: ExperimentConfig, windows, total: float) -> list[float]:
    """Shares of the two-beam diffracted power ``total`` in each angle window."""
    return _window_shares(config, lambda q: _grid_intensity(abs(q), config), total, windows, 0.0)


def band_fraction(config: ExperimentConfig, theta_lo: float, theta_hi: float) -> float:
    """Share of the two-beam diffracted power between theta_lo and theta_hi.

    The window integral of ``two_beam_grid_intensity`` in q = kappa sin(theta)
    over its Parseval total; DomainError unless |edges| < pi/2, lo <= hi and
    the grid diffracts some power.
    """
    for name, theta in (("theta_lo", theta_lo), ("theta_hi", theta_hi)):
        if not abs(theta) < math.pi / 2:  # nan fails too
            raise DomainError(f"{name} must be finite with |{name}| < pi/2, got {theta!r}")
    if theta_lo > theta_hi:
        raise DomainError(f"theta_lo {theta_lo!r} must not exceed theta_hi {theta_hi!r}")
    total = _two_beam_total(config, absorbed_fraction_two_beams(config))
    return _two_beam_shares(config, [(theta_lo, theta_hi)], total)[0]


def detector_capture_fraction(config: ExperimentConfig) -> float:
    """Share of the two-beam diffracted light in either detector window; DomainError if none."""
    total = _two_beam_total(config, absorbed_fraction_two_beams(config))
    return sum(_two_beam_shares(config, detector_windows(config), total))


def two_beam_budget(config: ExperimentConfig) -> PhotonBudget:
    """Assemble the per-arm photon budget for the two-beam, grid-present case.

    The diffracted total equals the absorbed x (Babinet accounting), the
    diffracted share reaching any detector is x * capture, and detected
    photons are everything not absorbed and not diffracted away.  Where the
    diffracted power rounds to 0 no share of it reaches a detector; beyond
    x = 1/2 the undisturbed share 1 - 2x is undefined (DomainError).
    """
    x = absorbed_fraction_two_beams(config)
    undisturbed = classical_whichway(x)
    total = _two_beam_total(config, x)
    f_det = sum(_two_beam_shares(config, detector_windows(config), total)) if total else 0.0
    diffracted_away = x * (1.0 - f_det)
    detected = 1.0 - x - diffracted_away
    return PhotonBudget(
        absorbed=x,
        covered=coverage_fraction(config),
        diffracted_to_detectors=x * f_det,
        diffracted_away=diffracted_away,
        detected=detected,
        undisturbed_detected=undisturbed,
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
    f_own, f_wrong = _window_shares(  # a product, as numpy squares: a float's ** calls pow
        config, lambda q: (a := _single_beam_amplitude(config, q)) * a, total, (pos, neg), s0
    )
    return SingleBeamBudget(
        blocked=y,
        own_detector_decrease=y * (2.0 - f_own),
        wrong_detector=y * f_wrong,
    )
