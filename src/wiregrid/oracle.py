"""Independent numerical checks of the closed forms in ``diffraction``.

``_cmd_validate`` imports this module, and ``crosscheck`` holds every check
that ``validate`` runs: the absorbed fraction against Simpson quadrature
(``absorbed_fraction_quadrature``), and the far fields against a
Fourier-integral quadrature over sampled aperture profiles
(``far_field_amplitude``).  Its grid (``_aperture_grid``) puts every strip
edge on a node and gives each node its share of a wire strip, so the fringe
field, its Babinet complement on the strips and the masked remainder are
products on one grid; the kernel is built once per distinct |q|, since
F(-q) = conj F(q) for a real field.  The sampled patterns
(``two_beam_pattern``, ``single_beam_strip_far_field``, ``band_power``) feed
no budget; they remain as references for the tests and the benchmark probe.
No subcommand but ``validate`` compiles this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .complementarity import absorbed_fraction_two_beams
from .config import ExperimentConfig, derive_geometry, wire_centers
from .diffraction import (
    _fringe_amplitude,
    _single_beam_amplitude,
    symmetric_grid_list,
    two_beam_grid_intensity,
)
from .errors import BandRangeError, SamplingError


@dataclass(frozen=True)
class DiffractionPattern:
    """Relative intensity sampled on a strictly increasing angular grid."""

    theta_samples: np.ndarray
    intensity_samples: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta_samples, dtype=float)
        inten = np.asarray(self.intensity_samples, dtype=float)
        if theta.ndim != 1 or theta.size < 3:
            raise ValueError("theta_samples must be a 1-D grid with at least 3 points")
        if inten.shape != theta.shape:
            raise ValueError("intensity_samples must match theta_samples in length")
        if not np.all(np.diff(theta) > 0):
            raise ValueError("theta_samples must be strictly increasing")
        if np.any(inten < 0) or not np.all(np.isfinite(inten)):
            raise ValueError("intensity samples must be finite and non-negative")
        object.__setattr__(self, "theta_samples", theta)
        object.__setattr__(self, "intensity_samples", inten)


@dataclass(frozen=True)
class FieldProfile:
    """Scalar field amplitude sampled across the beam aperture.

    ``wavelength`` rides along because the far-field transform needs the
    wavenumber.  Amplitudes are signed reals (scalar approximation); at each
    jump discontinuity the grid itself (``_aperture_grid``), not a search,
    places a node taking the half value, so composite trapezoid quadrature
    stays second-order accurate through it.
    """

    x_samples: np.ndarray
    amplitude_samples: np.ndarray
    wavelength: float

    def __post_init__(self):
        x = np.asarray(self.x_samples, dtype=float)
        amp = np.asarray(self.amplitude_samples, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("x_samples must be a 1-D grid with at least 2 points")
        if amp.shape != x.shape:
            raise ValueError("amplitude_samples must match x_samples in length")
        if not np.all(np.diff(x) > 0):
            raise ValueError("x_samples must be strictly increasing")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        object.__setattr__(self, "x_samples", x)
        object.__setattr__(self, "amplitude_samples", amp)


def symmetric_grid(half_range: float, n: int) -> np.ndarray:
    """``symmetric_grid_list`` as a numpy array."""
    return np.array(symmetric_grid_list(half_range, n))


# ---------------------------------------------------------------------------
# sampled field profiles
# ---------------------------------------------------------------------------

def _aperture_grid(config: ExperimentConfig, dx_gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-uniform aperture grid with every strip edge on a node, and
    each node's share of a wire strip: 1 inside, 1/2 on the two edge nodes.

    Each strip interior is sampled at least 64 times (128 by default) and the
    four nodes either side of an edge share the strip spacing, so the half
    value at the edge cancels the leading quadrature error.
    """
    b = config.wire_thickness
    n_strip = max(128, int(np.ceil(b / min(dx_gap, b / 128.0))))
    h = b / n_strip
    half_w = config.beam_side / 2.0
    lower_edge, strip = np.array([0.0, 0.0, 0.0, 0.5]), np.append(np.ones(n_strip - 1), 0.5)
    # (start, end, node count or None for the gap spacing, shares of the nodes after start)
    pieces, cursor = [], -half_w
    for xc in wire_centers(config):
        lo, hi = xc - b / 2.0, xc + b / 2.0
        pieces += [(cursor, lo - 4 * h, None, 0.0), (lo - 4 * h, lo, 4, lower_edge),
                   (lo, hi, n_strip, strip), (hi, hi + 4 * h, 4, 0.0)]
        cursor = hi + 4 * h
    pieces.append((cursor, half_w, None, 0.0))
    xs, shares = [np.array([-half_w])], [np.zeros(1)]
    for a, c, m, share in pieces:
        if m is None and c <= a:
            raise SamplingError("aperture segments overlap; wires too close to the beam edge")
        m = m or max(1, int(np.ceil((c - a) / dx_gap)))
        xs.append(np.linspace(a, c, m + 1)[1:])
        shares.append(np.broadcast_to(share, m))
    return np.concatenate(xs), np.concatenate(shares)


def _fringe_samples(config: ExperimentConfig, max_sin_theta: float) -> tuple[np.ndarray, ...]:
    """Aperture nodes, their strip shares and the fringe field cos(pi x / d);
    the gaps get 10 samples per integrand oscillation at ``max_sin_theta``
    and at least 64 per pitch."""
    d = config.wire_pitch
    x, share = _aperture_grid(config, min(config.wavelength / (10.0 * max_sin_theta), d / 64.0))
    return x, share, np.cos(np.pi * x / d)


def wire_strip_complement_profile(
    config: ExperimentConfig, max_sin_theta: float = 0.02
) -> FieldProfile:
    """Fringe field restricted to the wire strips (the Babinet complement).

    It shares the full fringe field's grid (``_fringe_samples``); subtracting
    it from that field node-for-node gives the field with the strips blacked out.
    """
    x, share, field = _fringe_samples(config, max_sin_theta)
    # where() keeps the off-strip zeros positive, as share * field would not
    return FieldProfile(x, np.where(share > 0.0, share * field, 0.0), config.wavelength)


# ---------------------------------------------------------------------------
# Fourier-integral oracle
# ---------------------------------------------------------------------------

_KERNEL_ROWS = 256


def _transform(x: np.ndarray, amp: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature of the aperture integral for each q.

    The trapezoid weights are folded into the amplitude once and nodes whose
    weighted amplitude is zero (masked parts of the aperture) are dropped, so
    the kernel spans only the profile's support.  The amplitude is real, so
    F(-q) = conj F(q): the kernel is built once per distinct |q| and each
    q < 0 takes the conjugate, which halves the work on a grid that negates
    bit-exactly (``symmetric_grid``).  The complex exponential is split into
    real cosine and sine products; chunks of ``_KERNEL_ROWS`` rows bound the
    kernel's memory.
    """
    dx = np.diff(x)
    weights = np.concatenate(([dx[0]], dx[:-1] + dx[1:], [dx[-1]])) / 2.0
    wa = weights * amp
    support = wa != 0.0
    xs, wa = x[support], wa[support]
    magnitude, mirror = np.unique(np.abs(q), return_inverse=True)
    rows = np.empty(magnitude.shape, dtype=complex)
    for i in range(0, len(magnitude), _KERNEL_ROWS):
        phase = np.outer(magnitude[i : i + _KERNEL_ROWS], xs)
        rows[i : i + _KERNEL_ROWS] = np.cos(phase) @ wa - 1j * (np.sin(phase) @ wa)
    out = rows[mirror]
    return np.where(q < 0, out.conj(), out)


def _check_sampling(profile: FieldProfile, max_abs_sin: float) -> None:
    if max_abs_sin <= 0:
        return
    dx_max = float(np.max(np.diff(profile.x_samples)))
    oscillation = profile.wavelength / max_abs_sin
    if dx_max > oscillation / 8.0:
        raise SamplingError(
            f"profile too coarse: max spacing {dx_max:.3g} m gives fewer than 8 "
            f"samples per integrand oscillation ({oscillation:.3g} m) at the "
            f"largest requested angle"
        )


def far_field_amplitude(profile: FieldProfile, theta_grid) -> np.ndarray:
    """Complex far-field amplitude integral E(theta) over the sampled profile."""
    theta = np.asarray(theta_grid, dtype=float)
    if theta.ndim != 1 or not np.all(np.diff(theta) > 0):
        raise ValueError("theta_grid must be 1-D and strictly increasing")
    s = np.sin(theta)
    _check_sampling(profile, float(np.max(np.abs(s))))
    kappa = 2.0 * math.pi / profile.wavelength
    return _transform(profile.x_samples, profile.amplitude_samples, kappa * s)


# ---------------------------------------------------------------------------
# sampled patterns
# ---------------------------------------------------------------------------

def two_beam_pattern(config: ExperimentConfig, samples_per_lobe: int = 64) -> DiffractionPattern:
    """Sample the closed-form pattern densely over its full power range.

    The range covers sin(theta) in +-20*lambda/b (clipped below 1), which
    holds all but ~1.5 % of the diffracted power for the reference-scale
    geometry; the remainder sits in the slowly decaying 1/theta^2 edge tail.
    """
    sin_theta_max = min(20.0 * config.wavelength / config.wire_thickness, 0.999)
    lobe = config.wavelength / (config.wire_count * config.wire_pitch)
    n = samples_per_lobe * int(np.ceil(2.0 * sin_theta_max / lobe)) + 1
    theta = np.arcsin(symmetric_grid(sin_theta_max, n))
    return DiffractionPattern(theta, two_beam_grid_intensity(theta, config))


def band_power(pattern: DiffractionPattern, theta_lo: float, theta_hi: float) -> float:
    """Fraction of the sampled pattern's power inside [theta_lo, theta_hi].

    Trapezoid integration in theta on the sampled grid, with partial end
    cells handled by linear interpolation.  The denominator is the integral
    over the whole sampled range, so the caller is responsible for sampling
    a range that captures the power it cares about; a warning is emitted
    when either outermost decile of the range still carries more than 2 % of
    the total (slowly decaying tail, totals not converged).
    """
    theta = pattern.theta_samples
    inten = pattern.intensity_samples
    if theta_lo >= theta_hi:
        raise BandRangeError("theta_lo must be strictly less than theta_hi")
    if theta_lo < theta[0] or theta_hi > theta[-1]:
        raise BandRangeError(
            f"band [{theta_lo:g}, {theta_hi:g}] exceeds the sampled range "
            f"[{theta[0]:g}, {theta[-1]:g}]"
        )
    total = float(np.trapezoid(inten, theta))
    if total <= 0:
        raise BandRangeError("pattern has no integrable power")

    span = theta[-1] - theta[0]
    for a, c in ((theta[0], theta[0] + 0.1 * span), (theta[-1] - 0.1 * span, theta[-1])):
        tail = _segment_integral(theta, inten, a, c)
        if tail > 0.02 * total:
            warnings.warn(
                "outermost decile of the sampled range carries "
                f"{tail / total:.2%} of the pattern power; totals may be "
                "truncated, widen the sampled range",
                stacklevel=2,
            )
            break
    return _segment_integral(theta, inten, theta_lo, theta_hi) / total


def _segment_integral(theta: np.ndarray, inten: np.ndarray, lo: float, hi: float) -> float:
    """Trapezoid integral over [lo, hi] with interpolated end points."""
    inner = (theta > lo) & (theta < hi)
    t = np.concatenate(([lo], theta[inner], [hi]))
    y_lo = np.interp(lo, theta, inten)
    y_hi = np.interp(hi, theta, inten)
    y = np.concatenate(([y_lo], inten[inner], [y_hi]))
    return float(np.trapezoid(y, t))


def _single_beam_theta_grid(config: ExperimentConfig, s_span: float) -> tuple[np.ndarray, float]:
    """Angular grid around the tilted beam axis: dense core, coarser tail."""
    s0 = math.sin(config.crossing_angle / 2.0)
    sinc_lobe = config.wavelength / config.beam_side
    core_half = config.crossing_angle + 2.0 * config.detector_half_width + 20.0 * sinc_lobe
    ds_fine = sinc_lobe / 64.0
    ds_coarse = sinc_lobe / 12.0
    s_max = max(s_span, 1.5 * core_half)
    core = np.arange(-core_half, core_half + ds_fine / 2.0, ds_fine)
    outer = np.arange(core_half + ds_coarse, s_max + ds_coarse, ds_coarse)
    rel = np.concatenate([-outer[::-1], core, outer])
    theta = np.arcsin(np.clip(rel + s0, -1.0, 1.0))
    return theta, s0


def single_beam_strip_far_field(config: ExperimentConfig) -> DiffractionPattern:
    """Far field of one beam's diffracted component alone (uniform field on strips).

    The beam propagates at +crossing_angle/2, so the pattern is centred on
    the detector at that angle; the grid covers at least +-5*lambda/b (capped
    at 0.2) around the beam axis.  This is the Babinet complement of the beam
    with the strips blacked out.
    """
    span = min(5.0 * config.wavelength / config.wire_thickness, 0.2)
    theta, s0 = _single_beam_theta_grid(config, span)
    q = (2.0 * math.pi / config.wavelength) * (np.sin(theta) - s0)
    return DiffractionPattern(theta, _single_beam_amplitude(config, q) ** 2)


# ---------------------------------------------------------------------------
# the checks behind ``wiregrid validate``
# ---------------------------------------------------------------------------

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
