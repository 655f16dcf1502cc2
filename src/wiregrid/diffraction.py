"""Far-field diffraction of the crossed-beam wire grid.

Every pattern the analysis uses is evaluated in closed form:

* the grid placed at the dark fringes of two crossed coherent beams
  (``two_beam_grid_intensity``), the transform of the exact fringe field
  +-sin(k u) on each wire strip, with the angular span of its first
  grating order between the bracketing zeros (``first_order_window``), and
* the diffracted component of one uniform beam on the grid, a uniform field
  on the wire strips (``single_beam_strip_far_field``).

A numerical Fourier-integral quadrature over sampled aperture profiles
(``far_field_amplitude``) is kept only as an independent oracle for those
closed forms.  Its grid (``_aperture_grid``) puts every strip edge on a node
and gives each node its share of a wire strip, so the fringe field, its
Babinet complement on the strips and the masked remainder are products on
one grid.  ``budget.crosscheck`` transforms the complement against the
two-beam pattern at its fixed scale 4 k^2, and complement + masked against
the unmasked fringe's closed form (``_fringe_amplitude``); the kernel is
built once per distinct |q|, since F(-q) = conj F(q) for a real field.
The sampled patterns (``two_beam_pattern``, ``single_beam_strip_far_field``,
``band_power``) feed no budget; they remain as references for the tests and
the benchmark probe.

Everything is scalar Fraunhofer on the plane containing the beams; only
ratios of band integrals mean anything physically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, wire_centers
from .errors import BandRangeError, DomainError, SamplingError


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


# ---------------------------------------------------------------------------
# closed-form intensity
# ---------------------------------------------------------------------------

def _array_factor(v: np.ndarray, wire_count: int) -> np.ndarray:
    """Alternating grating sum for wires at consecutive dark fringes.

    Successive dark fringes carry opposite field slopes, so the pairs at
    +-pitch/2, +-3*pitch/2, ... enter with alternating sign.
    """
    out = np.sin(v)
    for m in range(3, wire_count, 2):
        term = np.sin(m * v)
        out = out + term if m % 4 == 1 else out - term
    return out


def _strip_transform(q: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Transform of sin(k u) / k over one wire, |u| <= b/2, with k = pi / d.

    On the wire at the dark fringe x_j the fringe field is +-sin(k (x - x_j)),
    whose transform is -+i k times this real function, odd in q:
    (b / 2k)[sinc((q-k) b / 2pi) - sinc((q+k) b / 2pi)].  It tends to the
    transform of the linear ramp u as b -> 0; the normalised ``np.sinc``
    needs no branch at q = +-k, the centre of the first order.
    """
    b = config.wire_thickness
    k = math.pi / config.wire_pitch
    to_sinc = b / (2.0 * math.pi)
    return (b / (2.0 * k)) * (np.sinc((q - k) * to_sinc) - np.sinc((q + k) * to_sinc))


def _grid_intensity(q: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Two-beam grid intensity at non-negative q = kappa sin(theta)."""
    v = q * (config.wire_pitch / 2.0)
    amp = _strip_transform(q, config) * _array_factor(v, config.wire_count)
    return amp * amp


def two_beam_grid_intensity(theta, config: ExperimentConfig):
    """Relative far-field intensity of the wire grid lit by both beams.

    Closed form: I(theta) = [T(q) A(q d / 2)]^2 with q = kappa sin(theta),
    T the transform of the fringe field on one wire over k = pi / d
    (``_strip_transform``) and A the alternating array factor.  The
    complement field on the strips transforms to 2 k T A, so I is
    |F|^2 / (4 k^2).  Even in theta by construction (evaluated on
    |sin theta|) and exactly zero at theta = 0.
    """
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta_arr) >= np.pi / 2):
        raise ValueError("theta must satisfy |theta| < pi/2")
    kappa = 2.0 * math.pi / config.wavelength
    intensity = _grid_intensity(kappa * np.abs(np.sin(theta_arr)), config)
    if np.isscalar(theta) or theta_arr.ndim == 0:
        return float(intensity)
    return intensity


def first_order_window(config: ExperimentConfig) -> tuple[float, float]:
    """Angles (lo, hi) of the zeros bracketing the positive first grating order.

    The alternating array factor sums to +-sin(M v) / (2 cos v) with
    v = q d / 2, so the order at v = pi/2 sits between the zeros at
    v = pi/2 -+ pi/M, i.e. sin(theta) = (lambda / 2d)(1 -+ 2/M).  For M = 2
    the lower zero is theta = 0.  Raises DomainError when the upper zero
    lies beyond grazing angle.
    """
    centre = config.wavelength / (2.0 * config.wire_pitch)
    spread = 2.0 / config.wire_count
    upper = centre * (1.0 + spread)
    if upper >= 1.0:
        raise DomainError(f"first order extends past sin(theta) = 1 (upper zero at {upper:g})")
    return math.asin(centre * (1.0 - spread)), math.asin(upper)


def symmetric_grid(half_range: float, n: int) -> np.ndarray:
    """Uniform grid on [-half_range, half_range] that negates bit-exactly.

    Built as (i - (n-1)/2) * step so sample i and sample n-1-i are exact
    negations; evenness checks on sampled patterns then hold to the bit.
    ``half_range`` must be positive and finite.
    """
    if not 0.0 < half_range < math.inf:
        raise ValueError(f"half_range must be positive and finite, got {half_range!r}")
    if n < 2:
        raise ValueError("need at least 2 samples")
    step = 2.0 * half_range / (n - 1)
    return (np.arange(n) - (n - 1) / 2.0) * step


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


def fringe_field_profile(config: ExperimentConfig, *, max_sin_theta: float = 0.02) -> FieldProfile:
    """Crossed-beam fringe field at the grid plane, without the grid.

    The two beams produce amplitude fringes of period twice the intensity
    fringe spacing; with the wires centred on consecutive dark fringes at
    +-pitch/2, +-3*pitch/2, ... the field is cos(pi x / d), which vanishes
    exactly at every wire centre.  ``max_sin_theta`` is the largest angle
    the profile's sampling supports in a far-field transform.
    """
    x, _, field = _fringe_samples(config, max_sin_theta)
    return FieldProfile(x, field, config.wavelength)


def wire_strip_complement_profile(
    config: ExperimentConfig, max_sin_theta: float = 0.02
) -> FieldProfile:
    """Fringe field restricted to the wire strips (the Babinet complement).

    It shares the grid of ``fringe_field_profile``; subtracting it from that
    profile node-for-node gives the field with the strips blacked out.
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
# band integrals
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# single-beam (uniform illumination) patterns
# ---------------------------------------------------------------------------

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


def _single_beam_amplitude(config: ExperimentConfig, q: np.ndarray) -> np.ndarray:
    """Closed-form far field of a unit uniform field on the wire strips.

    With q measured from the beam axis this is b sinc(q b / 2) sum_j
    exp(-i q x_j), real because the wire centres x_j are symmetric.
    ``np.sinc`` is the normalised sinc, hence the factor of 2 pi.
    """
    b = config.wire_thickness
    array = np.cos(np.outer(q, wire_centers(config))).sum(axis=1)
    return b * np.sinc(q * b / (2.0 * math.pi)) * array


def _fringe_amplitude(config: ExperimentConfig, q: np.ndarray) -> np.ndarray:
    """Closed-form far field of the unmasked fringe field cos(k x), k = pi / d.

    Over the beam width W this is (W/2)[sinc((q-k)W/2pi) + sinc((q+k)W/2pi)],
    real because the field is even; the normalised ``np.sinc`` needs no
    branch at q = +-k.
    """
    k = math.pi / config.wire_pitch
    w = config.beam_side
    to_sinc = w / (2.0 * math.pi)
    return (w / 2.0) * (np.sinc((q - k) * to_sinc) + np.sinc((q + k) * to_sinc))


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


def detector_windows(config: ExperimentConfig) -> tuple[tuple[float, float], tuple[float, float]]:
    """Angular windows of the two detectors, (negative side, positive side)."""
    half = config.crossing_angle / 2.0
    w = config.detector_half_width
    return ((-half - w, -half + w), (half - w, half + w))
