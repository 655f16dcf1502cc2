"""Far-field diffraction of the crossed-beam wire grid.

Every pattern the analysis uses is evaluated in closed form:

* the grid placed at the dark fringes of two crossed coherent beams
  (``two_beam_grid_intensity``), and
* one uniform beam on the grid, either its diffracted component alone
  (uniform field on the wire strips) or the beam with the strips blacked
  out (``single_beam_strip_far_field``, ``single_beam_masked_far_field``).

A numerical Fourier-integral quadrature over sampled aperture field
profiles (``far_field_amplitude``) is kept only as an independent oracle
for those closed forms: ``budget.crosscheck`` transforms the fringe field
restricted to the wire strips (the Babinet complement of the masked field)
against the two-beam pattern, and the unmasked fringe field against its own
closed form (``_fringe_amplitude``).

Everything is scalar Fraunhofer on the plane containing the beams; patterns
carry an arbitrary overall scale, so only ratios of band integrals mean
anything physically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, validate_config, wire_centers
from .errors import BandRangeError, PeakNotFoundError, SamplingError

SCALE_NOTE = "relative intensity; overall scale arbitrary, only band ratios are meaningful"

# Switch the envelope bracket to its power series below this value of
# (wire_thickness * kappa * sin(theta)); the direct expression loses about
# half its digits to cancellation there, while three series terms are
# accurate to ~1e-12 relative up to 0.05.
_SERIES_THRESHOLD = 0.05

# A grating order must stand at least this far above the neighbouring
# sidelobe maxima to count as a peak in first_peak_bounds.
_PEAK_DOMINANCE = 5.0


@dataclass(frozen=True)
class DiffractionPattern:
    """Relative intensity sampled on a strictly increasing angular grid."""

    theta_samples: np.ndarray
    intensity_samples: np.ndarray
    scale_note: str = SCALE_NOTE

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
    wavenumber.  Amplitudes are signed reals (scalar approximation); jump
    discontinuities are encoded with the half-value convention at the jump
    node so that composite trapezoid quadrature stays second-order accurate
    through them.
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
    out = np.zeros_like(v)
    for n in range(1, wire_count // 2 + 1):
        out += (-1.0) ** (n - 1) * np.sin((2 * n - 1) * v)
    return out


def _envelope_over_q2(q: np.ndarray, b: float) -> np.ndarray:
    """{b q cos(b q / 2) - 2 sin(b q / 2)} / q**2, stable through q -> 0.

    This is (up to sign and a factor i) the transform of the linear field
    ramp across one wire; it vanishes like q at the origin, which is why
    the full pattern has a removable fourth-order zero at theta = 0.
    """
    bq = b * q
    small = bq < _SERIES_THRESHOLD
    out = np.empty_like(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(bq * np.cos(bq / 2.0) - 2.0 * np.sin(bq / 2.0), q * q, out=out)
    qs = q[small]
    bqs = bq[small]
    out[small] = -(b**3 * qs / 12.0) * (1.0 - bqs**2 / 40.0 + bqs**4 / 4480.0)
    return out


def _grid_intensity(q: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Two-beam grid intensity at non-negative q = kappa sin(theta)."""
    v = q * (config.wire_pitch / 2.0)
    amp = _envelope_over_q2(q, config.wire_thickness) * _array_factor(v, config.wire_count)
    return amp * amp


def two_beam_grid_intensity(theta, config: ExperimentConfig):
    """Relative far-field intensity of the wire grid lit by both beams.

    Closed form: I(theta) = [E(q)/q^2 * A(q d / 2)]^2 with q = kappa sin(theta),
    E the single-wire bracket of ``_envelope_over_q2`` and A the alternating
    array factor.  Even in theta by construction (evaluated on |sin theta|)
    and exactly zero at theta = 0.
    """
    validate_config(config)
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta_arr) >= np.pi / 2):
        raise ValueError("theta must satisfy |theta| < pi/2")
    kappa = 2.0 * math.pi / config.wavelength
    intensity = _grid_intensity(kappa * np.abs(np.sin(theta_arr)), config)
    if np.isscalar(theta) or theta_arr.ndim == 0:
        return float(intensity)
    return intensity


def symmetric_grid(half_range: float, n: int) -> np.ndarray:
    """Uniform grid on [-half_range, half_range] that negates bit-exactly.

    Built as (i - (n-1)/2) * step so sample i and sample n-1-i are exact
    negations; evenness checks on sampled patterns then hold to the bit.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    step = 2.0 * half_range / (n - 1)
    return (np.arange(n) - (n - 1) / 2.0) * step


def two_beam_pattern(
    config: ExperimentConfig,
    sin_theta_max: float | None = None,
    samples_per_lobe: int = 64,
) -> DiffractionPattern:
    """Sample the closed-form pattern densely over its full power range.

    The default range covers sin(theta) in +-20*lambda/b (clipped below 1),
    which holds all but ~1.5 % of the diffracted power for the reference-scale
    geometry; the remainder sits in the slowly decaying 1/theta^2 edge tail.
    """
    validate_config(config)
    if sin_theta_max is None:
        sin_theta_max = min(20.0 * config.wavelength / config.wire_thickness, 0.999)
    lobe = config.wavelength / (config.wire_count * config.wire_pitch)
    n = samples_per_lobe * int(np.ceil(2.0 * sin_theta_max / lobe)) + 1
    theta = np.arcsin(symmetric_grid(sin_theta_max, n))
    return DiffractionPattern(theta, two_beam_grid_intensity(theta, config))


# ---------------------------------------------------------------------------
# sampled field profiles
# ---------------------------------------------------------------------------

def _strip_bounds(config: ExperimentConfig) -> list[tuple[float, float]]:
    half = config.wire_thickness / 2.0
    return [(xc - half, xc + half) for xc in wire_centers(config)]


def _aperture_grid(config: ExperimentConfig, dx_gap: float) -> np.ndarray:
    """Piecewise-uniform aperture grid with every strip edge on a node.

    Each strip interior is sampled at least 64 times (128 by default) and
    the four nodes on either side of an edge share the strip spacing, so the
    half-value jump convention cancels the leading quadrature error.
    """
    b = config.wire_thickness
    n_strip = max(128, int(np.ceil(b / min(dx_gap, b / 128.0))))
    h = b / n_strip
    half_w = config.beam_side / 2.0
    # (start, end, target spacing, exact): exact segments get round() so the
    # spacing either side of a strip edge is identical and the half-value
    # jump convention cancels the leading quadrature error.
    segments: list[tuple[float, float, float, bool]] = []
    cursor = -half_w
    for lo, hi in _strip_bounds(config):
        segments.append((cursor, lo - 4 * h, dx_gap, False))
        segments.append((lo - 4 * h, lo, h, True))
        segments.append((lo, hi, h, True))
        segments.append((hi, hi + 4 * h, h, True))
        cursor = hi + 4 * h
    segments.append((cursor, half_w, dx_gap, False))
    xs = [np.array([-half_w])]
    for a, c, target, exact in segments:
        if c <= a:
            raise SamplingError("aperture segments overlap; wires too close to the beam edge")
        if exact:
            m = max(1, int(round((c - a) / target)))
        else:
            m = max(1, int(np.ceil((c - a) / target)))
        xs.append(np.linspace(a, c, m + 1)[1:])
    return np.concatenate(xs)


def _masked_amplitudes(
    config: ExperimentConfig, x: np.ndarray, base: np.ndarray, keep_strips: bool
) -> np.ndarray:
    """Zero ``base`` outside (or inside) the wire strips, half value on edges."""
    inside = np.zeros(x.shape, dtype=bool)
    on_edge = np.zeros(x.shape, dtype=bool)
    for lo, hi in _strip_bounds(config):
        inside |= (x > lo) & (x < hi)
        on_edge |= np.isclose(x, lo, rtol=0.0, atol=1e-15) | np.isclose(
            x, hi, rtol=0.0, atol=1e-15
        )
    inside &= ~on_edge
    amp = np.where(inside if keep_strips else ~(inside | on_edge), base, 0.0)
    amp[on_edge] = base[on_edge] / 2.0
    return amp


def _fringe_grid(config: ExperimentConfig, max_sin_theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Aperture grid good out to ``max_sin_theta`` and the unmasked fringe field on it.

    The gap spacing gives 10 samples per integrand oscillation at that angle.
    """
    validate_config(config)
    d = config.wire_pitch
    x = _aperture_grid(config, min(config.wavelength / (10.0 * max_sin_theta), d / 64.0))
    return x, np.cos(np.pi * x / d)


def fringe_field_profile(
    config: ExperimentConfig,
    grid_present: bool,
    max_sin_theta: float = 0.02,
) -> FieldProfile:
    """Crossed-beam fringe field at the grid plane, optionally masked.

    The two beams produce amplitude fringes of period twice the intensity
    fringe spacing; with the wires centred on consecutive dark fringes at
    +-pitch/2, +-3*pitch/2, ... the field is cos(pi x / d), which vanishes
    exactly at every wire centre.  With ``grid_present`` the amplitude is
    zeroed on each strip [centre - b/2, centre + b/2].

    ``max_sin_theta`` sets the gap sampling so the profile supports far-field
    evaluation out to that angle (10 samples per integrand oscillation).
    """
    x, base = _fringe_grid(config, max_sin_theta)
    amp = _masked_amplitudes(config, x, base, keep_strips=False) if grid_present else base
    return FieldProfile(x, amp, config.wavelength)


def wire_strip_complement_profile(
    config: ExperimentConfig, max_sin_theta: float = 0.02
) -> FieldProfile:
    """Fringe field restricted to the wire strips (the Babinet complement).

    fringe_field_profile(grid_present=True) plus this profile equals the
    unmasked fringe field node-for-node, so their far-field amplitudes add
    exactly under the shared quadrature.
    """
    x, base = _fringe_grid(config, max_sin_theta)
    return FieldProfile(x, _masked_amplitudes(config, x, base, keep_strips=True), config.wavelength)


# ---------------------------------------------------------------------------
# Fourier-integral oracle
# ---------------------------------------------------------------------------

def _transform(x: np.ndarray, amp: np.ndarray, q: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Trapezoid quadrature of the aperture integral for each q.

    The trapezoid weights are folded into the amplitude once and nodes whose
    weighted amplitude is zero (masked parts of the aperture) are dropped, so
    the kernel spans only the profile's support.  The complex exponential is
    split into real cosine and sine products; chunks of ``chunk`` angles
    bound the kernel's memory.
    """
    dx = np.diff(x)
    weights = np.concatenate(([dx[0]], dx[:-1] + dx[1:], [dx[-1]])) / 2.0
    wa = weights * amp
    support = wa != 0.0
    xs, wa = x[support], wa[support]
    out = np.empty(q.shape, dtype=complex)
    for i in range(0, len(q), chunk):
        phase = np.outer(q[i : i + chunk], xs)
        out[i : i + chunk] = np.cos(phase) @ wa - 1j * (np.sin(phase) @ wa)
    return out


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


def far_field_intensity(profile: FieldProfile, theta_grid) -> DiffractionPattern:
    """|far-field amplitude|^2 on the given angular grid."""
    theta = np.asarray(theta_grid, dtype=float)
    amp = far_field_amplitude(profile, theta)
    return DiffractionPattern(theta, np.abs(amp) ** 2)


# ---------------------------------------------------------------------------
# band integrals and peak location
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


def first_peak_bounds(pattern: DiffractionPattern, side: str) -> tuple[float, float]:
    """Locate the first grating order away from theta = 0 on one side.

    Returns the two local minima bracketing it, ascending.  The wire-grid
    array factor puts weak sidelobes between the orders, so "first peak"
    means the innermost local maximum that stands at least ``_PEAK_DOMINANCE``
    times above its neighbouring local maxima; plain sidelobes never qualify
    because each sits next to a far brighter order.  Needs the pattern
    sampled with at least ~20 points per array period to resolve the minima.
    """
    if side not in ("positive", "negative"):
        raise ValueError("side must be 'positive' or 'negative'")
    theta = pattern.theta_samples
    inten = pattern.intensity_samples
    if side == "positive":
        sel = theta > 0
        t, y = theta[sel], inten[sel]
    else:
        sel = theta < 0
        t, y = -theta[sel][::-1], inten[sel][::-1]

    if len(y) < 3:
        raise PeakNotFoundError(f"too few samples on the {side} side")
    interior = np.arange(1, len(y) - 1)
    is_max = (y[interior] > y[interior - 1]) & (y[interior] > y[interior + 1])
    is_min = (y[interior] < y[interior - 1]) & (y[interior] < y[interior + 1])
    maxima = interior[is_max]
    minima = interior[is_min]
    if maxima.size == 0:
        raise PeakNotFoundError(f"no interior local maximum on the {side} side")

    peak = None
    heights = y[maxima]
    for j, idx in enumerate(maxima):
        ok = True
        if j > 0 and heights[j] < _PEAK_DOMINANCE * heights[j - 1]:
            ok = False
        if j + 1 < len(maxima) and heights[j] < _PEAK_DOMINANCE * heights[j + 1]:
            ok = False
        if ok:
            peak = idx
            break
    if peak is None:
        raise PeakNotFoundError(
            f"no dominant grating order found on the {side} side "
            f"(every local maximum is comparable to its neighbours)"
        )
    left = minima[minima < peak]
    right = minima[minima > peak]
    if left.size == 0 or right.size == 0:
        raise PeakNotFoundError(
            f"first order on the {side} side is not bracketed by local minima "
            f"within the sampled range"
        )
    lo, hi = t[left[-1]], t[right[0]]
    if side == "negative":
        lo, hi = -hi, -lo
    return (float(lo), float(hi))


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


def _single_beam_amplitude(
    config: ExperimentConfig, q: np.ndarray, keep_strips: bool
) -> np.ndarray:
    """Closed-form far field of a unit uniform beam, q measured from the beam axis.

    The strips alone give b sinc(q b / 2) sum_j exp(-i q x_j), which is real
    because the wire centres x_j are symmetric; the masked beam is the full
    square aperture W sinc(q W / 2) minus that term.  ``np.sinc`` is the
    normalised sinc, hence the factors of 2 pi.
    """
    b = config.wire_thickness
    array = np.cos(np.outer(q, wire_centers(config))).sum(axis=1)
    strips = b * np.sinc(q * b / (2.0 * math.pi)) * array
    if keep_strips:
        return strips
    w = config.beam_side
    return w * np.sinc(q * w / (2.0 * math.pi)) - strips


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


def _single_beam_pattern(config: ExperimentConfig, keep_strips: bool) -> DiffractionPattern:
    """Single-beam intensity over +-5*lambda/b (capped at 0.2) around the beam axis."""
    validate_config(config)
    span = min(5.0 * config.wavelength / config.wire_thickness, 0.2)
    theta, s0 = _single_beam_theta_grid(config, span)
    q = (2.0 * math.pi / config.wavelength) * (np.sin(theta) - s0)
    return DiffractionPattern(theta, _single_beam_amplitude(config, q, keep_strips) ** 2)


def single_beam_masked_far_field(config: ExperimentConfig) -> DiffractionPattern:
    """Far field of one uniform beam with the wire strips blacked out.

    The beam propagates at +crossing_angle/2, so its diffraction-limited
    lobe lands on the detector at that angle; the grid covers at least
    +-5*lambda/b (capped at 0.2) around the beam axis.
    """
    return _single_beam_pattern(config, keep_strips=False)


def single_beam_strip_far_field(config: ExperimentConfig) -> DiffractionPattern:
    """Far field of the diffracted component alone (uniform field on strips).

    This is the Babinet complement of the masked beam; band fractions of
    this pattern give the share of grid-scattered light reaching each
    detector without the unscattered beam flooding the window.
    """
    return _single_beam_pattern(config, keep_strips=True)


def detector_windows(config: ExperimentConfig) -> tuple[tuple[float, float], tuple[float, float]]:
    """Angular windows of the two detectors, (negative side, positive side)."""
    half = config.crossing_angle / 2.0
    w = config.detector_half_width
    return ((-half - w, -half + w), (half - w, half + w))
