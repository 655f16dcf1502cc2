"""Far-field diffraction of the crossed-beam wire grid, in closed form.

Every pattern the analysis uses is evaluated in closed form:

* the grid placed at the dark fringes of two crossed coherent beams
  (``two_beam_grid_intensity``), the transform of the exact fringe field
  +-sin(k u) on each wire strip, with the angular span of its first
  grating order between the bracketing zeros (``first_order_window``),
* a uniform field on the wire strips, the diffracted component of one beam
  (``_single_beam_amplitude``), and the unmasked fringe (``_fringe_amplitude``).

Scalars (``int`` or ``float``, numpy's float64 included) run on ``math``;
numpy is imported only where an array arrives, so ``wiregrid pattern``
and ``budget`` load no numpy, and the angle grid is a list
(``symmetric_grid_list``).  The checks of these forms, their numpy grid
and the sampled patterns live in ``oracle``.

Everything is scalar Fraunhofer on the plane containing the beams; only
ratios of band integrals mean anything physically.
"""

from __future__ import annotations

import math

from .config import ExperimentConfig, wire_centers
from .errors import DomainError


def _sinc(x):
    """``np.sinc``, sin(pi x) / (pi x); a scalar x takes its steps on ``math``
    (y = pi x, float64 eps where y == 0, sin(y) / y) to the same bits."""
    if not isinstance(x, (int, float)):
        import numpy as np  # an array arrived, so numpy is loaded already
        return np.sinc(x)
    y = math.pi * x or math.ulp(1.0)
    return math.sin(y) / y


def _array_factor(v, wire_count: int):
    """Alternating grating sum for wires at consecutive dark fringes.

    Successive dark fringes carry opposite field slopes, so the pairs at
    +-pitch/2, +-3*pitch/2, ... enter with alternating sign.
    """
    if isinstance(v, (int, float)):
        sin = math.sin
    else:
        import numpy as np  # an array arrived, so numpy is loaded already
        sin = np.sin
    out = sin(v)
    for m in range(3, wire_count, 2):
        term = sin(m * v)
        out = out + term if m % 4 == 1 else out - term
    return out


def _strip_transform(q, config: ExperimentConfig):
    """Transform of sin(k u) / k over one wire, |u| <= b/2, with k = pi / d.

    On the wire at the dark fringe x_j the fringe field is +-sin(k (x - x_j)),
    whose transform is -+i k times this real function, odd in q:
    (b / 2k)[sinc((q-k) b / 2pi) - sinc((q+k) b / 2pi)].  It tends to the
    transform of the linear ramp u as b -> 0; the normalised ``_sinc``
    needs no branch at q = +-k, the centre of the first order.
    """
    b = config.wire_thickness
    k = math.pi / config.wire_pitch
    to_sinc = b / (2.0 * math.pi)
    return (b / (2.0 * k)) * (_sinc((q - k) * to_sinc) - _sinc((q + k) * to_sinc))


def _grid_intensity(q, config: ExperimentConfig):
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
    |sin theta|) and exactly zero at theta = 0.  A scalar or 0-d theta
    gives a float, an array an array.
    """
    if isinstance(theta, (int, float)):
        inside, sin = abs(theta) < math.pi / 2, math.sin
    else:
        import numpy as np  # an array arrived, so numpy is loaded already
        theta = np.asarray(theta, dtype=float)
        inside, sin = np.all(np.abs(theta) < np.pi / 2), np.sin
    if not inside:  # nan fails too
        raise ValueError("theta must satisfy |theta| < pi/2")
    intensity = _grid_intensity(2.0 * math.pi / config.wavelength * abs(sin(theta)), config)
    return intensity if getattr(intensity, "ndim", 0) else float(intensity)


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


def symmetric_grid_list(half_range: float, n: int) -> list[float]:
    """Uniform grid on [-half_range, half_range] that negates bit-exactly.

    Built as (i - (n-1)/2) * step so sample i and sample n-1-i are exact
    negations; evenness checks on sampled patterns then hold to the bit.
    ``half_range`` must be positive and finite.
    """
    if not 0.0 < half_range < math.inf:
        raise ValueError(f"half_range must be positive and finite, got {half_range!r}")
    if n < 2:
        raise ValueError("need at least 2 samples")
    step, centre = 2.0 * half_range / (n - 1), (n - 1) / 2.0
    return [(i - centre) * step for i in range(n)]


def _single_beam_amplitude(config: ExperimentConfig, q):
    """Closed-form far field of a unit uniform field on the wire strips.

    With q measured from the beam axis, a float on ``math`` or an array on numpy
    to the same bits, this is b sinc(q b / 2) sum_j cos(q x_j), real because the
    wire centres x_j are symmetric; ``_sinc`` is normalised, hence the 2 pi.
    """
    if isinstance(q, (int, float)):
        cos = math.cos
    else:
        import numpy as np  # an array arrived, so numpy is loaded already
        cos = np.cos
    b = config.wire_thickness
    array = 0.0  # a plain left fold: from 3.12 sum() compensates floats but not arrays
    for x in wire_centers(config):
        array = array + cos(q * x)
    return b * _sinc(q * b / (2.0 * math.pi)) * array


def _fringe_amplitude(config: ExperimentConfig, q):
    """Closed-form far field of the unmasked fringe field cos(k x), k = pi / d.

    Over the beam width W this is (W/2)[sinc((q-k)W/2pi) + sinc((q+k)W/2pi)],
    real because the field is even; the normalised ``_sinc`` needs no
    branch at q = +-k.
    """
    k = math.pi / config.wire_pitch
    w = config.beam_side
    to_sinc = w / (2.0 * math.pi)
    return (w / 2.0) * (_sinc((q - k) * to_sinc) + _sinc((q + k) * to_sinc))


def detector_windows(config: ExperimentConfig) -> tuple[tuple[float, float], tuple[float, float]]:
    """Angular windows of the two detectors, (negative side, positive side)."""
    half = config.crossing_angle / 2.0
    w = config.detector_half_width
    return ((-half - w, -half + w), (half - w, half + w))
