"""Far-field diffraction of the crossed-beam wire grid, in closed form.

Every pattern the analysis uses is evaluated in closed form:

* the grid placed at the dark fringes of two crossed coherent beams
  (``two_beam_grid_intensity``), the transform of the exact fringe field
  +-sin(k u) on each wire strip, with the angular span of its first
  grating order between the bracketing zeros (``first_order_window``),
* a uniform field on the wire strips, the diffracted component of one beam
  (``_single_beam_amplitude``), and the unmasked fringe (``_fringe_amplitude``).

Each form runs on the module ``config.numeric`` picks for its argument, and
the angle grid is a list (``symmetric_grid_list``).  The checks of these
forms, their numpy grid and the sampled patterns live in ``oracle``.

Everything is scalar Fraunhofer on the plane containing the beams; only
ratios of band integrals mean anything physically.
"""

from __future__ import annotations

import math

from .config import ExperimentConfig, numeric
from .errors import DomainError


def _sinc(x):
    """``np.sinc``, sin(pi x) / (pi x); a scalar x takes its steps on ``math``
    (y = pi x, float64 eps where y == 0, sin(y) / y) to the same bits."""
    if (np := numeric(x)) is not math:
        return np.sinc(x)
    y = math.pi * x or math.ulp(1.0)
    return math.sin(y) / y


# pi = _PI_HI + _PI_LO to 1.3e-24, a two-term split after Cody and Waite:
# _PI_HI keeps 25 significant bits, so (n + pole) * _PI_HI is exact for |n| < 2**27.
_PI_HI = 3.1415926218032837
_PI_LO = 3.178650954705639e-08


def _dirichlet(u, wire_count: int, pole: float):
    """Grating sum of M wires, (-1)^n sin(M t) / sin(t) with u = (n + pole) pi + t,
    |t| <= pi/2, and M where sin(t) = 0.

    Pole 0 at u = q d / 2 is sum_j cos(q x_j) over the wire centres x_j; pole 1/2
    is twice the alternating sum sin(u) - sin(3u) + sin(5u) - ... over wires at
    consecutive dark fringes.  sin(M t) and sin(t) share the reduced t, so the
    ratio keeps full precision near a pole, at a cost per point free of M.
    """
    np = numeric(u)
    a = np.floor(u / math.pi + (0.5 - pole)) + pole
    t = (u - a * _PI_HI) - a * _PI_LO
    t = t + np.copysign(2.0**-1000, t)  # moves only |t| < 2**-946, where the ratio is M
    # (-1)^n sin(t) = sin(u - pole pi) has the sign of sin(u), or of -cos(u) at pole 1/2
    m, side = (wire_count, np.sin(u)) if pole == 0 else (-wire_count, np.cos(u))
    return np.sin(m * t) / np.copysign(np.sin(t), side)


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
    amp = _strip_transform(q, config) * (0.5 * _dirichlet(v, config.wire_count, 0.5))
    return amp * amp


def two_beam_grid_intensity(theta, config: ExperimentConfig):
    """Relative far-field intensity of the wire grid lit by both beams.

    Closed form: I(theta) = [T(q) A(q d / 2)]^2 with q = kappa sin(theta),
    T the transform of the fringe field on one wire over k = pi / d
    (``_strip_transform``) and A the alternating array factor
    (``_dirichlet`` at pole 1/2, halved).  The
    complement field on the strips transforms to 2 k T A, so I is
    |F|^2 / (4 k^2).  Even in theta by construction (evaluated on
    |sin theta|) and exactly zero at theta = 0.  A scalar or 0-d theta
    gives a float, an array an array.
    """
    if (np := numeric(theta)) is not math:
        theta = np.asarray(theta, dtype=float)
    inside = abs(theta) < math.pi / 2
    if not (inside if np is math else inside.all()):  # nan fails too
        raise ValueError("theta must satisfy |theta| < pi/2")
    intensity = _grid_intensity(2.0 * math.pi / config.wavelength * abs(np.sin(theta)), config)
    return intensity if getattr(intensity, "ndim", 0) else float(intensity)


def first_order_window(config: ExperimentConfig) -> tuple[float, float]:
    """Angles (lo, hi) of the zeros bracketing the positive first grating order.

    The order sits at the pole v = q d / 2 = pi/2 of the array factor
    (``_dirichlet``), between its zeros at v = pi/2 -+ pi/M, i.e.
    sin(theta) = (lambda / 2d)(1 -+ 2/M).  For M = 2
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

    With q measured from the beam axis, this is b sinc(q b / 2) sum_j cos(q x_j),
    real because the wire centres x_j are symmetric; ``_sinc`` is normalised,
    hence the 2 pi, and the sum is ``_dirichlet`` at q d / 2.
    """
    b = config.wire_thickness
    array = _dirichlet(q * (config.wire_pitch / 2.0), config.wire_count, 0.0)
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
