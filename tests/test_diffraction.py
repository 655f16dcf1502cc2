import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiregrid import (
    BandRangeError,
    DiffractionPattern,
    FieldProfile,
    PeakNotFoundError,
    SamplingError,
    band_power,
    far_field_amplitude,
    far_field_intensity,
    first_peak_bounds,
    fringe_field_profile,
    single_beam_masked_far_field,
    single_beam_strip_far_field,
    two_beam_grid_intensity,
    two_beam_pattern,
    wire_centers,
    wire_strip_complement_profile,
)
from wiregrid.diffraction import (
    _aperture_grid,
    _masked_amplitudes,
    _single_beam_amplitude,
    _single_beam_theta_grid,
)

LAM = 638e-9
D = 319e-6
W = 2.55e-3


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_intensity_zero_at_origin(reference_config):
    assert two_beam_grid_intensity(0.0, reference_config) == 0.0


def test_first_peak_value_symmetric(reference_config):
    assert two_beam_grid_intensity(0.001, reference_config) == two_beam_grid_intensity(
        -0.001, reference_config
    )
    assert two_beam_grid_intensity(0.001, reference_config) > 0


@given(theta=st.floats(min_value=1e-7, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_evenness_exact(theta, reference_config):
    assert two_beam_grid_intensity(theta, reference_config) == two_beam_grid_intensity(
        -theta, reference_config
    )


def test_quartic_behaviour_near_origin(reference_config):
    # series-evaluated value at 1e-9 rad extrapolates the direct formula at
    # 1e-6 rad as C * theta^4 within 1 %
    c_direct = two_beam_grid_intensity(1e-6, reference_config) / 1e-6**4
    c_series = two_beam_grid_intensity(1e-9, reference_config) / 1e-9**4
    assert c_series == pytest.approx(c_direct, rel=0.01)


def test_series_and_direct_branches_agree(reference_config):
    # straddle the switchover at b*kappa*sin(theta) = 0.05 and compare both
    # branches against an extended-precision transcription of the formula
    kappa = 2 * math.pi / LAM
    b = reference_config.wire_thickness
    theta_switch = 0.05 / (kappa * b)

    def reference(theta):
        q = np.longdouble(kappa) * np.sin(np.longdouble(theta))
        bq = np.longdouble(b) * q
        env = (bq * np.cos(bq / 2) - 2 * np.sin(bq / 2)) / q**2
        v = q * np.longdouble(D) / 2
        af = np.sin(v) - np.sin(3 * v) + np.sin(5 * v)
        return float((env * af) ** 2)

    for factor in (0.9, 0.99, 1.01, 1.1):
        th = theta_switch * factor
        assert two_beam_grid_intensity(th, reference_config) == pytest.approx(
            reference(th), rel=1e-9
        )


def test_first_side_peak_location_via_sweep(reference_config):
    theta = np.linspace(-0.01, 0.01, 40001)
    pat = DiffractionPattern(theta, two_beam_grid_intensity(theta, reference_config))
    lo, hi = first_peak_bounds(pat, "positive")
    # detector angle is enclosed by the first order
    assert lo < 0.001 < hi
    # order centre sits at lambda/(2 d) within one part in 1e-5
    assert 0.5 * (lo + hi) == pytest.approx(0.001, abs=1e-5)
    # the envelope grows across the order, skewing the sample argmax a few
    # percent outward of the order centre; pin the measured location
    sel = (theta >= lo) & (theta <= hi)
    argmax = theta[sel][np.argmax(pat.intensity_samples[sel])]
    assert argmax == pytest.approx(0.001033, abs=2e-5)


def test_generalized_wire_count_reduces_to_stated_bracket(reference_config):
    # M = 6 array factor must equal sin(v) - sin(3v) + sin(5v) squared times
    # the envelope; compare against a literal transcription
    kappa = 2 * math.pi / LAM
    theta = np.linspace(1e-4, 9e-3, 997)
    q = kappa * np.sin(theta)
    v = q * D / 2
    b = reference_config.wire_thickness
    bracket = (b * q * np.cos(b * q / 2) - 2 * np.sin(b * q / 2)) ** 2
    array = (np.sin(v) - np.sin(3 * v) + np.sin(5 * v)) ** 2
    literal = bracket * array / q**4
    ours = two_beam_grid_intensity(theta, reference_config)
    assert np.allclose(ours, literal, rtol=1e-9)


@pytest.mark.parametrize("wire_count", [2, 4])
def test_other_even_wire_counts_against_oracle(reference_config, wire_count):
    # the alternating array-factor sign generalizes beyond six wires; check
    # it against the Fourier oracle instead of trusting the pattern
    cfg = reference_config.replace(wire_count=wire_count)
    theta = np.linspace(-0.006, 0.006, 1201)
    complement = wire_strip_complement_profile(cfg, max_sin_theta=0.007)
    numeric = np.abs(far_field_amplitude(complement, theta)) ** 2
    closed = two_beam_grid_intensity(theta, cfg)
    scale = np.dot(numeric, closed) / np.dot(closed, closed)
    nrms = np.sqrt(np.mean((numeric - scale * closed) ** 2)) / np.sqrt(
        np.mean((scale * closed) ** 2)
    )
    assert nrms < 0.01


def test_intensity_independent_of_grid_partition(reference_config):
    # evaluating the pattern on any partition of the grid gives the same
    # samples as one evaluation over the whole grid
    theta = np.linspace(-0.004, 0.004, 4001)
    whole = two_beam_grid_intensity(theta, reference_config)
    parts = np.concatenate(
        [two_beam_grid_intensity(chunk, reference_config) for chunk in np.array_split(theta, 7)]
    )
    assert np.array_equal(whole, parts)


# ---------------------------------------------------------------------------
# fringe field profiles
# ---------------------------------------------------------------------------

def test_fringe_field_dark_at_every_wire_center(reference_config):
    profile = fringe_field_profile(reference_config, grid_present=False)
    for xc in wire_centers(reference_config):
        amp = np.interp(xc, profile.x_samples, profile.amplitude_samples)
        assert abs(amp) < 1e-12


def test_fringe_field_quarter_pitch_amplitude(reference_config):
    profile = fringe_field_profile(reference_config, grid_present=False)
    peak = np.max(np.abs(profile.amplitude_samples))
    # linear interpolation between nodes costs ~1e-4 here; the node values
    # themselves carry the exact sinusoid
    amp = np.interp(D / 4, profile.x_samples, profile.amplitude_samples)
    assert abs(amp) / peak == pytest.approx(math.sqrt(2) / 2, rel=1e-3)
    idx = int(np.argmin(np.abs(profile.x_samples - D / 4)))
    x_node = profile.x_samples[idx]
    assert profile.amplitude_samples[idx] == pytest.approx(
        math.cos(math.pi * x_node / D), rel=1e-12
    )


def test_masked_profile_zero_on_wire_strips(reference_config):
    profile = fringe_field_profile(reference_config, grid_present=True)
    x = profile.x_samples
    amp = profile.amplitude_samples
    b = reference_config.wire_thickness
    for xc in wire_centers(reference_config):
        inside = np.abs(x - xc) < b / 2 * 0.999
        assert np.all(amp[inside] == 0.0)
    # at least 64 samples across each wire width
    for xc in wire_centers(reference_config):
        inside = np.abs(x - xc) <= b / 2
        assert inside.sum() >= 64


def test_profiles_share_grid_and_add_exactly(reference_config):
    full = fringe_field_profile(reference_config, grid_present=False)
    masked = fringe_field_profile(reference_config, grid_present=True)
    complement = wire_strip_complement_profile(reference_config)
    assert np.array_equal(full.x_samples, masked.x_samples)
    assert np.array_equal(full.x_samples, complement.x_samples)
    assert np.array_equal(
        masked.amplitude_samples + complement.amplitude_samples, full.amplitude_samples
    )


# ---------------------------------------------------------------------------
# Fourier oracle
# ---------------------------------------------------------------------------

def test_uniform_aperture_gives_sinc_squared():
    x = np.linspace(-W / 2, W / 2, 4001)
    profile = FieldProfile(x, np.ones_like(x), LAM)
    theta = np.linspace(-1.2e-3, 1.2e-3, 2401)
    pat = far_field_intensity(profile, theta)
    kappa = 2 * math.pi / LAM
    analytic = (W * np.sinc(kappa * np.sin(theta) * W / 2 / math.pi)) ** 2
    # composite trapezoid at this sampling is good to ~1e-5 relative
    assert np.allclose(pat.intensity_samples, analytic, rtol=1e-4, atol=1e-12 * W**2)
    # first zero at sin(theta) = lambda / W: the local minimum beyond the
    # main lobe sits within a grid step of it
    inten = pat.intensity_samples
    window = (theta > 0.5 * LAM / W) & (theta < 1.5 * LAM / W)
    idx_min = np.argmin(np.where(window, inten, np.inf))
    assert theta[idx_min] == pytest.approx(LAM / W, abs=2 * (theta[1] - theta[0]))
    assert inten[idx_min] < 1e-4 * inten.max()


def test_even_profile_gives_even_pattern(reference_config):
    profile = fringe_field_profile(reference_config, grid_present=True)
    theta = np.linspace(-2.4e-3, 2.4e-3, 961)
    pat = far_field_intensity(profile, theta)
    assert np.allclose(pat.intensity_samples, pat.intensity_samples[::-1], rtol=1e-9)


def test_babinet_amplitude_linearity(reference_config):
    theta = np.linspace(-2.5e-3, 2.5e-3, 1251)
    full = fringe_field_profile(reference_config, grid_present=False)
    masked = fringe_field_profile(reference_config, grid_present=True)
    complement = wire_strip_complement_profile(reference_config)
    a_full = far_field_amplitude(full, theta)
    a_sum = far_field_amplitude(masked, theta) + far_field_amplitude(complement, theta)
    peak = np.max(np.abs(a_full))
    assert np.max(np.abs(a_full - a_sum)) < 1e-10 * peak


@pytest.mark.parametrize("b_um", [8, 16, 32, 64])
def test_oracle_reproduces_closed_form(reference_config, b_um):
    cfg = reference_config.replace(wire_thickness=b_um * 1e-6)
    theta = np.linspace(-0.01, 0.01, 1601)
    complement = wire_strip_complement_profile(cfg, max_sin_theta=0.011)
    numeric = np.abs(far_field_amplitude(complement, theta)) ** 2
    closed = two_beam_grid_intensity(theta, cfg)
    scale = np.dot(numeric, closed) / np.dot(closed, closed)
    nrms = np.sqrt(np.mean((numeric - scale * closed) ** 2)) / np.sqrt(
        np.mean((scale * closed) ** 2)
    )
    assert nrms < 0.01


def test_coarse_profile_rejected():
    x = np.linspace(-W / 2, W / 2, 101)  # 25 um spacing
    profile = FieldProfile(x, np.ones_like(x), LAM)
    with pytest.raises(SamplingError, match="8 samples per"):
        far_field_intensity(profile, np.linspace(-0.02, 0.02, 101))


# ---------------------------------------------------------------------------
# band power
# ---------------------------------------------------------------------------

def test_band_power_full_range_is_one(reference_pattern):
    theta = reference_pattern.theta_samples
    assert band_power(reference_pattern, theta[0], theta[-1]) == pytest.approx(1.0, rel=1e-12)


def test_band_power_vanishes_around_origin(reference_pattern):
    previous = None
    for delta in (1e-3, 1e-4, 1e-5):
        frac = band_power(reference_pattern, -delta, delta)
        if previous is not None:
            assert frac < previous
        previous = frac
    assert previous < 1e-9


def test_band_power_outside_range_raises(reference_pattern):
    hi = reference_pattern.theta_samples[-1]
    with pytest.raises(BandRangeError, match="exceeds the sampled range"):
        band_power(reference_pattern, 0.0, hi * 1.5)


def test_band_power_warns_on_truncated_range(reference_config):
    theta = np.linspace(-2.5e-3, 2.5e-3, 2001)
    pat = DiffractionPattern(theta, two_beam_grid_intensity(theta, reference_config))
    with pytest.warns(UserWarning, match="outermost decile"):
        band_power(pat, -1e-3, 1e-3)


def test_first_peak_area_near_stated_share(reference_config, reference_pattern):
    lo, hi = first_peak_bounds(reference_pattern, "positive")
    frac = band_power(reference_pattern, lo, hi)
    assert frac == pytest.approx(0.00075, rel=0.20)


def test_band_power_grid_refinement(reference_config, reference_pattern):
    lo, hi = first_peak_bounds(reference_pattern, "positive")
    coarse = two_beam_pattern(reference_config, samples_per_lobe=32)
    frac_fine = band_power(reference_pattern, lo, hi)
    frac_coarse = band_power(coarse, lo, hi)
    assert frac_fine == pytest.approx(frac_coarse, rel=1e-3)


# ---------------------------------------------------------------------------
# first peak bounds
# ---------------------------------------------------------------------------

def test_first_peak_bounds_mirror_symmetric(reference_pattern):
    lo_p, hi_p = first_peak_bounds(reference_pattern, "positive")
    lo_n, hi_n = first_peak_bounds(reference_pattern, "negative")
    step = np.max(np.diff(reference_pattern.theta_samples))
    assert lo_n == pytest.approx(-hi_p, abs=step)
    assert hi_n == pytest.approx(-lo_p, abs=step)


def test_first_peak_bounds_bracket_detector_angle(reference_pattern):
    lo, hi = first_peak_bounds(reference_pattern, "positive")
    assert lo < 0.001 < hi
    # adjacent array-factor nulls sit at 2/3 and 4/3 of the order angle
    assert lo == pytest.approx(0.001 * 2 / 3, rel=1e-2)
    assert hi == pytest.approx(0.001 * 4 / 3, rel=1e-2)


def test_monotone_pattern_has_no_peak():
    theta = np.linspace(-1.0, 1.0, 101)
    pat = DiffractionPattern(theta, np.exp(theta))
    with pytest.raises(PeakNotFoundError):
        first_peak_bounds(pat, "positive")


def test_bad_side_rejected(reference_pattern):
    with pytest.raises(ValueError, match="side"):
        first_peak_bounds(reference_pattern, "sideways")


# ---------------------------------------------------------------------------
# container contracts
# ---------------------------------------------------------------------------

def test_pattern_rejects_malformed_grids():
    theta = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="increasing"):
        DiffractionPattern(theta[::-1], np.ones(5))
    with pytest.raises(ValueError, match="non-negative"):
        DiffractionPattern(theta, np.array([1.0, -1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="at least 3"):
        DiffractionPattern(theta[:2], np.ones(2))
    with pytest.raises(ValueError, match="match"):
        DiffractionPattern(theta, np.ones(4))


def test_field_profile_rejects_malformed_grids():
    x = np.linspace(-1e-3, 1e-3, 8)
    with pytest.raises(ValueError, match="increasing"):
        FieldProfile(x[::-1], np.ones(8), LAM)
    with pytest.raises(ValueError, match="wavelength"):
        FieldProfile(x, np.ones(8), 0.0)


def test_intensity_rejects_out_of_range_angle(reference_config):
    with pytest.raises(ValueError, match="pi/2"):
        two_beam_grid_intensity(1.6, reference_config)


# ---------------------------------------------------------------------------
# single beam
# ---------------------------------------------------------------------------

def test_single_beam_lobe_at_half_crossing_angle(reference_config):
    pat = single_beam_masked_far_field(reference_config)
    idx = np.argmax(pat.intensity_samples)
    assert pat.theta_samples[idx] == pytest.approx(0.001, abs=2e-5)


def test_single_beam_range_covers_spec(reference_config):
    pat = single_beam_masked_far_field(reference_config)
    span = 5 * LAM / reference_config.wire_thickness
    assert pat.theta_samples[0] <= math.asin(math.sin(0.001) - span) + 1e-9
    assert pat.theta_samples[-1] >= math.asin(math.sin(0.001) + span) - 1e-9


@pytest.mark.parametrize("b_um", [32, 64])
def test_single_beam_closed_form_matches_quadrature(reference_config, b_um):
    # both closed-form single-beam amplitudes against the trapezoid oracle
    # over a uniform field on (or off) the strips, on every 32nd angle of the
    # single-beam grid; 256 samples per strip hold the oracle's (q h)^2 / 12
    # error below 1e-4 of the peak out to the edge of the span; angles are
    # measured from the beam axis so the untilted oracle applies
    cfg = reference_config.replace(wire_thickness=b_um * 1e-6)
    theta, s0 = _single_beam_theta_grid(cfg, min(5 * LAM / cfg.wire_thickness, 0.2))
    rel = np.arcsin(np.sin(theta[::32]) - s0)
    x = _aperture_grid(cfg, cfg.wire_thickness / 256)
    for keep_strips, public in (
        (True, single_beam_strip_far_field),
        (False, single_beam_masked_far_field),
    ):
        aperture = FieldProfile(x, _masked_amplitudes(cfg, x, np.ones_like(x), keep_strips), LAM)
        numeric = far_field_amplitude(aperture, rel)
        closed = _single_beam_amplitude(cfg, 2 * math.pi / LAM * np.sin(rel), keep_strips)
        assert np.max(np.abs(numeric - closed)) <= 1e-4 * np.max(np.abs(closed))
        # the public pattern is this amplitude squared on the full grid
        intensity = public(cfg).intensity_samples[::32]
        assert np.max(np.abs(intensity - np.abs(numeric) ** 2)) <= 2e-4 * np.max(intensity)


def test_nearly_bare_beam_keeps_detector_power(reference_config):
    # thin-wire limit: the grid removes almost nothing, so the decrease at
    # the own detector tends to zero
    from wiregrid import single_beam_budget

    cfg = reference_config.replace(wire_thickness=2e-6)
    thin = single_beam_budget(cfg)
    assert thin.own_detector_decrease < 0.012
    assert thin.wrong_detector < 1e-4
