import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiregrid import (
    DomainError,
    SamplingError,
    band_fraction,
    band_power,
    crosscheck,
    far_field_amplitude,
    first_order_window,
    single_beam_strip_far_field,
    symmetric_grid,
    two_beam_grid_intensity,
    two_beam_pattern,
    wire_centers,
    wire_strip_complement_profile,
)
import wiregrid.oracle
from wiregrid.diffraction import _single_beam_amplitude, _sinc, symmetric_grid_list
from wiregrid.errors import BandRangeError
from wiregrid.oracle import (
    DiffractionPattern,
    FieldProfile,
    _aperture_grid,
    _fringe_samples,
    _single_beam_theta_grid,
    _transform,
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


def test_scalar_intensity_equals_the_array_path_bit_for_bit(reference_config, consistent_geometries):
    # pattern evaluates each angle on math; crosscheck and the budgets take
    # whole arrays on numpy: both must give the same bits, on the same grid
    for x in (0.0, -0.0, 1e-300, 0.25, -1.5, 3.0, 1e6):
        assert _sinc(x) == np.sinc(x)
    cases = [(reference_config, 0.01, 4001)]  # pattern's default grid
    cases += [(c, 3.0 * first_order_window(c)[1], 201) for c in consistent_geometries(23, 200)]
    for config, half_range, n in cases:
        theta = symmetric_grid(half_range, n)
        assert symmetric_grid_list(half_range, n) == theta.tolist()
        scalar = [two_beam_grid_intensity(t, config) for t in theta.tolist()]
        assert scalar == two_beam_grid_intensity(theta, config).tolist()


def test_quartic_behaviour_near_origin(reference_config):
    # the strip transform and the array factor each vanish like theta, so the
    # value at 1e-9 rad extrapolates the one at 1e-6 rad as C * theta^4
    # within 1 %
    c_far = two_beam_grid_intensity(1e-6, reference_config) / 1e-6**4
    c_near = two_beam_grid_intensity(1e-9, reference_config) / 1e-9**4
    assert c_near == pytest.approx(c_far, rel=0.01)


def test_closed_form_matches_extended_precision(reference_config):
    # a long-double transcription of [T(q) A(q d / 2)]^2, near the origin
    # where the two sinc terms nearly cancel, at the far edge, and at and
    # within 1e-9 and 1e-3 of the removable point q = k, the first-order centre
    pi = np.longdouble("3.14159265358979323846264338327950288")
    b = np.longdouble(reference_config.wire_thickness)
    k = pi / np.longdouble(D)

    def reference(theta):
        q = 2 * pi / np.longdouble(LAM) * np.sin(np.longdouble(theta))
        lower = b / 2 if q == k else np.sin((q - k) * b / 2) / (q - k)
        strip = (lower - np.sin((q + k) * b / 2) / (q + k)) / k
        v = q * np.longdouble(D) / 2
        af = np.sin(v) - np.sin(3 * v) + np.sin(5 * v)
        return float((strip * af) ** 2)

    order = math.asin(LAM / (2 * D))
    for theta in (1e-6, 1e-4, 5e-3) + tuple(
        order * f for f in (1, 1 - 1e-9, 1 + 1e-9, 1 - 1e-3, 1 + 1e-3)
    ):
        assert two_beam_grid_intensity(theta, reference_config) == pytest.approx(
            reference(theta), rel=1e-9, abs=0
        )


def test_first_side_peak_location_via_sweep(reference_config):
    theta = np.linspace(-0.01, 0.01, 40001)
    intensity = two_beam_grid_intensity(theta, reference_config)
    lo, hi = first_order_window(reference_config)
    # detector angle is enclosed by the first order
    assert lo < 0.001 < hi
    # order centre sits at lambda/(2 d) within one part in 1e-5
    assert 0.5 * (lo + hi) == pytest.approx(0.001, abs=1e-5)
    # the envelope grows across the order, skewing the sample argmax a few
    # percent outward of the order centre; pin the measured location
    sel = (theta >= lo) & (theta <= hi)
    argmax = theta[sel][np.argmax(intensity[sel])]
    assert argmax == pytest.approx(0.001033, abs=2e-5)


def test_generalized_wire_count_reduces_to_stated_bracket(reference_config):
    # M = 6 array factor must equal sin(v) - sin(3v) + sin(5v) squared times
    # the strip transform of sin(k u) / k; compare against a literal
    # transcription
    kappa = 2 * math.pi / LAM
    k = math.pi / D
    theta = np.linspace(1e-4, 9e-3, 997)
    q = kappa * np.sin(theta)
    v = q * D / 2
    b = reference_config.wire_thickness
    strip = (np.sin((q - k) * b / 2) / (q - k) - np.sin((q + k) * b / 2) / (q + k)) / k
    array = (np.sin(v) - np.sin(3 * v) + np.sin(5 * v)) ** 2
    literal = strip**2 * array
    ours = two_beam_grid_intensity(theta, reference_config)
    assert np.allclose(ours, literal, rtol=1e-9, atol=0)


@pytest.mark.parametrize("wire_count", [2, 4])
def test_other_even_wire_counts_against_oracle(reference_config, wire_count):
    # the alternating array-factor sign generalizes beyond six wires; check
    # it against the Fourier oracle instead of trusting the pattern
    cfg = reference_config.replace(wire_count=wire_count)
    theta = np.linspace(-0.006, 0.006, 1201)
    complement = wire_strip_complement_profile(cfg, max_sin_theta=0.007)
    numeric = np.abs(far_field_amplitude(complement, theta)) ** 2
    # the complement's |F|^2 is the pattern at its fixed scale 4 k^2, k = pi / d
    closed = 4 * (math.pi / cfg.wire_pitch) ** 2 * two_beam_grid_intensity(theta, cfg)
    nrms = np.sqrt(np.mean((numeric - closed) ** 2)) / np.sqrt(np.mean(closed**2))
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
    x, _, field = _fringe_samples(reference_config, 0.02)
    for xc in wire_centers(reference_config):
        assert abs(np.interp(xc, x, field)) < 1e-12


def test_fringe_field_quarter_pitch_amplitude(reference_config):
    x, _, field = _fringe_samples(reference_config, 0.02)
    peak = np.max(np.abs(field))
    # linear interpolation between nodes costs ~1e-4 here; the node values
    # themselves carry the exact sinusoid
    amp = np.interp(D / 4, x, field)
    assert abs(amp) / peak == pytest.approx(math.sqrt(2) / 2, rel=1e-3)
    idx = int(np.argmin(np.abs(x - D / 4)))
    assert field[idx] == pytest.approx(math.cos(math.pi * x[idx] / D), rel=1e-12)


def test_profiles_share_grid_and_add_exactly(reference_config):
    x, _, field = _fringe_samples(reference_config, 0.02)
    complement = wire_strip_complement_profile(reference_config)
    assert np.array_equal(x, complement.x_samples)
    # the masked field full - complement is zero inside every strip and adds
    # back to the full field node for node
    masked = field - complement.amplitude_samples
    b = reference_config.wire_thickness
    for xc in wire_centers(reference_config):
        assert np.all(masked[np.abs(x - xc) < b / 2 * 0.999] == 0.0)
        # at least 64 samples across each wire width
        assert np.count_nonzero(np.abs(x - xc) <= b / 2) >= 64
    assert np.array_equal(masked + complement.amplitude_samples, field)


@pytest.mark.parametrize("strip_sampling", ["gap_spacing", "fine"])
@pytest.mark.parametrize(
    "wire_count,b_over_d", [(6, None), (2, 1 / 32), (2, 1 / 3), (12, 1 / 32), (12, 1 / 3)]
)
def test_aperture_grid_marks_the_wire_strips(
    reference_config, wire_count, b_over_d, strip_sampling
):
    # the grid lays out each strip itself: share 1 strictly inside, 1/2 on the
    # two edge nodes at xc -+ b/2, 0 elsewhere; its trapezoid integral is the
    # strip width M b behind _strip_total's Parseval total 2 pi M b
    cfg = reference_config
    if b_over_d is not None:
        cfg = cfg.replace(
            wire_count=wire_count, beam_side=(wire_count + 2) * D, wire_thickness=D * b_over_d
        )
    b = cfg.wire_thickness
    dx_gap = {"gap_spacing": D / 64, "fine": b / 256}[strip_sampling]
    x, share = _aperture_grid(cfg, dx_gap)
    assert share.shape == x.shape
    assert set(np.unique(share)) <= {0.0, 0.5, 1.0}
    edges = np.sort([xc + side * b / 2 for xc in wire_centers(cfg) for side in (-1, 1)])
    on_edge = share == 0.5
    assert np.count_nonzero(on_edge) == 2 * wire_count
    assert np.array_equal(x[on_edge], edges)
    inside = np.zeros(x.shape, dtype=bool)
    for xc in wire_centers(cfg):
        inside |= (x > xc - b / 2) & (x < xc + b / 2)
    assert np.array_equal(share == 1.0, inside)
    assert np.all(share[~inside & ~on_edge] == 0.0)
    assert np.trapezoid(share, x) == pytest.approx(wire_count * b, rel=1e-12, abs=0)


@pytest.mark.parametrize("wire_count", [2, 6])
def test_aperture_grid_refuses_overlapping_segments(reference_config, wire_count):
    # b = 0.95 d leaves 0.05 d between strips and, with M d = W, 0.025 d
    # beside the outer ones: less than the 4 strip nodes each side needs
    cfg = reference_config.replace(
        wire_count=wire_count, beam_side=wire_count * D, wire_thickness=0.95 * D
    )
    with pytest.raises(SamplingError, match="aperture segments overlap; wires too close to the beam edge"):
        _aperture_grid(cfg, D / 64)


def test_aperture_grid_above_the_cap_is_refused_before_any_node(reference_config, monkeypatch):
    # a gap spacing of beam_side / cap puts the grid just above the cap
    cap = wiregrid.oracle._MAX_APERTURE_NODES
    dx_gap = reference_config.beam_side / cap
    assert len(_aperture_grid(reference_config, dx_gap * 1.001)[0]) <= cap
    monkeypatch.setattr(wiregrid.oracle, "_MAX_APERTURE_NODES", 2 * cap)
    nodes = len(_aperture_grid(reference_config, dx_gap)[0])
    assert cap < nodes < cap + 100
    monkeypatch.setattr(wiregrid.oracle, "_MAX_APERTURE_NODES", cap)

    def refuse(*args, **kwargs):
        raise AssertionError("a grid piece was built")

    monkeypatch.setattr(np, "linspace", refuse)
    with pytest.raises(SamplingError) as exc:
        _aperture_grid(reference_config, dx_gap)
    assert str(exc.value) == f"aperture grid needs {nodes} nodes, above the cap of {cap}"


# ---------------------------------------------------------------------------
# Fourier oracle
# ---------------------------------------------------------------------------

def _dense_transform(x, amp, q):
    """The plain complex trapezoid over every node: the reference for _transform."""
    return np.trapezoid(np.exp(-1j * np.outer(q, x)) * amp, x, axis=1)


class _OuterRecorder:
    """Stands in for numpy inside the oracle, recording each np.outer shape."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def outer(self, a, b):
        self.shapes.append((len(a), len(b)))
        return np.outer(a, b)


@pytest.mark.parametrize(
    "profile", ["one_sided_sine", "shifted_cosine", "masked", "complement", "zero"]
)
def test_transform_matches_dense_trapezoid(reference_config, monkeypatch, profile):
    # non-even profiles exercise the sine term, the masked ones the dropped
    # zero nodes; a block budget of 128 rows over the support puts the
    # distinct |q| of 301 angles in two blocks
    x, _, field = _fringe_samples(reference_config, 0.02)
    d = reference_config.wire_pitch
    complement = wire_strip_complement_profile(reference_config).amplitude_samples
    amp = {
        "one_sided_sine": np.where(x > 0, np.sin(np.pi * x / d), 0.0),
        "shifted_cosine": np.cos(np.pi * (x - d / 8) / d),
        "masked": field - complement,
        "complement": complement,
        "zero": np.zeros_like(x),
    }[profile]
    q = 2 * math.pi / LAM * np.sin(np.linspace(-2.5e-3, 2.5e-3, 301))
    recorder = _OuterRecorder()
    monkeypatch.setattr(wiregrid.oracle, "_KERNEL_BYTES", 128 * 8 * max(1, np.count_nonzero(amp)))
    monkeypatch.setattr(wiregrid.oracle, "np", recorder)
    got = _transform(x, amp, q)
    monkeypatch.undo()
    want = _dense_transform(x, amp, q)
    assert got.dtype == complex and got.shape == q.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the kernel spans the profile's support only, one row per distinct |q|
    assert all(nodes == np.count_nonzero(amp) for _, nodes in recorder.shapes)
    rows = np.unique(np.abs(q)).size
    assert len(recorder.shapes) == 2
    assert recorder.shapes[0][0] == 128
    assert sum(angles for angles, _ in recorder.shapes) == rows


def test_transform_memory_does_not_grow_with_the_grid(traced_peak, monkeypatch):
    # 50,001 nodes leave room for no more than the least block, 8 rows: about
    # 3.2 MB of phases, where one block of all 64 angles would be 25.6 MB
    x = np.linspace(-W / 2, W / 2, 50_001)
    amp = np.cos(np.pi * x / D)
    q = 2 * math.pi / LAM * np.sin(np.linspace(0.0, 2.5e-3, 64))
    assert traced_peak(_transform, x, amp, q) < 16 * 2**20
    recorder = _OuterRecorder()
    monkeypatch.setattr(wiregrid.oracle, "np", recorder)
    _transform(x, amp, q)
    assert recorder.shapes == [(8, x.size)] * 8


@pytest.mark.parametrize("case", ["asymmetric", "zero_and_repeats", "symmetric_grid"])
def test_mirrored_transform_matches_dense_trapezoid(reference_config, monkeypatch, case):
    # a profile with no parity has a real and an imaginary part, so each
    # q < 0 must take the conjugate of its |q| row, not a copy of it
    x, _, _ = _fringe_samples(reference_config, 0.02)
    amp = np.where(x > -0.3e-3, np.cos(np.pi * (x - 45e-6) / D), 0.0)
    grid = symmetric_grid(2.5e-3, 101)
    theta = {
        "asymmetric": np.linspace(-1.3e-3, 2.5e-3, 241),
        "zero_and_repeats": np.concatenate([grid[::-1], [0.0, -0.0], grid[40:70], grid[::7]]),
        "symmetric_grid": symmetric_grid(2.5e-3, 301),
    }[case]
    q = 2 * math.pi / LAM * np.sin(theta)
    recorder = _OuterRecorder()
    monkeypatch.setattr(wiregrid.oracle, "np", recorder)
    got = _transform(x, amp, q)
    monkeypatch.undo()
    want = _dense_transform(x, amp, q)
    assert np.max(np.abs(want.imag)) > 0.1 * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert sum(angles for angles, _ in recorder.shapes) == np.unique(np.abs(q)).size
    if case == "symmetric_grid":
        # the grid negates bit-exactly, so the kernel has one row per pair
        assert sum(angles for angles, _ in recorder.shapes) == 151


@pytest.mark.parametrize("half_range", [0.0, -1e-3, math.nan, math.inf])
def test_symmetric_grid_rejects_degenerate_range(half_range):
    with pytest.raises(ValueError, match="half_range must be positive and finite"):
        symmetric_grid(half_range, 11)


@pytest.mark.parametrize("n", [1, 0])
def test_symmetric_grid_needs_two_samples(n):
    with pytest.raises(ValueError, match="need at least 2 samples"):
        symmetric_grid_list(1e-3, n)


def test_crosscheck_kernel_cost(reference_config, monkeypatch):
    # the validate oracle builds one kernel row per distinct |q| of its 1501
    # angles and spans the support of the complement (774 nodes) and of the
    # masked remainder (531), never the full 1293-node aperture
    recorder = _OuterRecorder()
    monkeypatch.setattr(wiregrid.oracle, "np", recorder)
    checks = crosscheck(reference_config)
    monkeypatch.undo()
    assert all(c.passed for c in checks)
    rows_by_nodes = {}
    for angles, nodes in recorder.shapes:
        rows_by_nodes[nodes] = rows_by_nodes.get(nodes, 0) + angles
    assert sum(rows_by_nodes) <= 774 + 531
    assert all(rows <= 751 for rows in rows_by_nodes.values())


def test_uniform_aperture_gives_sinc_squared():
    x = np.linspace(-W / 2, W / 2, 4001)
    profile = FieldProfile(x, np.ones_like(x), LAM)
    theta = np.linspace(-1.2e-3, 1.2e-3, 2401)
    inten = np.abs(far_field_amplitude(profile, theta)) ** 2
    kappa = 2 * math.pi / LAM
    analytic = (W * np.sinc(kappa * np.sin(theta) * W / 2 / math.pi)) ** 2
    # composite trapezoid at this sampling is good to ~1e-5 relative
    assert np.allclose(inten, analytic, rtol=1e-4, atol=1e-12 * W**2)
    # first zero at sin(theta) = lambda / W: the local minimum beyond the
    # main lobe sits within a grid step of it
    window = (theta > 0.5 * LAM / W) & (theta < 1.5 * LAM / W)
    idx_min = np.argmin(np.where(window, inten, np.inf))
    assert theta[idx_min] == pytest.approx(LAM / W, abs=2 * (theta[1] - theta[0]))
    assert inten[idx_min] < 1e-4 * inten.max()


def test_even_profile_gives_even_pattern(reference_config):
    x, _, field = _fringe_samples(reference_config, 0.02)
    complement = wire_strip_complement_profile(reference_config)
    profile = FieldProfile(x, field - complement.amplitude_samples, LAM)
    theta = np.linspace(-2.4e-3, 2.4e-3, 961)
    inten = np.abs(far_field_amplitude(profile, theta)) ** 2
    assert np.allclose(inten, inten[::-1], rtol=1e-9)


@pytest.mark.parametrize("b_um", [8, 16, 32, 64])
def test_oracle_reproduces_closed_form(reference_config, b_um):
    cfg = reference_config.replace(wire_thickness=b_um * 1e-6)
    theta = np.linspace(-0.01, 0.01, 1601)
    complement = wire_strip_complement_profile(cfg, max_sin_theta=0.011)
    numeric = np.abs(far_field_amplitude(complement, theta)) ** 2
    # the complement's |F|^2 is the pattern at its fixed scale 4 k^2, k = pi / d
    closed = 4 * (math.pi / cfg.wire_pitch) ** 2 * two_beam_grid_intensity(theta, cfg)
    nrms = np.sqrt(np.mean((numeric - closed) ** 2)) / np.sqrt(np.mean(closed**2))
    assert nrms < 0.01


def test_coarse_profile_rejected():
    x = np.linspace(-W / 2, W / 2, 101)  # 25 um spacing
    profile = FieldProfile(x, np.ones_like(x), LAM)
    with pytest.raises(SamplingError, match="8 samples per"):
        far_field_amplitude(profile, np.linspace(-0.02, 0.02, 101))


@pytest.mark.parametrize(
    "theta", [np.linspace(1e-3, -1e-3, 11), np.array([0.0, 1e-4, 1e-4]), np.zeros((2, 3))],
    ids=["decreasing", "repeat", "2-d"],
)
def test_far_field_rejects_a_grid_that_does_not_increase(theta):
    profile = FieldProfile(np.linspace(-W / 2, W / 2, 101), np.ones(101), LAM)
    with pytest.raises(ValueError, match="theta_grid must be 1-D and strictly increasing"):
        far_field_amplitude(profile, theta)


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
    for lo, hi in ((1e-3, 1e-3), (1e-3, -1e-3)):
        with pytest.raises(BandRangeError, match="theta_lo must be strictly less than theta_hi"):
            band_power(reference_pattern, lo, hi)


def test_band_power_refuses_a_dark_pattern():
    dark = DiffractionPattern(np.linspace(-1e-3, 1e-3, 11), np.zeros(11))
    with pytest.raises(BandRangeError, match="pattern has no integrable power"):
        band_power(dark, -5e-4, 5e-4)


def test_band_power_warns_on_truncated_range(reference_config):
    theta = np.linspace(-2.5e-3, 2.5e-3, 2001)
    pat = DiffractionPattern(theta, two_beam_grid_intensity(theta, reference_config))
    with pytest.warns(UserWarning, match="outermost decile"):
        band_power(pat, -1e-3, 1e-3)


def test_first_peak_area_near_stated_share(reference_config, reference_pattern):
    lo, hi = first_order_window(reference_config)
    frac = band_fraction(reference_config, lo, hi)
    assert frac == pytest.approx(0.00075, rel=0.20)
    # the sampled pattern misses the slowly decaying tail of the total, so its
    # share reads slightly high; it stays as the oracle for the Parseval one
    assert band_power(reference_pattern, lo, hi) == pytest.approx(frac, rel=0.02)


def test_band_power_grid_refinement(reference_config, reference_pattern):
    lo, hi = first_order_window(reference_config)
    coarse = two_beam_pattern(reference_config, samples_per_lobe=32)
    frac_fine = band_power(reference_pattern, lo, hi)
    frac_coarse = band_power(coarse, lo, hi)
    assert frac_fine == pytest.approx(frac_coarse, rel=1e-3)


# ---------------------------------------------------------------------------
# first-order window
# ---------------------------------------------------------------------------

def test_first_peak_bounds_bracket_detector_angle(reference_config):
    lo, hi = first_order_window(reference_config)
    assert lo < 0.001 < hi
    # adjacent array-factor nulls sit at 2/3 and 4/3 of the order angle
    assert lo == pytest.approx(0.001 * 2 / 3, rel=1e-2)
    assert hi == pytest.approx(0.001 * 4 / 3, rel=1e-2)


@pytest.mark.parametrize("wire_count", [2, 4, 6, 8, 10, 12])
def test_first_order_window_is_bracketed_by_zeros(reference_config, wire_count):
    # the beam must hold M pitches; widen it where the reference width does not
    cfg = reference_config.replace(
        wire_count=wire_count,
        beam_side=max(reference_config.beam_side, wire_count * reference_config.wire_pitch),
    )
    lo, hi = first_order_window(cfg)
    assert lo < LAM / (2 * D) < hi
    peak = np.max(two_beam_grid_intensity(np.linspace(lo, hi, 2001), cfg))
    assert two_beam_grid_intensity(lo, cfg) <= 1e-20 * peak
    assert two_beam_grid_intensity(hi, cfg) <= 1e-20 * peak
    if wire_count == 2:
        assert lo == 0.0
    if wire_count == 4:
        # the first order, not the brighter third order at (2.5, 3.5) mrad
        assert (lo, hi) == pytest.approx((0.0005, 0.0015), rel=1e-6)


def test_first_order_window_past_grazing_rejected(reference_config):
    # at d = 0.5 um the upper zero would sit at sin(theta) = 1.276
    cfg = reference_config.replace(wire_pitch=0.5e-6, wire_thickness=0.1e-6, wire_count=2)
    with pytest.raises(DomainError, match="past sin"):
        first_order_window(cfg)


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
    for one_point in (x[:1], np.zeros((2, 4))):
        with pytest.raises(ValueError, match="x_samples must be a 1-D grid with at least 2 points"):
            FieldProfile(one_point, np.ones(one_point.shape), LAM)
    with pytest.raises(ValueError, match="amplitude_samples must match x_samples in length"):
        FieldProfile(x, np.ones(7), LAM)


def test_intensity_rejects_out_of_range_angle(reference_config):
    with pytest.raises(ValueError, match="pi/2"):
        two_beam_grid_intensity(1.6, reference_config)


@pytest.mark.parametrize(
    "theta",
    [math.nan, math.pi / 2, -math.pi / 2, np.array([0.0, 1e-3, math.nan]),
     np.array([-1e-3, math.pi / 2]), np.array([-math.pi / 2, 0.0])],
    ids=["nan", "+pi/2", "-pi/2", "array-nan", "array+pi/2", "array-pi/2"],
)
def test_intensity_rejects_nan_and_grazing_angles(reference_config, theta):
    # the guard asks for |theta| < pi/2, which a nan fails as well
    with pytest.raises(ValueError, match=r"theta must satisfy \|theta\| < pi/2"):
        two_beam_grid_intensity(theta, reference_config)


# ---------------------------------------------------------------------------
# single beam
# ---------------------------------------------------------------------------

def test_single_beam_lobe_at_half_crossing_angle(reference_config):
    pat = single_beam_strip_far_field(reference_config)
    idx = np.argmax(pat.intensity_samples)
    assert pat.theta_samples[idx] == pytest.approx(0.001, abs=2e-5)


def test_single_beam_range_covers_spec(reference_config):
    pat = single_beam_strip_far_field(reference_config)
    span = 5 * LAM / reference_config.wire_thickness
    assert pat.theta_samples[0] <= math.asin(math.sin(0.001) - span) + 1e-9
    assert pat.theta_samples[-1] >= math.asin(math.sin(0.001) + span) - 1e-9


@pytest.mark.parametrize("b_um", [32, 64])
def test_single_beam_closed_form_matches_quadrature(reference_config, b_um):
    # the closed-form strip amplitude, and the masked beam as the square
    # aperture W sinc(q W / 2) minus it, against the trapezoid oracle over a
    # uniform field on (or off) the strips, on every 32nd angle of the
    # single-beam grid; 256 samples per strip hold the oracle's (q h)^2 / 12
    # error below 1e-4 of the peak out to the edge of the span; angles are
    # measured from the beam axis so the untilted oracle applies
    cfg = reference_config.replace(wire_thickness=b_um * 1e-6)
    theta, s0 = _single_beam_theta_grid(cfg, min(5 * LAM / cfg.wire_thickness, 0.2))
    rel = np.arcsin(np.sin(theta[::32]) - s0)
    q = 2 * math.pi / LAM * np.sin(rel)
    x, on_strips = _aperture_grid(cfg, cfg.wire_thickness / 256)
    strips = _single_beam_amplitude(cfg, q)
    masked = cfg.beam_side * np.sinc(q * cfg.beam_side / (2 * math.pi)) - strips
    numeric = far_field_amplitude(FieldProfile(x, on_strips, LAM), rel)
    assert np.max(np.abs(numeric - strips)) <= 1e-4 * np.max(np.abs(strips))
    numeric_masked = far_field_amplitude(FieldProfile(x, 1.0 - on_strips, LAM), rel)
    assert np.max(np.abs(numeric_masked - masked)) <= 1e-4 * np.max(np.abs(masked))
    # the public pattern is the strip amplitude squared on the full grid
    intensity = single_beam_strip_far_field(cfg).intensity_samples[::32]
    assert np.max(np.abs(intensity - np.abs(numeric) ** 2)) <= 2e-4 * np.max(intensity)


def test_nearly_bare_beam_keeps_detector_power(reference_config):
    # thin-wire limit: the grid removes almost nothing, so the decrease at
    # the own detector tends to zero
    from wiregrid import single_beam_budget

    cfg = reference_config.replace(wire_thickness=2e-6)
    thin = single_beam_budget(cfg)
    assert thin.own_detector_decrease < 0.012
    assert thin.wrong_detector < 1e-4
