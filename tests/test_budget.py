import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wiregrid.oracle
from wiregrid import (
    DomainError,
    ExperimentConfig,
    absorbed_fraction_quadrature,
    absorbed_fraction_two_beams,
    band_fraction,
    coverage_fraction,
    crosscheck,
    detector_capture_fraction,
    detector_windows,
    first_order_window,
    single_beam_budget,
    two_beam_budget,
    two_beam_grid_intensity,
)
from wiregrid.budget import (
    _GL_NODES,
    _GL_WEIGHTS,
    PhotonBudget,
    SingleBeamBudget,
    _strip_total,
    _two_beam_total,
    _window_integrals,
)
from wiregrid.complementarity import absorbed_fraction_formula
from wiregrid.diffraction import _grid_intensity, _single_beam_amplitude

D = 319e-6
M = 6
W = 2.55e-3
LAM = 638e-9
KAPPA = 2 * math.pi / LAM


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_coverage_reference_value(reference_config):
    assert coverage_fraction(reference_config) == pytest.approx(6 * 32e-6 / 2.55e-3, rel=1e-12)
    assert coverage_fraction(reference_config) == pytest.approx(0.0753, abs=5e-5)


def test_coverage_linear_in_thickness(reference_config):
    half = coverage_fraction(reference_config.replace(wire_thickness=16e-6))
    assert 2 * half == pytest.approx(coverage_fraction(reference_config), rel=1e-12)


def test_full_coverage_boundary():
    # b -> pitch with pitch = W/M gives full coverage; the validated domain is
    # open so probe the raw ratio
    cfg = ExperimentConfig(wire_pitch=W / M, wire_thickness=W / M * 0.999999)
    assert coverage_fraction(cfg) == pytest.approx(1.0, rel=1e-5)


# ---------------------------------------------------------------------------
# absorbed fraction
# ---------------------------------------------------------------------------

def test_absorbed_fraction_reference_value(reference_config):
    x = absorbed_fraction_two_beams(reference_config)
    assert x == pytest.approx(0.001240, rel=0.02)


def test_closed_form_matches_quadrature_oracle(reference_config):
    x_closed = absorbed_fraction_two_beams(reference_config)
    x_quad = absorbed_fraction_quadrature(reference_config)
    assert abs(x_quad - x_closed) / x_closed < 1e-10


@pytest.mark.parametrize("b_um", [1, 4, 8, 32, 100, 200])
def test_quadrature_agreement_across_thicknesses(reference_config, b_um):
    cfg = reference_config.replace(wire_thickness=b_um * 1e-6)
    x_closed = absorbed_fraction_two_beams(cfg)
    x_quad = absorbed_fraction_quadrature(cfg)
    assert abs(x_quad - x_closed) / x_closed < 1e-10


def test_small_thickness_cubic_law(reference_config):
    cfg = reference_config.replace(wire_thickness=1e-6)
    x = absorbed_fraction_two_beams(cfg)
    assert x / 1e-6**3 == pytest.approx(
        M * np.pi**2 / (6 * D**2 * W), rel=1e-4
    )
    # quadrature agrees out in the cubic regime too
    assert absorbed_fraction_quadrature(cfg) == pytest.approx(x, rel=1e-9)


def test_full_period_wires_formula_case():
    # hypothetical b = d (bypasses config validation): integral of the
    # squared fringe over a full period is d/2 per wire
    assert absorbed_fraction_formula(D, D, M, W) == pytest.approx(M * D / W, rel=1e-12)


def test_absorbed_strictly_increasing_in_thickness(reference_config):
    bs = np.linspace(1e-6, 318e-6, 250)
    xs = [absorbed_fraction_two_beams(reference_config.replace(wire_thickness=b)) for b in bs]
    assert all(b2 > b1 for b1, b2 in zip(xs, xs[1:]))


@given(b=st.floats(min_value=1e-7, max_value=D / 2))
@settings(max_examples=80, deadline=None)
def test_interference_suppression(b):
    # wires at dark fringes absorb far less than their geometric coverage
    cfg = ExperimentConfig(wire_thickness=b)
    assert absorbed_fraction_two_beams(cfg) < coverage_fraction(cfg)


# ---------------------------------------------------------------------------
# detector capture and the two-beam budget
# ---------------------------------------------------------------------------

def test_detector_capture_reference_magnitude(reference_config):
    f_det = detector_capture_fraction(reference_config)
    assert f_det == pytest.approx(0.0015, rel=0.25)


def test_detector_capture_vanishes_with_window(reference_config):
    narrow = reference_config.replace(detector_half_width=1e-7)
    f_narrow = detector_capture_fraction(narrow)
    assert f_narrow < 1e-5


@pytest.mark.parametrize(
    "window, edge",
    [
        ("reversed", "theta_lo"),  # read -0.000763 before it raised
        ((0.0, 3.0), "theta_hi"),  # sin wraps past pi/2: read 0.479, below (0, 1.5)'s 0.497
        ((math.nan, 1e-3), "theta_lo"),
        ((-1e-3, math.inf), "theta_hi"),
        ((-math.pi / 2, 0.0), "theta_lo"),
    ],
)
def test_band_fraction_rejects_impossible_windows(reference_config, window, edge):
    if window == "reversed":
        window = first_order_window(reference_config)[::-1]
    with pytest.raises(DomainError, match=edge):
        band_fraction(reference_config, *window)


def test_band_fraction_accepts_every_window_inside_pi_over_2(reference_config):
    lo, hi = first_order_window(reference_config)
    assert band_fraction(reference_config, lo, hi) == pytest.approx(0.000763, rel=1e-3)
    assert band_fraction(reference_config, 0.0, 1.5) == pytest.approx(0.497, rel=1e-3)
    assert band_fraction(reference_config, hi, hi) == 0.0


def test_detector_capture_full_window_is_total(reference_pattern):
    # one window covering the whole sampled pattern would need crossing_angle
    # 0, which no config can hold; emulate totality with band_power directly
    hi = reference_pattern.theta_samples[-1]
    from wiregrid import band_power

    assert band_power(reference_pattern, -hi, hi) == pytest.approx(1.0, rel=1e-12)


def test_two_beam_budget_reference_counts(reference_config, reference_budget):
    counts = reference_budget.expected_counts(1_000_000)
    assert counts["detected"] == pytest.approx(997_522, abs=60)
    assert counts["absorbed"] == pytest.approx(1_240, abs=30)
    assert counts["diffracted_away"] == pytest.approx(1_238, abs=30)
    assert counts["diffracted_to_detectors"] == pytest.approx(2, abs=1)


def test_two_beam_budget_total_decrease(reference_budget):
    decrease = 2 * reference_budget.absorbed - reference_budget.diffracted_to_detectors
    assert decrease == pytest.approx(0.002478, rel=0.05)


def test_budget_conservation_exact(reference_budget):
    # detected is defined as 1 - absorbed - diffracted_away; that identity is
    # bit-exact, and the re-associated sum can differ from 1 by at most an ulp
    assert reference_budget.detected == 1.0 - reference_budget.absorbed - reference_budget.diffracted_away
    total = reference_budget.absorbed + reference_budget.diffracted_away + reference_budget.detected
    assert abs(total - 1.0) < 1e-15


def test_budget_babinet_equality():
    # the diffracted total equals the absorbed fraction, so no more than
    # that can be diffracted into the detectors
    with pytest.raises(ValueError, match="cannot exceed absorbed"):
        PhotonBudget(
            absorbed=0.1,
            covered=0.2,
            diffracted_to_detectors=0.2,
            diffracted_away=0.0,
            detected=0.9,
            undisturbed_detected=0.8,
        )


def test_detected_must_split_into_undisturbed_and_diffracted_in():
    # each fraction, the Babinet bound and the sum to 1 hold, but 0.85 is
    # not 0.5 + 0.05, so the fates sample_fates draws are not a distribution
    with pytest.raises(ValueError, match="detected must equal"):
        PhotonBudget(
            absorbed=0.1,
            covered=0.2,
            diffracted_to_detectors=0.05,
            diffracted_away=0.05,
            detected=0.85,
            undisturbed_detected=0.5,
        )


def test_budget_orderings(reference_budget):
    assert reference_budget.diffracted_to_detectors <= reference_budget.absorbed
    assert reference_budget.undisturbed_detected <= reference_budget.detected
    assert reference_budget.absorbed < reference_budget.covered


def test_thin_wire_budget_degenerates(reference_config):
    cfg = reference_config.replace(wire_thickness=5e-8)
    budget = two_beam_budget(cfg)
    assert budget.absorbed < 1e-8
    assert budget.detected > 1 - 1e-7
    assert budget.diffracted_to_detectors < budget.absorbed


@pytest.mark.parametrize("b", [2e-6, 5e-8])
def test_budgets_do_not_warn_on_thin_wires(reference_config, b):
    # the window fractions are normalised by the exact total, so no sampled
    # range can truncate the slowly decaying tail of a thin wire's pattern
    cfg = reference_config.replace(wire_thickness=b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two_beam_budget(cfg)
        single_beam_budget(cfg)


def test_budget_validation_rejects_bad_fractions():
    with pytest.raises(ValueError, match="sum to 1"):
        PhotonBudget(
            absorbed=0.1,
            covered=0.2,
            diffracted_to_detectors=0.0,
            diffracted_away=0.1,
            detected=0.9,
            undisturbed_detected=0.8,
        )
    for field, value in (("absorbed", -0.1), ("covered", 1.5), ("detected", math.nan)):
        fractions = dict(
            absorbed=0.1, covered=0.2, diffracted_to_detectors=0.0,
            diffracted_away=0.1, detected=0.8, undisturbed_detected=0.8,
        )
        fractions[field] = value
        with pytest.raises(ValueError, match=rf"{field} must be a fraction in \[0, 1\], got {value!r}"):
            PhotonBudget(**fractions)


# ---------------------------------------------------------------------------
# single beam
# ---------------------------------------------------------------------------

def test_single_beam_blocked_is_coverage(reference_single_budget):
    assert reference_single_budget.blocked == pytest.approx(0.0753, abs=5e-5)


def test_single_beam_own_detector_decrease(reference_single_budget):
    assert reference_single_budget.own_detector_decrease == pytest.approx(0.1438, rel=0.15)


def test_single_beam_wrong_detector(reference_single_budget):
    assert reference_single_budget.wrong_detector == pytest.approx(0.0066, rel=0.25)


def test_single_beam_decrease_includes_blocking(reference_single_budget):
    assert reference_single_budget.own_detector_decrease >= reference_single_budget.blocked


@pytest.mark.parametrize(
    "fractions,message",
    [
        ((-0.1, 0.2, 0.0), r"blocked must be a fraction in \[0, 1\], got -0.1"),
        ((0.1, 1.2, 0.0), r"own_detector_decrease must be a fraction in \[0, 1\], got 1.2"),
        ((0.1, 0.2, math.nan), r"wrong_detector must be a fraction in \[0, 1\], got nan"),
        ((0.1, 0.05, 0.0), "own_detector_decrease must include at least the blocked share"),
    ],
    ids=["blocked", "own", "wrong", "decrease-below-blocked"],
)
def test_single_beam_budget_rejects_bad_fractions(fractions, message):
    blocked, own, wrong = fractions
    with pytest.raises(ValueError, match=message):
        SingleBeamBudget(blocked=blocked, own_detector_decrease=own, wrong_detector=wrong)


def test_single_beam_budget_at_quarter_milliradian_window(reference_config):
    # a 0.25 mrad half-width reproduces the paper's 14.38 % and 0.66 %
    s = single_beam_budget(reference_config.replace(detector_half_width=0.25e-3))
    assert s.own_detector_decrease == pytest.approx(0.1438, rel=0.005)
    assert s.wrong_detector == pytest.approx(0.0066, rel=0.02)


def test_single_beam_fractions_vanish_with_window(reference_config):
    # the strip intensity never exceeds (M b)^2, so a window of half-width w
    # takes at most (M b)^2 * 2 kappa w / (2 pi M b) = 2 M b w / lambda of the
    # total, 6e-5 here
    cfg = reference_config.replace(detector_half_width=1e-7)
    s = single_beam_budget(cfg)
    bound = 2 * M * cfg.wire_thickness * cfg.detector_half_width / LAM
    assert s.wrong_detector <= s.blocked * bound
    assert 2 * s.blocked - s.own_detector_decrease <= s.blocked * bound


# ---------------------------------------------------------------------------
# Parseval totals and window quadrature against dense trapezoids
# ---------------------------------------------------------------------------

def _two_beam_intensity_q(cfg):
    return lambda q: _grid_intensity(np.abs(q), cfg)


def _strip_intensity_q(cfg):
    return lambda q: _single_beam_amplitude(cfg, q) ** 2


def test_node_table_is_leggauss_16_to_the_bit():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert len(_GL_NODES) == len(_GL_WEIGHTS) == 16
    assert all(a == b for a, b in zip(_GL_NODES, nodes.tolist()))
    assert all(a == b for a, b in zip(_GL_WEIGHTS, weights.tolist()))
    assert _GL_NODES == tuple(-t for t in reversed(_GL_NODES))
    assert _GL_WEIGHTS == _GL_WEIGHTS[::-1]


@pytest.mark.parametrize("b_um", [8, 16, 32, 64])
def test_parseval_totals_match_dense_trapezoid(reference_config, b_um):
    # the closed-form totals run over all q; beyond |q| = kappa the intensities
    # average M sin^2(k b / 2) / (2 k^2 q^2) (two-beam, k = pi / d) and M / q^2
    # (strip), so the propagating range misses
    # 4 sin^2(k b / 2) / (pi kappa (b - sin(k b) / k)) and lambda / (pi^2 b) of
    # them; the first tends to 3 lambda / (pi^2 b) as b -> 0
    cfg = reference_config.replace(wire_thickness=b_um * 1e-6)
    b = cfg.wire_thickness
    k = math.pi / cfg.wire_pitch
    q = np.linspace(-0.999 * KAPPA, 0.999 * KAPPA, 2**19 + 1)
    two = np.trapezoid(_two_beam_intensity_q(cfg)(q), q) / _two_beam_total(cfg)
    strip = np.trapezoid(_strip_intensity_q(cfg)(q), q) / _strip_total(cfg)
    two_tail = 4 * math.sin(k * b / 2) ** 2 / (math.pi * KAPPA * (b - math.sin(k * b) / k))
    assert two == pytest.approx(1 - two_tail, abs=2e-4)
    assert strip == pytest.approx(1 - LAM / (math.pi**2 * b), abs=2e-4)


@pytest.mark.parametrize("b_um", [8, 32, 150])
def test_window_integrals_match_dense_trapezoid(reference_config, b_um):
    # each window integral, and the public fractions built from them,
    # against a dense trapezoid in q
    cfg = reference_config.replace(wire_thickness=b_um * 1e-6)
    s0 = math.sin(cfg.crossing_angle / 2)
    dense = {}
    for side, (lo, hi) in zip(("neg", "pos"), detector_windows(cfg)):
        for name, intensity, shift in (
            ("two", _two_beam_intensity_q(cfg), 0.0),
            ("strip", _strip_intensity_q(cfg), s0),
        ):
            q_lo, q_hi = KAPPA * (math.sin(lo) - shift), KAPPA * (math.sin(hi) - shift)
            q = np.linspace(q_lo, q_hi, 200_001)
            dense[name, side] = np.trapezoid(intensity(q), q)
            quad = _window_integrals(intensity, [(q_lo, q_hi)], cfg)[0]
            assert quad == pytest.approx(dense[name, side], rel=1e-6, abs=0)
    f_det = (dense["two", "neg"] + dense["two", "pos"]) / _two_beam_total(cfg)
    assert detector_capture_fraction(cfg) == pytest.approx(f_det, rel=1e-6)
    single = single_beam_budget(cfg)
    f_own, f_wrong = (dense["strip", side] / _strip_total(cfg) for side in ("pos", "neg"))
    assert single.own_detector_decrease == pytest.approx(single.blocked * (2 - f_own), rel=1e-6)
    assert single.wrong_detector == pytest.approx(single.blocked * f_wrong, rel=1e-6)


BATCHED_WINDOW_CONFIGS = [
    ExperimentConfig(),
    ExperimentConfig(wire_count=2, beam_side=1.0e-3),
    ExperimentConfig(wire_count=12, beam_side=4.2e-3),
]


@pytest.mark.parametrize("cfg", BATCHED_WINDOW_CONFIGS, ids=["reference", "M2", "M12"])
def test_batched_windows_equal_one_window_route(cfg):
    # both detector windows share one intensity call; each must come out
    # bit-for-bit as if integrated alone
    neg, pos = detector_windows(cfg)
    assert detector_capture_fraction(cfg) == band_fraction(cfg, *neg) + band_fraction(cfg, *pos)
    kappa, s0 = 2 * math.pi / cfg.wavelength, math.sin(cfg.crossing_angle / 2)

    def q(theta):
        return kappa * (math.sin(theta) - s0)

    f_own, f_wrong = (
        _window_integrals(_strip_intensity_q(cfg), [(q(lo), q(hi))], cfg)[0] / _strip_total(cfg)
        for lo, hi in (pos, neg)
    )
    single = single_beam_budget(cfg)
    assert single.own_detector_decrease == single.blocked * (2.0 - f_own)
    assert single.wrong_detector == single.blocked * f_wrong


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------

CROSSCHECK_ROWS = [
    "fringe_pitch_match",
    "absorbed_closed_vs_quadrature",
    "fourier_oracle_vs_closed_form",
    "fringe_oracle_vs_closed_form",
]


def test_crosscheck_passes_on_reference(reference_config):
    checks = crosscheck(reference_config)
    assert [c.name for c in checks] == CROSSCHECK_ROWS
    assert all(c.passed for c in checks), checks
    # Python bools, so JSON prints true rather than a numpy float's 1.0
    assert all(type(c.passed) is bool for c in checks)


def _fringe_amplitude_k_off_by_one_percent(config, q):
    k = 1.01 * math.pi / config.wire_pitch
    w = config.beam_side
    return (w / 2) * (np.sinc((q - k) * w / (2 * math.pi)) + np.sinc((q + k) * w / (2 * math.pi)))


def _pitch_off_by_one_percent(theta, config):
    return two_beam_grid_intensity(theta, config.replace(wire_pitch=1.01 * config.wire_pitch))


def _scale_off_by_two_percent(theta, config):
    return 1.02 * two_beam_grid_intensity(theta, config)


@pytest.mark.parametrize(
    "row, attribute, wrong",
    [
        ("fringe_pitch_match", None, None),
        (
            "absorbed_closed_vs_quadrature",
            "absorbed_fraction_quadrature",
            lambda config: absorbed_fraction_two_beams(config) * (1 + 1e-9),
        ),
        ("fourier_oracle_vs_closed_form", "two_beam_grid_intensity", _pitch_off_by_one_percent),
        ("fourier_oracle_vs_closed_form", "two_beam_grid_intensity", _scale_off_by_two_percent),
        (
            "fringe_oracle_vs_closed_form",
            "_fringe_amplitude",
            _fringe_amplitude_k_off_by_one_percent,
        ),
    ],
)
def test_each_crosscheck_row_can_fail_alone(reference_config, monkeypatch, row, attribute, wrong):
    # a wrong closed form or oracle, or a 2 % error in the two-beam pattern's
    # scale, fails its own row and no other; the pitch row fails on a
    # 2.05 mrad crossing angle (2.4 % fringe mismatch)
    config = reference_config
    if attribute is None:
        config = reference_config.replace(crossing_angle=2.05e-3)
    else:
        monkeypatch.setattr(wiregrid.oracle, attribute, wrong)
    checks = crosscheck(config)
    assert [c.name for c in checks] == CROSSCHECK_ROWS
    assert [c.name for c in checks if not c.passed] == [row]
