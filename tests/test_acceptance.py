"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are pinned in the assertions.
"""

import math

import numpy as np
import pytest

from wiregrid import (
    absorbed_fraction_quadrature,
    absorbed_fraction_two_beams,
    band_fraction,
    band_power,
    coverage_fraction,
    crosscheck,
    estimate_metrics,
    far_field_amplitude,
    first_order_window,
    grid_metrics,
    montecarlo,
    sample_fates,
    sweep_thickness,
    symmetric_grid,
    truth_table,
    two_beam_grid_intensity,
    visibility_lower_bound,
    wire_strip_complement_profile,
    worst_case_intensity_pair,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_coverage_fraction(reference_config):
    y = coverage_fraction(reference_config)
    expected = 6 * 32 / 2550
    ok = abs(y - expected) / expected < 1e-6
    report(1, ok, f"coverage y = {y:.9f} vs 6*32/2550 = {expected:.9f} (tol 1e-6 rel)")


def test_criterion_02_absorbed_fraction(reference_config):
    x = absorbed_fraction_two_beams(reference_config)
    x_quad = absorbed_fraction_quadrature(reference_config)
    ok_reference = abs(x - 0.001240) / 0.001240 < 0.02
    ok_oracle = abs(x_quad - x) / x < 1e-10
    report(
        2,
        ok_reference and ok_oracle,
        f"absorbed x = {x:.7g} (benchmark 0.001240, tol 2% rel), "
        f"closed-vs-quadrature rel diff = {abs(x_quad - x) / x:.2e} (tol 1e-10)",
    )


def test_criterion_03_visibility_bound(reference_config, pair_visibility):
    v = visibility_lower_bound(0.001240, 0.07529)
    ok_v = abs(v - 0.9699) <= 0.0005
    i_min, i_max = worst_case_intensity_pair(0.001240, 192 / 2550, 1_000_000, 2.55**2)
    ok_min = abs(i_min - 2_533) <= 1.0
    ok_max = abs(i_max - 166_103) <= 1.0
    v_pair = pair_visibility(i_min, i_max)
    report(
        3,
        ok_v and ok_min and ok_max,
        f"V = {v:.5f} (0.9699 +- 0.0005); I_min = {i_min:.1f} (2533 +- 1), "
        f"I_max = {i_max:.1f} (166103 +- 1), pair visibility {v_pair:.5f}",
    )


def test_criterion_04_first_peak_geometry(reference_config):
    lo, hi = first_order_window(reference_config)
    centre = 0.5 * (lo + hi)
    ok_centre = abs(centre - 0.001) <= 1e-5 and lo < 0.001 < hi
    ok_zero = two_beam_grid_intensity(0.0, reference_config) == 0.0
    theta = symmetric_grid(0.005, 4001)
    intensity = two_beam_grid_intensity(theta, reference_config)
    ok_even = bool(np.array_equal(intensity, intensity[::-1]))
    # the window edges are the zeros bracketing the order
    sel = (theta >= lo) & (theta <= hi)
    edge = max(two_beam_grid_intensity(lo, reference_config),
               two_beam_grid_intensity(hi, reference_config)) / np.max(intensity[sel])
    ok_edges = edge <= 1e-20
    # the wire envelope rises across the order, so the raw sample argmax sits
    # a few percent outside the order centre; report it for transparency
    argmax = float(theta[sel][np.argmax(intensity[sel])])
    report(
        4,
        ok_centre and ok_zero and ok_even and ok_edges,
        f"first order centre {centre:.6f} rad (0.001 +- 1e-5, enclosed), I(0) = 0, "
        f"pattern bit-even, edge intensity {edge:.1e} of the order peak (<= 1e-20); "
        f"envelope-skewed sample argmax at {argmax:.6f} rad",
    )


def test_criterion_05_first_peak_area(reference_config, reference_pattern):
    lo, hi = first_order_window(reference_config)
    frac = band_fraction(reference_config, lo, hi)
    sampled = band_power(reference_pattern, lo, hi)
    ok = abs(frac - 0.00075) / 0.00075 < 0.20
    ok_sampled = abs(sampled - frac) / frac < 0.02
    report(
        5,
        ok and ok_sampled,
        f"first-peak share of the Parseval total = {frac:.7f} (0.00075 +- 20% rel); "
        f"sampled band power {sampled:.7f} (within 2% rel)",
    )


def test_criterion_06_two_beam_budget(reference_budget):
    c = reference_budget.expected_counts(1_000_000)
    decrease = 2 * reference_budget.absorbed - reference_budget.diffracted_to_detectors
    checks = [
        abs(c["detected"] - 997_522) <= 60,
        abs(c["absorbed"] - 1_240) <= 30,
        abs(c["diffracted_away"] - 1_238) <= 30,
        abs(c["diffracted_to_detectors"] - 2) <= 1,
        abs(decrease - 0.002478) / 0.002478 < 0.05,
    ]
    report(
        6,
        all(checks),
        f"counts detected {c['detected']:.1f} (997522 +- 60), absorbed {c['absorbed']:.1f} "
        f"(1240 +- 30), away {c['diffracted_away']:.1f} (1238 +- 30), to-detectors "
        f"{c['diffracted_to_detectors']:.2f} (2 +- 1); decrease {decrease:.6f} (0.2478% +- 5%)",
    )


def test_criterion_07_complementarity_sums(reference_config):
    r = grid_metrics(reference_config)
    # the stated 0.941 is the benchmark level, a 3-decimal rounding of K^2+V^2
    checks = [
        r.quantum_whichway == 0.0,
        abs(r.quantum_sum - 0.941) <= 5e-4,
        r.quantum_sum <= 1.0,
        r.classical_sum >= 1.932,
        abs(r.classical_sum - 1.936) <= 1e-3,
        r.classical_sum < 2.0,
    ]
    report(
        7,
        all(checks),
        f"K = 0, K^2+V^2 = {r.quantum_sum:.6f} (rounds to 0.941, <= 1), "
        f"K'^2+V^2 = {r.classical_sum:.6f} (~1.936, >= 1.932, < 2)",
    )


def test_criterion_08_single_beam_budget(reference_single_budget):
    s = reference_single_budget
    ok_dec = abs(s.own_detector_decrease - 0.1438) / 0.1438 < 0.15
    ok_wrong = abs(s.wrong_detector - 0.0066) / 0.0066 < 0.25
    report(
        8,
        ok_dec and ok_wrong,
        f"own-detector decrease = {s.own_detector_decrease:.4f} (14.38% +- 15% rel), "
        f"wrong detector = {s.wrong_detector:.5f} (0.66% +- 25% rel), "
        f"detector half-width = {s.detector_half_width:g} rad",
    )


def test_criterion_09_oracle_cross_validation(reference_config):
    theta = np.linspace(-0.01, 0.01, 1601)
    worst = 0.0
    for b_um in (8, 16, 32, 64):
        cfg = reference_config.replace(wire_thickness=b_um * 1e-6)
        complement = wire_strip_complement_profile(cfg, max_sin_theta=0.011)
        numeric = np.abs(far_field_amplitude(complement, theta)) ** 2
        closed = 4 * (math.pi / cfg.wire_pitch) ** 2 * two_beam_grid_intensity(theta, cfg)
        nrms = np.sqrt(np.mean((numeric - closed) ** 2)) / np.sqrt(np.mean(closed**2))
        worst = max(worst, nrms)
    fringe = {c.name: c for c in crosscheck(reference_config)}["fringe_oracle_vs_closed_form"]
    ok = worst < 0.01 and fringe.passed
    report(
        9,
        ok,
        f"oracle vs closed form at fixed scale 4 k^2, worst NRMS = {worst:.4%} over b in "
        f"{{8,16,32,64}} um (tol 1%); unmasked fringe field oracle vs closed form: {fringe.detail} (tol 1e-3)",
    )


def test_criterion_10_sweep_properties(reference_config):
    rows = sweep_thickness(reference_config, list(np.linspace(1e-6, 150e-6, 150)))
    vs = [r.visibility_lower for r in rows]
    ks = [r.classical_whichway_lower for r in rows]
    mono_v = all(b < a for a, b in zip(vs, vs[1:]))
    mono_k = all(b < a for a, b in zip(ks, ks[1:]))
    x_lt_y = all(r.absorbed < r.covered for r in rows)
    bounded = all(r.quantum_sum <= 1.0 and r.classical_sum < 2.0 for r in rows)
    small = [r for r in rows if r.wire_thickness < 8e-6]
    ratios = [r.absorbed / r.wire_thickness**3 for r in small]
    cubic = max(ratios) / min(ratios) - 1 < 0.01
    ok = mono_v and mono_k and x_lt_y and bounded and cubic
    report(
        10,
        ok,
        f"150 rows over b in [1, 150] um: V, K' strictly decreasing ({mono_v}, {mono_k}); "
        f"x < y everywhere ({x_lt_y}); sums bounded ({bounded}); "
        f"cubic-law spread below 8 um = {max(ratios) / min(ratios) - 1:.2%} (tol 1%)",
    )


def test_criterion_11_monte_carlo(monkeypatch, reference_config, reference_budget):
    n = 1_000_000
    seed = 1
    counts = sample_fates(reference_budget, n, seed)
    probs = {
        "detected": (counts.detected_own, reference_budget.detected),
        "absorbed": (counts.absorbed, reference_budget.absorbed),
        "away": (counts.diffracted_away, reference_budget.diffracted_away),
        "to-detectors": (counts.diffracted_to_detectors, reference_budget.diffracted_to_detectors),
    }
    sigmas = {
        key: (obs - n * p) / math.sqrt(n * p * (1 - p)) for key, (obs, p) in probs.items()
    }
    ok_tallies = all(abs(z) < 4 for z in sigmas.values())
    by_chunk = []
    for chunk in (1 << 20, 911):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        by_chunk.append(sample_fates(reference_budget, 200_000, seed))
    ok_chunks = by_chunk[0] == by_chunk[1]
    m4 = estimate_metrics(sample_fates(reference_budget, 10_000, seed), reference_config)
    m6 = estimate_metrics(counts, reference_config)
    ratio = m4.absorbed_stderr / m6.absorbed_stderr
    ok_scaling = abs(ratio - 10.0) / 10.0 < 0.10
    report(
        11,
        ok_tallies and ok_chunks and ok_scaling,
        f"seed {seed} tallies within 4 sigma (max |z| = "
        f"{max(abs(z) for z in sigmas.values()):.2f}); chunking bit-identical; "
        f"stderr ratio 1e4/1e6 = {ratio:.3f} (10 +- 10%)",
    )


def test_criterion_12_scenario_truth_table(reference_config):
    bare, grid, splitter = truth_table(reference_config)
    ok_bare = (
        bare.report.quantum_whichway == 0.0
        and bare.report.visibility_lower == 0.0
        and bare.report.classical_whichway_lower == 1.0
        and bare.report.quantum_sum == 0.0
    )
    ok_grid = (
        grid.report.quantum_whichway == 0.0
        and abs(grid.report.visibility_lower - 0.9699) <= 1e-4
        and abs(grid.report.classical_whichway_lower - 0.99752) <= 1e-5
    )
    ok_split = (
        splitter.report.quantum_whichway == 0.0
        and splitter.report.visibility_lower == 1.0
        and splitter.report.classical_whichway_lower == 0.0
    )
    report(
        12,
        ok_bare and ok_grid and ok_split,
        f"bare (0, 0, 1) with K^2+V^2 = 0; grid (0, {grid.report.visibility_lower:.5f}, "
        f"{grid.report.classical_whichway_lower:.5f}); splitter (0, 1, 0)",
    )
