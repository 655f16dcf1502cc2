import math
import sys
import threading

import numpy as np
import pytest

from wiregrid import (
    DomainError,
    FateCounts,
    estimate_metrics,
    montecarlo,
    photon_uniforms,
    sample_fates,
    visibility_lower_bound,
)
from wiregrid.budget import PhotonBudget
from wiregrid.montecarlo import _photon_words, _tally_span, _word_threshold


def make_budget(x=0.0012401415665121626, f_det=0.0016144048753482427):
    return PhotonBudget(
        absorbed=x,
        covered=0.07529411764705882,
        diffracted_to_detectors=x * f_det,
        diffracted_away=x * (1 - f_det),
        detected=1.0 - x - x * (1 - f_det),
        undisturbed_detected=1.0 - 2 * x,
    )


# ---------------------------------------------------------------------------
# counter-based generator
# ---------------------------------------------------------------------------

def test_uniforms_depend_only_on_seed_and_index():
    full = photon_uniforms(42, 0, 10_000)
    pieces = np.concatenate(
        [photon_uniforms(42, 0, 137), photon_uniforms(42, 137, 9_863)]
    )
    assert np.array_equal(full, pieces)


def test_uniforms_differ_across_seeds():
    a = photon_uniforms(1, 0, 1000)
    b = photon_uniforms(2, 0, 1000)
    assert not np.array_equal(a, b)


def test_uniforms_in_unit_interval_and_unbiased():
    u = photon_uniforms(7, 0, 200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.001


def philox_reference(key, index):
    """Philox2x32-10 over Python ints, one photon at a time: the 64-bit word
    of counter (index mod 2**32, index >> 32) under key."""
    lo, hi = index & 0xFFFFFFFF, index >> 32
    for _ in range(10):
        product = lo * 0xD256D193
        lo, hi = (product >> 32) ^ hi ^ key, product & 0xFFFFFFFF
        key = (key + 0x9E3779B9) & 0xFFFFFFFF
    return (lo << 32) | hi


@pytest.mark.parametrize(
    "counter,key,expected",
    [
        ((0x00000000, 0x00000000), 0x00000000, (0xFF1DAE59, 0x6CD10DF2)),
        ((0xFFFFFFFF, 0xFFFFFFFF), 0xFFFFFFFF, (0x2C3F628B, 0xAB4FD7AD)),
        ((0x243F6A88, 0x85A308D3), 0x13198A2E, (0xDD7CE038, 0xF62A4C12)),
    ],
)
def test_philox_matches_random123_known_answers(counter, key, expected):
    # the photon index is the counter (low word, high word); the word holds
    # the first output word in its high half
    index = (counter[1] << 32) | counter[0]
    for word in (int(_photon_words(key, index, 1)[0]), philox_reference(key, index)):
        assert (word >> 32, word & 0xFFFFFFFF) == expected


@pytest.mark.parametrize(
    "start,count",
    [(0, 5), (2**32 - 1, 977), (2**32 - 976, 977), (2**33 - 5, 10), (2**64 - 6, 6)],
    ids=["origin", "edge-after-first", "edge-before-last", "second-edge", "last-counter"],
)
def test_words_match_reference_across_counter_edges(start, count):
    seed = 3_764_114_740
    expected = [philox_reference(seed, start + i) for i in range(count)]
    assert _photon_words(seed, start, count).tolist() == expected


def test_uniforms_carry_the_philox_words():
    # the photon index splits into the counter (low word, high word) and the
    # first output word fills the top of the mantissa
    word = (0xDD7CE038 << 32) | 0xF62A4C12
    u = photon_uniforms(0x13198A2E, 0x85A308D3_243F6A88, 1)[0]
    assert u == (word >> 11) * 2.0**-53


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_seed_outside_32_bits_rejected(seed):
    with pytest.raises(DomainError, match="seed"):
        photon_uniforms(seed, 0, 10)
    with pytest.raises(DomainError, match="seed"):
        sample_fates(make_budget(), 10, seed)


@pytest.mark.parametrize(
    "start,count",
    [(-1, 10), (2**64 - 2, 4), (0, -1)],
    ids=["negative-start", "counter-wraps", "negative-count"],
)
def test_photon_range_outside_counter_rejected(start, count):
    with pytest.raises(DomainError, match="photon range"):
        photon_uniforms(1, start, count)


def test_photon_range_may_end_at_last_counter():
    u = photon_uniforms(1, 2**64 - 2, 2)
    assert u.shape == (2,)
    assert u[1] == photon_uniforms(1, 2**64 - 1, 1)[0]
    assert photon_uniforms(1, 2**64, 0).shape == (0,)


def test_seed_range_edges_accepted():
    low = photon_uniforms(0, 0, 1000)
    high = photon_uniforms(2**32 - 1, 0, 1000)
    assert low.min() >= 0.0 and high.max() < 1.0
    assert not np.array_equal(low, high)


# ---------------------------------------------------------------------------
# fate sampling
# ---------------------------------------------------------------------------

def test_same_seed_identical_counts():
    budget = make_budget()
    a = sample_fates(budget, 1_000_000, 3)
    b = sample_fates(budget, 1_000_000, 3)
    assert a == b


def test_chunk_size_cannot_change_counts(monkeypatch):
    budget = make_budget()
    tallies = []
    for chunk in (1 << 20, 977, 299_999):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        tallies.append(sample_fates(budget, 300_000, 9))
    assert tallies[0] == tallies[1] == tallies[2]


@pytest.mark.parametrize(
    "seed,expected", [(0, (997529, 1235, 1236, 1)), (7, (997608, 1189, 1203, 3))]
)
def test_reference_photon_stream_is_pinned(reference_budget, seed, expected):
    # the float reference below shares the word routine with the tally, so
    # this pin and the Random123 answers are what hold the stream in place
    c = sample_fates(reference_budget, 10**6, seed)
    assert (c.detected_own, c.absorbed, c.diffracted_away, c.diffracted_to_detectors) == expected


def test_counts_conserved_and_consistent():
    budget = make_budget()
    counts = sample_fates(budget, 123_457, 5)
    assert counts.total == 123_457
    assert counts.detected_own + counts.absorbed + counts.diffracted_away == counts.total
    assert counts.diffracted_to_detectors <= counts.detected_own
    assert counts.seed == 5


def test_degenerate_budget_all_detected():
    budget = PhotonBudget(
        absorbed=0.0,
        covered=0.07529411764705882,
        diffracted_to_detectors=0.0,
        diffracted_away=0.0,
        detected=1.0,
        undisturbed_detected=1.0,
    )
    counts = sample_fates(budget, 50_000, 0)
    assert counts.detected_own == 50_000
    assert counts.absorbed == 0
    assert counts.diffracted_away == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_reference_budget_tallies_within_four_sigma(reference_budget, seed):
    n = 1_000_000
    counts = sample_fates(reference_budget, n, seed)
    observed = {
        "detected": counts.detected_own,
        "absorbed": counts.absorbed,
        "away": counts.diffracted_away,
        "todet": counts.diffracted_to_detectors,
    }
    probs = {
        "detected": reference_budget.detected,
        "absorbed": reference_budget.absorbed,
        "away": reference_budget.diffracted_away,
        "todet": reference_budget.diffracted_to_detectors,
    }
    for key, p in probs.items():
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(observed[key] - n * p) < 4 * sigma, key


def test_expected_counts_match_stated_tallies(reference_budget):
    counts = reference_budget.expected_counts(1_000_000)
    assert round(counts["detected"]) == pytest.approx(997_522, abs=60)
    assert round(counts["absorbed"]) == pytest.approx(1_240, abs=30)
    assert round(counts["diffracted_away"]) == pytest.approx(1_238, abs=30)
    assert round(counts["diffracted_to_detectors"]) == 2


def reference_fates(budget, n, seed):
    """Float tally: each photon's uniform placed among the cumulative probabilities."""
    edges = np.cumsum(budget.fate_probabilities())
    edges[-1] = 1.0
    fate = np.searchsorted(edges, photon_uniforms(seed, 0, n), side="right")
    undisturbed, absorbed, away, to_det = (int(c) for c in np.bincount(fate, minlength=4))
    return FateCounts(
        detected_own=undisturbed + to_det,
        absorbed=absorbed,
        diffracted_away=away,
        diffracted_to_detectors=to_det,
        seed=seed,
        total=n,
    )


def _edge_on_a_word_budget():
    """Budget whose first edge is the uniform of a seed-7 photon below 100_001
    whose Philox word has its low 11 bits clear, so the word itself equals the
    integer threshold of that edge."""
    word = _photon_words(7, 0, 100_001)
    i = int(np.flatnonzero(word & np.uint64(0x7FF) == 0)[0])
    u = float(photon_uniforms(7, i, 1)[0])
    return PhotonBudget(
        absorbed=1.0 - u,
        covered=0.5,
        diffracted_to_detectors=0.0,
        diffracted_away=0.0,
        detected=u,
        undisturbed_detected=u,
    )


TALLY_BUDGETS = {
    "reference": make_budget,
    # nothing is diffracted away, so two inner edges are equal
    "zero-probability-fate": lambda: PhotonBudget(
        absorbed=0.25,
        covered=0.5,
        diffracted_to_detectors=0.25,
        diffracted_away=0.0,
        detected=0.75,
        undisturbed_detected=0.5,
    ),
    # every edge is 1.0
    "all-detected": lambda: PhotonBudget(
        absorbed=0.0,
        covered=0.07529411764705882,
        diffracted_to_detectors=0.0,
        diffracted_away=0.0,
        detected=1.0,
        undisturbed_detected=1.0,
    ),
    "edge-on-a-word": _edge_on_a_word_budget,
}


@pytest.mark.parametrize("budget_name", sorted(TALLY_BUDGETS))
@pytest.mark.parametrize("n", [1, 100_001])
@pytest.mark.parametrize("seed", [0, 7, 3_764_114_740, 2**32 - 1])
def test_tally_equals_float_reference(budget_name, n, seed):
    budget = TALLY_BUDGETS[budget_name]()
    assert sample_fates(budget, n, seed) == reference_fates(budget, n, seed)


@pytest.mark.parametrize(
    "edge", [0.0, 2.0**-53, 0.0012401415665121626, 0.3, 0.5, 1.0 - 2.0**-53]
)
def test_word_threshold_splits_words_exactly(edge):
    t = _word_threshold(edge)
    uniform = lambda word: (word >> 11) * 2.0**-53
    assert t == 0 or uniform(t - 1) < edge
    assert uniform(t) >= edge


def test_word_threshold_at_one_counts_every_word():
    assert _word_threshold(1.0) is None
    assert _word_threshold(1.0 + 1e-13) is None


def test_nonpositive_n_rejected():
    with pytest.raises(ValueError, match="positive"):
        sample_fates(make_budget(), 0, 0)
    # a float or a bool is no photon count, seed or index, even an integral one
    for n, seed in [(1e6, 0), (2.5, 0), (10, 3.0), (True, True), (10, False)]:
        with pytest.raises(DomainError, match="must be integers"):
            sample_fates(make_budget(), n, seed)
    for start in (1.0, True):
        with pytest.raises(DomainError, match="must be integers"):
            photon_uniforms(0, start, 3)
    # integral numpy ints still count and index photons
    assert sample_fates(make_budget(), np.int64(10), np.uint32(3)) == sample_fates(
        make_budget(), 10, 3
    )
    assert photon_uniforms(np.int32(1), np.uint64(5), np.int64(3)).tolist() == (
        photon_uniforms(1, 5, 3).tolist()
    )


# ---------------------------------------------------------------------------
# contiguous chunk spans on threads
# ---------------------------------------------------------------------------

SPLIT_N = 100_001


@pytest.mark.parametrize("budget_name", ["reference", "zero-probability-fate"])
@pytest.mark.parametrize(
    "n,chunk_size",
    [(SPLIT_N, 977), (SPLIT_N, 2**15), (SPLIT_N, SPLIT_N - 1), (5_000, 2**15)],
)
@pytest.mark.parametrize("cores", [1, 2, 3, 7])
def test_counts_do_not_depend_on_core_count(monkeypatch, budget_name, n, chunk_size, cores):
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk_size)
    budget = TALLY_BUDGETS[budget_name]()
    assert sample_fates(budget, n, 7) == reference_fates(budget, n, 7)


def test_counts_survive_rapid_thread_switching(monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 7)
    monkeypatch.setattr(montecarlo, "_CHUNK", 977)
    budget = TALLY_BUDGETS["zero-probability-fate"]()
    expected = reference_fates(budget, SPLIT_N, 11)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tallies = [sample_fates(budget, SPLIT_N, 11) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert tallies == [expected] * 5


@pytest.mark.parametrize(
    "n,chunk_size,cores,spans",
    [
        (SPLIT_N, 977, 3, 3),
        (SPLIT_N, 977, 7, 7),
        (8 * 977, 977, 7, 2),  # at least four chunks per span
        (SPLIT_N, 2**15, 7, 1),  # four chunks, one of them short
        (SPLIT_N, SPLIT_N, 2, 1),
    ],
)
def test_spans_are_contiguous_chunk_runs_one_per_thread(monkeypatch, n, chunk_size, cores, spans):
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk_size)
    calls = []

    def record(seed, thresholds, begin, end):
        calls.append((begin, end, threading.current_thread()))
        return [0] * len(thresholds)

    monkeypatch.setattr(montecarlo, "_tally_span", record)
    # the stub counts nothing, so every photon lands in the last fate
    sample_fates(make_budget(), n, 7)
    calls.sort(key=lambda call: call[0])
    assert len(calls) == spans
    assert calls[0][0] == 0 and calls[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
    assert all(begin % chunk_size == 0 and begin < end for begin, end, _ in calls)
    # span 0 runs on the calling thread, every other span on its own thread
    assert calls[0][2] is threading.current_thread()
    assert len({id(thread) for _, _, thread in calls}) == spans


class SpanFailure(Exception):
    pass


def test_error_in_a_worker_span_is_raised_by_the_caller(monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 3)
    monkeypatch.setattr(montecarlo, "_CHUNK", 977)
    tally = montecarlo._tally_span

    def fail_after_zero(seed, thresholds, begin, end):
        if begin > 0:
            raise SpanFailure(f"span at {begin}")
        return tally(seed, thresholds, begin, end)

    monkeypatch.setattr(montecarlo, "_tally_span", fail_after_zero)
    with pytest.raises(SpanFailure, match="span at"):
        sample_fates(make_budget(), SPLIT_N, 7)


@pytest.mark.parametrize("begin,end", [(2**32 - 40_000, 2**32 + 30_000), (2**64 - 70_000, 2**64)])
@pytest.mark.parametrize("chunk_size", [977, 2**15])
def test_span_tally_matches_words_across_counter_edges(monkeypatch, begin, end, chunk_size):
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk_size)
    thresholds = [None, np.uint64(0), np.uint64(2**63), np.uint64(2**64 - 2**11)]
    word = _photon_words(3_764_114_740, begin, end - begin)
    expected = [end - begin, 0, *(int(np.count_nonzero(word < t)) for t in thresholds[2:])]
    assert _tally_span(3_764_114_740, thresholds, begin, end) == expected


def test_span_tally_matches_reference_words_across_counter_edge(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", 977)
    seed, begin, end = 3_764_114_740, 2**32 - 1_500, 2**32 + 1_500
    thresholds = [None, np.uint64(0), np.uint64(2**62), np.uint64(2**63), np.uint64(2**64 - 2**11)]
    words = [philox_reference(seed, i) for i in range(begin, end)]
    expected = [end - begin, *(sum(w < int(t) for w in words) for t in thresholds[1:])]
    assert _tally_span(seed, thresholds, begin, end) == expected


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_estimates_from_rounded_expected_counts(reference_config):
    counts = FateCounts(
        detected_own=997_522,
        absorbed=1_240,
        diffracted_away=1_238,
        diffracted_to_detectors=2,
        seed=0,
        total=1_000_000,
    )
    m = estimate_metrics(counts, reference_config)
    assert m.absorbed_fraction == 0.001240
    assert m.report.visibility_lower == pytest.approx(0.96996, abs=1e-5)
    assert m.report.classical_whichway_lower == pytest.approx(0.99752, abs=1e-6)
    assert m.report.quantum_whichway == 0.0
    # each estimate sits beside its error, the rest of the report follows
    assert list(m.as_dict()) == [
        "absorbed_fraction",
        "absorbed_stderr",
        "visibility_lower",
        "visibility_stderr",
        "classical_whichway_lower",
        "classical_stderr",
        "quantum_whichway",
        "quantum_sum",
        "classical_sum",
        "quantum_inequality_satisfied",
        "classical_sum_below_two",
    ]
    assert m.as_dict()["visibility_lower"] == m.report.visibility_lower


def test_estimator_round_trip_matches_closed_forms(reference_config, reference_budget):
    n = 1_000_000
    expected = reference_budget.expected_counts(n)
    absorbed = round(expected["absorbed"])
    away = round(expected["diffracted_away"])
    todet = round(expected["diffracted_to_detectors"])
    counts = FateCounts(
        detected_own=n - absorbed - away,
        absorbed=absorbed,
        diffracted_away=away,
        diffracted_to_detectors=todet,
        seed=0,
        total=n,
    )
    m = estimate_metrics(counts, reference_config)
    x = reference_budget.absorbed
    y = reference_budget.covered
    # rounding the counts moves x by at most 1/(2n)
    assert abs(m.absorbed_fraction - x) <= 0.5 / n + 1e-15
    assert m.report.visibility_lower == pytest.approx(visibility_lower_bound(x, y), abs=1e-5)
    assert m.report.classical_whichway_lower == pytest.approx(1 - 2 * x, abs=1.1 / n)


def test_zero_absorbed_gives_unit_bounds(reference_config):
    counts = FateCounts(
        detected_own=1000, absorbed=0, diffracted_away=0,
        diffracted_to_detectors=0, seed=0, total=1000,
    )
    m = estimate_metrics(counts, reference_config)
    assert m.report.visibility_lower == 1.0
    assert m.report.classical_whichway_lower == 1.0
    assert m.absorbed_stderr == 0.0


def test_estimator_rejects_majority_absorption(reference_config):
    counts = FateCounts(
        detected_own=200, absorbed=800, diffracted_away=0,
        diffracted_to_detectors=0, seed=0, total=1000,
    )
    with pytest.raises(DomainError, match="1/2"):
        estimate_metrics(counts, reference_config)


def test_stderr_scales_inverse_root_n(reference_config, reference_budget):
    m4 = estimate_metrics(sample_fates(reference_budget, 10_000, 1), reference_config)
    m6 = estimate_metrics(sample_fates(reference_budget, 1_000_000, 1), reference_config)
    assert m4.absorbed_stderr / m6.absorbed_stderr == pytest.approx(10.0, rel=0.10)
    assert m4.classical_stderr / m6.classical_stderr == pytest.approx(10.0, rel=0.10)
    assert m4.visibility_stderr / m6.visibility_stderr == pytest.approx(10.0, rel=0.15)


def test_reported_stderr_matches_spread_across_seeds(reference_budget, reference_config):
    # empirical spread of x_hat over 1500 seeds at n = 1e4 against the
    # binomial formula the estimator reports
    n = 10_000
    xs = np.array(
        [sample_fates(reference_budget, n, seed).absorbed / n for seed in range(1500)]
    )
    theory = math.sqrt(reference_budget.absorbed * (1 - reference_budget.absorbed) / n)
    assert xs.std(ddof=1) == pytest.approx(theory, rel=0.10)


def test_consistency_across_thousand_seeds(reference_budget):
    n = 100_000
    x = reference_budget.absorbed
    bound = 5 * math.sqrt(x * (1 - x) / n)
    hits = sum(
        abs(sample_fates(reference_budget, n, seed).absorbed / n - x) < bound
        for seed in range(1000)
    )
    assert hits >= 999
