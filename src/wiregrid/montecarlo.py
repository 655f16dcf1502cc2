"""Single-photon Monte Carlo over the fate budget.

Each photon's randomness comes from a counter-based generator keyed by the
seed and indexed by the photon number (Philox 2x32 with 10 rounds, the
standard Random123 construction), so tallies are bit-identical no matter
how the photon range is chunked or parallelized.  One routine,
``_philox_words``, keeps each photon's state in one uint64 and fills a
caller-given pair of arrays with the photons' 64-bit words for both
``photon_uniforms`` and ``sample_fates`` in 47 numpy calls.
``sample_fates`` splits the range into contiguous spans of fixed
2**16-photon chunks, at most one span per usable core and at least four
chunks per span, and tallies the spans on threads.  Each span reuses one
workspace for every chunk and tallies each photon by comparing its word
with integer thresholds, which is exactly equivalent to comparing its
53-bit uniform with the cumulative fate probabilities.  Tallies add up over
any partition of the photon range, so the counts depend neither on the
chunking nor on the core count.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .complementarity import ComplementarityReport, coverage_fraction, fraction_report
from .config import ExperimentConfig
from .errors import DomainError

_PHILOX_M = np.uint64(0xD256D193)
_PHILOX_W = 0x9E3779B9
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
# Photons per chunk: a span's working set, the step array and the two
# state arrays, is 3 * 512 KiB = 1.5 MiB and fits a 2 MiB per-core L2.
_CHUNK = 1 << 16
# A span on its own thread pays for the thread and for handing the
# interpreter lock back and forth around each of the 47 numpy calls per
# chunk.  On a loaded 2-core host two threads over the two chunks of 10**5
# photons ran slower than one, so no span gets fewer chunks than this.
_MIN_SPAN_CHUNKS = 4


def _philox_words(scaled, start: int, key: int, word, spare) -> None:
    """Fill word with the 64-bit Philox words of photons start + i under key.

    Philox2x32-10 (Salmon et al., SC'11): the photon index is the counter
    (low word L, high word R), the key is the seed, and the first output
    word is the high half of the result.  Each photon's state is one
    uint64 (L << 32) | R, so after round 10 it is the word itself.
    scaled[i] is i times the multiplier M; scaled, word and spare are
    uint64 arrays of one shape, spare is scratch.  The range is split at
    each 2**32 counter edge, so the high counter word is a constant.
    """
    edge = 2**32 - start % 2**32
    if edge < len(word):
        rest = len(word) - edge
        _philox_words(scaled[:edge], start, key, word[:edge], spare[:edge])
        _philox_words(scaled[:rest], start + edge, key, word[edge:], spare[edge:])
        return
    # round 1: L * M < 2**64 is scaled + (start mod 2**32) * M, and R ^ key
    # lands in the high half
    state, other = spare, word
    np.add(scaled, np.uint64(start % 2**32 * int(_PHILOX_M)), out=state)
    state ^= np.uint64(((start >> 32) ^ key) << 32)
    for r in range(1, 10):
        # the new state is L * M xored by (R ^ k) << 32; L * M < 2**64
        np.right_shift(state, _SHIFT32, out=other)
        other *= _PHILOX_M
        state ^= np.uint64((key + r * _PHILOX_W) % 2**32)
        state <<= _SHIFT32
        other ^= state
        state, other = other, state
    # nine swaps after round 1 wrote spare, round 10 wrote word


def _check_photon_range(seed: int, start: int, count: int) -> tuple[int, int, int]:
    """(seed, start, count) as ints, or DomainError if they leave the generator's domain.

    Each must be an integer (a Python or numpy int), not a float such as 1e6
    or a bool.
    """
    try:
        if any(isinstance(v, bool) for v in (seed, start, count)):
            raise TypeError
        seed, start, count = (operator.index(v) for v in (seed, start, count))
    except TypeError:
        raise DomainError(
            f"seed, start and count must be integers, got {seed!r}, {start!r}, {count!r}"
        ) from None
    if not 0 <= seed < 2**32:
        raise DomainError(f"seed must lie in [0, 2**32), got {seed}")
    if start < 0 or count < 0 or start + count > 2**64:
        raise DomainError(
            "photon range needs 0 <= start, 0 <= count and start + count <= 2**64, "
            f"got start={start}, count={count}"
        )
    return seed, start, count


def _photon_words(seed: int, start: int, count: int) -> np.ndarray:
    """The 64-bit Philox words of photons [start, start + count) under seed."""
    seed, start, count = _check_photon_range(seed, start, count)
    word, spare = np.empty((2, count), dtype=np.uint64)
    scaled = np.arange(count, dtype=np.uint64) * _PHILOX_M
    # only an empty range may start at 2**64, one past the last counter
    _philox_words(scaled, start % 2**64, seed, word, spare)
    return word


def photon_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles in [0, 1) for photon indices [start, start + count).

    u_i depends only on (seed, i): the 64-bit photon index is the Philox
    counter, the seed is the key, and the two output words form the 53-bit
    mantissa.  Seeds must lie in [0, 2**32) so distinct seeds never alias,
    and the photon range must lie in [0, 2**64) so the counter never wraps.
    """
    return (_photon_words(seed, start, count) >> _SHIFT11).astype(np.float64) * 2.0**-53


def _word_threshold(edge: float) -> np.uint64 | None:
    """T with ``word < T`` exactly when ``(word >> 11) * 2**-53 < edge``.

    ``(word >> 11) < ceil(edge * 2**53)`` is the same test on integers, and
    edge * 2**53 is exact in floating point.  Returns None for an edge of
    1 or more, below which every word lies (T would be 2**64).
    """
    if edge >= 1.0:
        return None
    return np.uint64(math.ceil(edge * 2.0**53) << 11)


@dataclass(frozen=True)
class FateCounts:
    """Tallies of the exclusive fates plus the seed that produced them.

    ``diffracted_to_detectors`` is the subset of ``detected_own`` whose
    photons arrived by diffraction and therefore carry no path information.
    """

    detected_own: int
    absorbed: int
    diffracted_away: int
    diffracted_to_detectors: int
    seed: int
    total: int

    def __post_init__(self):
        counts = (
            self.detected_own,
            self.absorbed,
            self.diffracted_away,
            self.diffracted_to_detectors,
        )
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        if self.diffracted_to_detectors > self.detected_own:
            raise ValueError("diffracted_to_detectors is a subset of detected_own")
        if self.detected_own + self.absorbed + self.diffracted_away != self.total:
            raise ValueError("exclusive fates must sum to the total")

    def as_dict(self) -> dict:
        return asdict(self)


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tally_span(seed: int, thresholds: list, begin: int, end: int) -> list[int]:
    """For each threshold, how many photons in [begin, end) have a word below it.

    One workspace of ``_CHUNK`` (or fewer) photons is allocated here and
    reused for every chunk of the span; a threshold of None counts every
    photon.  The other thresholds must ascend: each is counted on the words
    at or above the one before it, so only the first reads the whole chunk.
    The words are those of ``_photon_words(seed, begin, end - begin)``.
    """
    size = min(_CHUNK, end - begin)
    scaled = np.arange(size, dtype=np.uint64) * _PHILOX_M
    word, spare = np.empty((2, size), dtype=np.uint64)
    below = [0] * len(thresholds)
    for start in range(begin, end, _CHUNK):
        count = min(_CHUNK, end - start)
        if count < size:  # only the last chunk is short
            scaled, word, spare = scaled[:count], word[:count], spare[:count]
        _philox_words(scaled, start, seed, word, spare)
        tail = word
        for k, t in enumerate(thresholds):
            if t is None:
                below[k] += count
            else:
                tail = tail[tail >= t]
                below[k] += count - len(tail)
    return below


def sample_fates(budget: PhotonBudget, n: int, seed: int) -> FateCounts:
    """Draw n photon fates from the budget's categorical distribution.

    Probabilities are (undisturbed-detected, absorbed, diffracted-away,
    diffracted-to-detector), which ``PhotonBudget`` guarantees to be a
    distribution; the result is deterministic in (budget, n, seed) and
    independent of the chunking and of the number of cores.
    Photon i takes the first fate whose cumulative probability exceeds its
    uniform u_i from ``photon_uniforms``.  Without building the uniforms,
    each chunk counts the Philox words below ``ceil(e * 2**53) * 2**11`` for
    each cumulative probability e < 1, which is exactly the test u_i < e.
    The fixed chunk of ``_CHUNK`` (2**16) photons keeps the working arrays
    in cache.  The chunks are split into contiguous spans, at most one per
    usable core and at least ``_MIN_SPAN_CHUNKS`` chunks each (so a short
    range is one span); the first span runs on the calling thread and each
    other span on its own thread, and the spans' counts are summed.
    """
    seed, _, n = _check_photon_range(seed, 0, n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    # the last edge is 1, which every uniform lies below
    thresholds = [_word_threshold(edge) for edge in np.cumsum(budget.fate_probabilities())[:-1]]
    chunks = -(-n // _CHUNK)
    spans = max(1, min(_usable_cores(), chunks // _MIN_SPAN_CHUNKS))
    bounds = [min(n, j * chunks // spans * _CHUNK) for j in range(spans + 1)]
    tallies: list = [None] * spans

    def tally(j: int) -> None:
        try:
            tallies[j] = _tally_span(seed, thresholds, bounds[j], bounds[j + 1])
        except BaseException as exc:  # re-raised on the calling thread
            tallies[j] = exc

    workers = [threading.Thread(target=tally, args=(j,)) for j in range(1, spans)]
    for worker in workers:
        worker.start()
    tally(0)
    for worker in workers:
        worker.join()
    for result in tallies:
        if isinstance(result, BaseException):
            raise result
    below = [sum(column) for column in zip(*tallies)]  # photons whose fate index is <= k
    cumulative = [0, *below, n]
    undisturbed, absorbed, away, to_det = (b - a for a, b in zip(cumulative, cumulative[1:]))
    return FateCounts(
        detected_own=undisturbed + to_det,
        absorbed=absorbed,
        diffracted_away=away,
        diffracted_to_detectors=to_det,
        seed=seed,
        total=n,
    )


@dataclass(frozen=True)
class EmpiricalMetrics:
    """Point estimates recovered from tallies, with delta-method errors.

    The V and K' estimates themselves are ``report.visibility_lower`` and
    ``report.classical_whichway_lower``.
    """

    absorbed_fraction: float
    absorbed_stderr: float
    visibility_stderr: float
    classical_stderr: float
    report: ComplementarityReport

    def as_dict(self) -> dict:
        """Each estimate beside its error, then the rest of the report."""
        report = self.report.as_dict()
        out = {
            "absorbed_fraction": self.absorbed_fraction,
            "absorbed_stderr": self.absorbed_stderr,
            "visibility_lower": report.pop("visibility_lower"),
            "visibility_stderr": self.visibility_stderr,
            "classical_whichway_lower": report.pop("classical_whichway_lower"),
            "classical_stderr": self.classical_stderr,
        }
        out.update(report)
        return out


def _visibility_slope(x: float, y: float) -> float:
    """dV/dx of the visibility lower bound at fixed coverage."""
    a = (1.0 - x) / (1.0 - y)
    u = x / y
    da = -1.0 / (1.0 - y)
    du = 1.0 / y
    return 2.0 * (da * u - a * du) / (a + u) ** 2


def estimate_metrics(counts: FateCounts, config: ExperimentConfig) -> EmpiricalMetrics:
    """Recover x, V and K' estimates from tallies.

    x_hat = absorbed / total with binomial standard error; the visibility
    and which-way errors follow by the first-order delta method.  An
    x_hat above 1/2 leaves the classical bound undefined (DomainError).
    """
    y = coverage_fraction(config)
    if counts.total <= 0:
        raise ValueError("counts.total must be positive")
    x_hat = counts.absorbed / counts.total
    report = fraction_report(x_hat, y)
    se_x = math.sqrt(x_hat * (1.0 - x_hat) / counts.total)
    return EmpiricalMetrics(
        absorbed_fraction=x_hat,
        absorbed_stderr=se_x,
        visibility_stderr=abs(_visibility_slope(x_hat, y)) * se_x,
        classical_stderr=2.0 * se_x,
        report=report,
    )
