"""Single-photon Monte Carlo over the fate budget.

Each photon's randomness comes from a counter-based generator keyed by the
seed and indexed by the photon number (Philox 2x32 with 10 rounds, the
standard Random123 construction), so tallies are bit-identical no matter
how the photon range is chunked or parallelized.  ``sample_fates`` walks
the range in cache-sized chunks (2**15 photons by default) and tallies
each photon by comparing its raw 64-bit Philox word with integer
thresholds, which is exactly equivalent to comparing the 53-bit uniform
``photon_uniforms`` returns with the cumulative fate probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import PhotonBudget
from .complementarity import (
    ComplementarityReport,
    classical_whichway,
    complementarity_report,
    quantum_whichway,
    visibility_lower_bound,
)
from .config import ExperimentConfig, validate_config
from .errors import DomainError

_PHILOX_M = np.uint64(0xD256D193)
_PHILOX_W = np.uint64(0x9E3779B9)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


def _philox2x32_10(lo: np.ndarray, hi: np.ndarray, key: int) -> tuple[np.ndarray, np.ndarray]:
    """Philox2x32-10 (Salmon et al., SC'11) on counters (lo, hi) held in uint64.

    Returns the two output words in Random123 order, each below 2**32.  The
    rounds run in place on copies, so the caller's arrays are left as given.
    """
    lo = np.array(lo, dtype=np.uint64)
    hi = np.array(hi, dtype=np.uint64)
    prod = np.empty_like(lo)
    k = np.uint64(key)
    for _ in range(10):
        np.multiply(lo, _PHILOX_M, out=prod)  # operands < 2^32, exact in uint64
        # prod >> 32, hi and k are all below 2^32, so the new lo needs no mask
        np.right_shift(prod, _SHIFT32, out=lo)
        lo ^= hi
        lo ^= k
        np.bitwise_and(prod, _MASK32, out=hi)
        k = (k + _PHILOX_W) & _MASK32
    return lo, hi


def _photon_words(seed: int, start: int, count: int) -> np.ndarray:
    """The 64-bit Philox words of photons [start, start + count) under seed.

    The photon index is the counter (low word, high word), the seed is the
    key, and the first output word is the high half of the result.
    """
    seed, start, count = int(seed), int(start), int(count)
    if not 0 <= seed < 2**32:
        raise DomainError(f"seed must lie in [0, 2**32), got {seed}")
    if start < 0 or count < 0 or start + count > 2**64:
        raise DomainError(
            "photon range needs 0 <= start, 0 <= count and start + count <= 2**64, "
            f"got start={start}, count={count}"
        )
    idx = np.arange(start, start + count, dtype=np.uint64)
    word, hi = _philox2x32_10(idx & _MASK32, idx >> _SHIFT32, seed)
    word <<= _SHIFT32
    word |= hi
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
        return {
            "detected_own": self.detected_own,
            "absorbed": self.absorbed,
            "diffracted_away": self.diffracted_away,
            "diffracted_to_detectors": self.diffracted_to_detectors,
            "seed": self.seed,
            "total": self.total,
        }


def sample_fates(
    budget: PhotonBudget, n: int, seed: int, chunk_size: int = 1 << 15
) -> FateCounts:
    """Draw n photon fates from the budget's categorical distribution.

    Probabilities are (undisturbed-detected, absorbed, diffracted-away,
    diffracted-to-detector); the result is deterministic in (budget, n,
    seed) and independent of ``chunk_size``.  Photon i takes the first fate
    whose cumulative probability exceeds its uniform u_i from
    ``photon_uniforms``.  Without building the uniforms, each chunk counts
    the Philox words below ``ceil(e * 2**53) * 2**11`` for each cumulative
    probability e < 1, which is exactly the test u_i < e.  The default
    chunk of 2**15 photons keeps the working arrays in cache.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if chunk_size < 1:
        raise ValueError("chunk_size must be a positive integer")
    p = np.array(budget.fate_probabilities(), dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise DomainError(f"fate probabilities outside [0, 1]: {p.tolist()}")
    if abs(p.sum() - 1.0) > 1e-12:
        raise DomainError(f"fate probabilities sum to {p.sum()!r}, not 1")
    # the last edge is 1, which every uniform lies below
    thresholds = [_word_threshold(edge) for edge in np.cumsum(p)[:-1]]
    below = [0] * len(thresholds)  # photons whose fate index is <= k
    for start in range(0, n, chunk_size):
        count = min(chunk_size, n - start)
        word = _photon_words(seed, start, count)
        for k, t in enumerate(thresholds):
            below[k] += count if t is None else int(np.count_nonzero(word < t))
    cumulative = [0, *below, n]
    undisturbed, absorbed, away, to_det = (b - a for a, b in zip(cumulative, cumulative[1:]))
    return FateCounts(
        detected_own=undisturbed + to_det,
        absorbed=absorbed,
        diffracted_away=away,
        diffracted_to_detectors=to_det,
        seed=int(seed),
        total=n,
    )


@dataclass(frozen=True)
class EmpiricalMetrics:
    """Point estimates recovered from tallies, with delta-method errors."""

    absorbed_fraction: float
    absorbed_stderr: float
    visibility_lower: float
    visibility_stderr: float
    classical_whichway_lower: float
    classical_stderr: float
    report: ComplementarityReport

    def as_dict(self) -> dict:
        out = {
            "absorbed_fraction": self.absorbed_fraction,
            "absorbed_stderr": self.absorbed_stderr,
            "visibility_lower": self.visibility_lower,
            "visibility_stderr": self.visibility_stderr,
            "classical_whichway_lower": self.classical_whichway_lower,
            "classical_stderr": self.classical_stderr,
        }
        out.update(self.report.as_dict())
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
    and which-way errors follow by the first-order delta method.
    """
    validate_config(config)
    if counts.total <= 0:
        raise ValueError("counts.total must be positive")
    x_hat = counts.absorbed / counts.total
    if x_hat > 0.5:
        raise DomainError(
            f"absorbed fraction estimate {x_hat:g} exceeds 1/2; classical bound undefined"
        )
    y = config.wire_count * config.wire_thickness / config.beam_side
    se_x = math.sqrt(x_hat * (1.0 - x_hat) / counts.total)
    v = visibility_lower_bound(x_hat, y)
    k = classical_whichway(x_hat)
    report = complementarity_report(quantum_whichway(), k, v)
    return EmpiricalMetrics(
        absorbed_fraction=x_hat,
        absorbed_stderr=se_x,
        visibility_lower=v,
        visibility_stderr=abs(_visibility_slope(x_hat, y)) * se_x,
        classical_whichway_lower=k,
        classical_stderr=2.0 * se_x,
        report=report,
    )
