"""Single-photon Monte Carlo over the fate budget.

Each photon's randomness comes from a counter-based generator keyed by the
seed and indexed by the photon number (Philox 2x32 with 10 rounds, the
standard Random123 construction), so tallies are bit-identical no matter
how the photon range is chunked or parallelized.
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


def _philox2x32_10(lo: np.ndarray, hi: np.ndarray, key: int) -> tuple[np.ndarray, np.ndarray]:
    """Philox2x32-10 (Salmon et al., SC'11) on counters (lo, hi) held in uint64.

    Returns the two output words in Random123 order, each below 2**32.
    """
    k = np.uint64(key)
    for _ in range(10):
        prod = _PHILOX_M * lo  # operands < 2^32, exact in uint64
        lo, hi = ((prod >> np.uint64(32)) ^ k ^ hi) & _MASK32, prod & _MASK32
        k = (k + _PHILOX_W) & _MASK32
    return lo, hi


def photon_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles in [0, 1) for photon indices [start, start + count).

    u_i depends only on (seed, i): the 64-bit photon index is the Philox
    counter, the seed is the key, and the two output words form the 53-bit
    mantissa.  Seeds must lie in [0, 2**32) so distinct seeds never alias.
    """
    seed = int(seed)
    if not 0 <= seed < 2**32:
        raise DomainError(f"seed must lie in [0, 2**32), got {seed}")
    idx = np.arange(start, start + count, dtype=np.uint64)
    lo, hi = _philox2x32_10(idx & _MASK32, idx >> np.uint64(32), seed)
    word = (lo << np.uint64(32)) | hi
    return (word >> np.uint64(11)).astype(np.float64) * 2.0**-53


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
    budget: PhotonBudget, n: int, seed: int, chunk_size: int = 1 << 20
) -> FateCounts:
    """Draw n photon fates from the budget's categorical distribution.

    Probabilities are (undisturbed-detected, absorbed, diffracted-away,
    diffracted-to-detector); the result is deterministic in (budget, n,
    seed) and independent of ``chunk_size``.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    p = np.array(budget.fate_probabilities(), dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise DomainError(f"fate probabilities outside [0, 1]: {p.tolist()}")
    if abs(p.sum() - 1.0) > 1e-12:
        raise DomainError(f"fate probabilities sum to {p.sum()!r}, not 1")
    edges = np.cumsum(p)
    edges[-1] = 1.0  # guard the open interval against rounding
    tallies = np.zeros(4, dtype=np.int64)
    for start in range(0, n, chunk_size):
        count = min(chunk_size, n - start)
        u = photon_uniforms(seed, start, count)
        fate = np.searchsorted(edges, u, side="right")
        tallies += np.bincount(fate, minlength=4)
    undisturbed, absorbed, away, to_det = (int(t) for t in tallies)
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
    report = complementarity_report(quantum_whichway(True), k, v)
    return EmpiricalMetrics(
        absorbed_fraction=x_hat,
        absorbed_stderr=se_x,
        visibility_lower=v,
        visibility_stderr=abs(_visibility_slope(x_hat, y)) * se_x,
        classical_whichway_lower=k,
        classical_stderr=2.0 * se_x,
        report=report,
    )
