"""Measurement toolkit: rank correlation, valid-model classification,
exact hypervolume, non-parametric tests and Gaussian product-kernel KDE."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    ContractError,
    DegenerateBandwidthError,
    UndefinedCorrelationError,
)

logger = logging.getLogger(__name__)

SPREAD_THRESHOLD_M = 2.0
SYMMETRY_THRESHOLD_M = 1.0
FINAL_POSITION_THRESHOLD_M = 40.0
_PERMUTATION_BLOCK = 1_000  # shuffles per drawn array: bounds memory at 1,000 x n floats


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    p_value: float
    n: int

    def to_dict(self) -> dict:
        return {"coefficient": self.coefficient, "p_value": self.p_value, "n": self.n}


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    spread_ok: bool
    symmetry_ok: bool
    final_position_ok: bool
    measured: tuple[float, float, float]  # (max |x|, mean final x, mean final y displacement)

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "spread_ok": self.spread_ok,
            "symmetry_ok": self.symmetry_ok,
            "final_position_ok": self.final_position_ok,
            "measured": {
                "max_abs_x": self.measured[0],
                "mean_final_x": self.measured[1],
                "mean_final_y": self.measured[2],
            },
        }


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; ties share their mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def _permutation_p(statistic, sample: np.ndarray, observed: float, resamples: int, seed: int) -> float:
    """Add-one p-value: the share of `resamples` shuffles of `sample` whose
    |statistic| reaches `observed`. `statistic` maps a (rows, n) block of
    shuffles to one value per row. Blocks are drawn from one generator and
    hold the same rows as one `rng.permutation(sample)` call per resample."""
    rng = np.random.default_rng(seed)
    count = 0
    for start in range(0, resamples, _PERMUTATION_BLOCK):
        rows = min(_PERMUTATION_BLOCK, resamples - start)
        perms = rng.permuted(np.tile(sample, (rows, 1)), axis=1)
        count += int((np.abs(statistic(perms)) >= observed - 1e-12).sum())
    return (count + 1) / (resamples + 1)


def spearman(
    x: Sequence[float],
    y: Sequence[float],
    resamples: int = 10_000,
    seed: int = 0,
) -> CorrelationResult:
    """Rank correlation with a permutation p-value for n < 500 and the
    t-approximation otherwise."""
    if len(x) != len(y):
        raise ContractError(f"series lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ContractError(f"need at least 3 samples, got {n}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise UndefinedCorrelationError("rank correlation undefined for a constant series")

    rx = _average_ranks(xa)
    ry = _average_ranks(ya)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx * rx).sum()) * float((ry * ry).sum()))
    rho = float((rx * ry).sum()) / denom

    if n < 500:
        p = _permutation_p(lambda perms: (rx * perms).sum(axis=1) / denom,
                           ry, abs(rho), resamples, seed)
    else:
        if abs(rho) >= 1.0:
            p = 0.0
        else:
            from scipy.stats import t as student_t  # most of the package's import time

            t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
            p = float(2.0 * student_t.sf(abs(t_stat), n - 2))
    return CorrelationResult(coefficient=rho, p_value=min(1.0, p), n=n)


def classify_validity(predicted_test) -> ValidityReport:
    """Spread / symmetry / final-position classification of one model's
    predicted test trajectories, a (P, tau, 3) array. Thresholds are
    boundary-exact: spread and final position strictly exceed, symmetry is
    an inclusive bound."""
    predicted = np.asarray(predicted_test, dtype=float)
    if not len(predicted):
        raise ContractError("need at least one predicted sequence")
    max_abs_x = float(np.abs(predicted[..., 0]).max())
    mean_final_x = float(predicted[:, -1, 0].mean())
    mean_final_dy = float((predicted[:, -1, 1] - predicted[:, 0, 1]).mean())

    spread_ok = max_abs_x > SPREAD_THRESHOLD_M
    symmetry_ok = abs(mean_final_x) <= SYMMETRY_THRESHOLD_M
    final_position_ok = mean_final_dy > FINAL_POSITION_THRESHOLD_M
    return ValidityReport(
        valid=spread_ok and symmetry_ok and final_position_ok,
        spread_ok=spread_ok,
        symmetry_ok=symmetry_ok,
        final_position_ok=final_position_ok,
        measured=(max_abs_x, mean_final_x, mean_final_dy),
    )


def _hv_2d(points: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    hv = 0.0
    best_f2 = ref[1]
    for f1, f2 in sorted(points):
        if f2 < best_f2:
            hv += (ref[0] - f1) * (best_f2 - f2)
            best_f2 = f2
    return hv


def _hv_3d(points: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    pts = sorted(points, key=lambda p: p[2])
    hv = 0.0
    active: list[tuple[float, ...]] = []
    i = 0
    n = len(pts)
    while i < n:
        z = pts[i][2]
        while i < n and pts[i][2] == z:
            active.append((pts[i][0], pts[i][1]))
            i += 1
        z_next = pts[i][2] if i < n else ref[2]
        if z_next > z:
            hv += _hv_2d(active, (ref[0], ref[1])) * (z_next - z)
    return hv


def hypervolume(front: Sequence[Sequence[float]], ref: Sequence[float]) -> float:
    """Exact Lebesgue measure of the space dominated by `front` and bounded
    by `ref` (minimization). Points not componentwise <= ref are dropped
    with a logged warning."""
    ref_t = tuple(float(v) for v in ref)
    m = len(ref_t)
    if m not in (2, 3):
        raise ConfigurationError(f"hypervolume supports 2 or 3 objectives, got {m}")
    points = [tuple(float(v) for v in p) for p in front]
    for p in points:
        if len(p) != m:
            raise ContractError(f"front point of dimension {len(p)}, reference of {m}")
    kept = [p for p in points if all(v <= r for v, r in zip(p, ref_t))]
    dropped = len(points) - len(kept)
    if dropped:
        logger.warning("hypervolume: dropped %d point(s) beyond the reference", dropped)
    if not kept:
        logger.warning("hypervolume: empty front after filtering, returning 0")
        return 0.0
    return _hv_2d(kept, ref_t) if m == 2 else _hv_3d(kept, ref_t)


def permutation_test(
    a: Sequence[float],
    b: Sequence[float],
    resamples: int = 10_000,
    seed: int = 0,
) -> float:
    """Two-sided p-value for |mean(a) - mean(b)| under random relabeling,
    with the add-one correction."""
    if len(a) == 0 or len(b) == 0:
        raise ContractError("both samples must be non-empty")
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    observed = abs(float(aa.mean()) - float(bb.mean()))
    n1 = len(aa)
    return _permutation_p(lambda perms: perms[:, :n1].mean(axis=1) - perms[:, n1:].mean(axis=1),
                          np.concatenate([aa, bb]), observed, resamples, seed)


def ranksum_test(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided independent-sample rank-sum p-value, normal approximation
    with tie correction."""
    if len(a) == 0 or len(b) == 0:
        raise ContractError("both samples must be non-empty")
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    pooled = np.concatenate([aa, bb])
    ranks = _average_ranks(pooled)
    n1, n2 = len(aa), len(bb)
    n = n1 + n2
    r1 = float(ranks[:n1].sum())
    mu = n1 * (n + 1) / 2.0
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float((counts.astype(float) ** 3 - counts).sum()) / (n * (n - 1)) if n > 1 else 0.0
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        return 1.0
    z = (r1 - mu) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


def bonferroni(alpha: float, comparisons: int) -> float:
    """Adjusted significance level alpha / comparisons."""
    if comparisons < 1:
        raise ContractError(f"comparisons must be >= 1, got {comparisons}")
    return alpha / comparisons


def scott_bandwidths(samples: np.ndarray) -> np.ndarray:
    """Per-dimension bandwidth sigma_k * n^(-1 / (d + 4))."""
    s = np.asarray(samples, dtype=float)
    n, d = s.shape
    sigma = s.std(axis=0, ddof=1)
    if np.any(sigma == 0):
        raise DegenerateBandwidthError("zero variance in at least one dimension")
    return sigma * n ** (-1.0 / (d + 4))


def kde_density(samples: Sequence, grid: Sequence) -> np.ndarray:
    """Gaussian product-kernel density of `samples` evaluated at `grid`."""
    s = np.asarray(samples, dtype=float)
    g = np.asarray(grid, dtype=float)
    if s.ndim != 2 or s.shape[1] not in (2, 3):
        raise ConfigurationError("samples must be an (n, d) array with d in {2, 3}")
    if s.shape[0] < 2:
        raise ContractError(f"need at least 2 samples, got {s.shape[0]}")
    if g.ndim != 2 or g.shape[1] != s.shape[1]:
        raise ContractError("grid dimension must match sample dimension")
    n, d = s.shape
    h = scott_bandwidths(s)
    norm = n * float(np.prod(h)) * (2.0 * math.pi) ** (d / 2.0)

    densities = np.empty(len(g), dtype=float)
    chunk = max(1, 2_000_000 // max(1, n))
    for start in range(0, len(g), chunk):
        block = g[start:start + chunk]
        diff = (block[:, None, :] - s[None, :, :]) / h
        densities[start:start + len(block)] = np.exp(-0.5 * (diff ** 2).sum(axis=2)).sum(axis=1) / norm
    return densities
