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


def _finite_array(values, what: str) -> np.ndarray:
    """`values` as a float array; a NaN or infinity raises ContractError."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ContractError(f"{what} hold a non-finite value")
    return arr


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta I_x(a, b), evaluated by the
    modified Lentz method (Press et al., Numerical Recipes, section 6.4)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t_two_sided(rho: float, df: int) -> float:
    """Two-sided tail of Student's t for Spearman's t statistic with `df`
    degrees of freedom. There df / (df + t^2) is 1 - rho^2, so the tail is
    the regularized incomplete beta I_{1 - rho^2}(df / 2, 1 / 2). Needs
    df >= 50; `spearman` calls it from df = 498 on."""
    rho2 = rho * rho
    if rho2 == 0.0:
        return 1.0
    a, b = df / 2.0, 0.5
    # log(Gamma(a + 1/2) / Gamma(a)) by its asymptotic series, whose first
    # omitted term is below 5e-16 from a = 25. The lgamma difference would
    # lose about log10(a log a) digits: 4.5e-11 absolute at a = 29,494.
    log_ratio = (0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a ** 3)
                 - 1.0 / (640.0 * a ** 5) + 17.0 / (14336.0 * a ** 7))
    log_front = log_ratio - math.lgamma(b) + a * math.log1p(-rho2) + b * math.log(rho2)
    if 1.0 - rho2 < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, 1.0 - rho2) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, rho2) / b


def spearman(
    x: Sequence[float],
    y: Sequence[float],
    resamples: int = 10_000,
    seed: int = 0,
) -> CorrelationResult:
    """Rank correlation with a permutation p-value for n < 500 and, from
    n = 500 on, the two-sided Student's t tail on n - 2 degrees of freedom,
    computed as a regularized incomplete beta. A NaN or infinity in either
    series raises ContractError."""
    if len(x) != len(y):
        raise ContractError(f"series lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ContractError(f"need at least 3 samples, got {n}")
    xa = _finite_array(x, "series")
    ya = _finite_array(y, "series")
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
        p = 0.0 if abs(rho) >= 1.0 else _t_two_sided(rho, n - 2)
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


def _swept_areas(f1: np.ndarray, f2: np.ndarray, ref0: float, ref1: float) -> np.ndarray:
    """Area each row of points dominates within (ref0, ref1). Points are
    sorted by (f1, f2); a row's f2 holds ref1 where a point is inactive.
    Gains add in sweep order, as one running `hv +=` would."""
    best = np.minimum.accumulate(
        np.concatenate([np.full((len(f2), 1), ref1), f2[:, :-1]], axis=1), axis=1)
    gain = np.where(f2 < best, (ref0 - f1) * (best - f2), 0.0)
    return np.cumsum(gain, axis=1)[:, -1]


def hypervolume(front: np.ndarray | Sequence[Sequence[float]], ref: Sequence[float]) -> float:
    """Exact Lebesgue measure of the space dominated by `front`, an (n, m)
    array or a sequence of points, and bounded by `ref` (minimization).
    Points not componentwise <= ref are dropped with a logged warning. A NaN
    or infinity in either raises ContractError."""
    ref_t = tuple(float(v) for v in _finite_array(ref, "reference coordinates"))
    m = len(ref_t)
    if m not in (2, 3):
        raise ConfigurationError(f"hypervolume supports 2 or 3 objectives, got {m}")
    try:
        points = _finite_array(front, "front points")
    except ValueError as exc:
        raise ContractError(f"front points of unequal dimension: {exc}") from exc
    if len(points) and (points.ndim != 2 or points.shape[1] != m):
        raise ContractError(f"front points of shape {points.shape[1:]}, reference of dimension {m}")
    points = points.reshape(-1, m)
    kept = points[(points <= np.array(ref_t)).all(axis=1)]
    dropped = len(points) - len(kept)
    if dropped:
        logger.warning("hypervolume: dropped %d point(s) beyond the reference", dropped)
    if not len(kept):
        logger.warning("hypervolume: empty front after filtering, returning 0")
        return 0.0
    kept = kept[np.lexsort((kept[:, 1], kept[:, 0]))]
    f1, f2 = kept[:, 0], kept[:, 1]
    if m == 2:
        return float(_swept_areas(f1, f2[None, :], ref_t[0], ref_t[1])[0])
    # One sweep per distinct z level over the points at or below it, times
    # the depth to the next level. Levels go in blocks of about 200,000
    # elements, because the sweep holds several float64 temporaries of a
    # block: a random 4,000-point front peaks at 8.5 MB under tracemalloc.
    z = kept[:, 2]
    levels = np.unique(z)
    depths = np.append(levels[1:], ref_t[2]) - levels
    hv = 0.0
    rows = max(1, 200_000 // len(kept))
    for start in range(0, len(levels), rows):
        block, depth = levels[start:start + rows], depths[start:start + rows]
        areas = _swept_areas(f1, np.where(z <= block[:, None], f2, ref_t[1]), ref_t[0], ref_t[1])
        hv = np.cumsum(np.concatenate([[hv], np.where(depth > 0, areas * depth, 0.0)]))[-1]
    return float(hv)


def permutation_test(
    a: Sequence[float],
    b: Sequence[float],
    resamples: int = 10_000,
    seed: int = 0,
) -> float:
    """Two-sided p-value for |mean(a) - mean(b)| under random relabeling,
    with the add-one correction. A NaN or infinity raises ContractError."""
    if len(a) == 0 or len(b) == 0:
        raise ContractError("both samples must be non-empty")
    aa = _finite_array(a, "samples")
    bb = _finite_array(b, "samples")
    observed = abs(float(aa.mean()) - float(bb.mean()))
    n1 = len(aa)
    return _permutation_p(lambda perms: perms[:, :n1].mean(axis=1) - perms[:, n1:].mean(axis=1),
                          np.concatenate([aa, bb]), observed, resamples, seed)


def ranksum_test(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided independent-sample rank-sum p-value, normal approximation
    with tie correction. A NaN or infinity raises ContractError."""
    if len(a) == 0 or len(b) == 0:
        raise ContractError("both samples must be non-empty")
    aa = _finite_array(a, "samples")
    bb = _finite_array(b, "samples")
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
    if not 0.0 < alpha < 1.0:
        raise ContractError(f"alpha must be in (0, 1), got {alpha}")
    if comparisons < 1:
        raise ContractError(f"comparisons must be >= 1, got {comparisons}")
    return alpha / comparisons


def scott_bandwidths(samples: np.ndarray) -> np.ndarray:
    """Per-dimension bandwidth sigma_k * n^(-1 / (d + 4)). A NaN or infinity
    raises ContractError."""
    s = _finite_array(samples, "samples")
    n, d = s.shape
    sigma = s.std(axis=0, ddof=1)
    if np.any(sigma == 0):
        raise DegenerateBandwidthError("zero variance in at least one dimension")
    return sigma * n ** (-1.0 / (d + 4))


def kde_density(samples: Sequence, grid: Sequence) -> np.ndarray:
    """Gaussian product-kernel density of `samples` evaluated at `grid`. A
    NaN or infinity in either raises ContractError."""
    s = _finite_array(samples, "samples")
    g = _finite_array(grid, "grid points")
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
