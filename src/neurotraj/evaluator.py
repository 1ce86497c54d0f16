"""Deterministic surrogate mapping genomes to predicted trajectories.

Each genome gets three latent skills derived from hashed per-allele
weights over disjoint locus subsets. Skills control how faithfully the
surrogate reproduces ground-truth targets: lateral offset noise (accuracy),
per-step heading jitter (smoothness) and a longitudinal speed rescale
(speed). A split's noise comes from one counter-based Philox stream keyed
by (quality seed, genome, split role), so results never depend on
evaluation order.

The search scores the validation split only. The test split is predicted
once per final-front model. Both read their split's target terms from the
`Dataset`, which derives them once.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import Config
from .errors import ConfigurationError, ContractError
from .genome import Genome, default_allele_table
from .objectives import Columns, ObjectiveId, Objectives, assemble, rmse
from .trajectory import Dataset

# 1-based locus subsets feeding each skill. Locus 3 (Momentum) belongs to
# no subset: it is carried and logged but inert.
_SKILL_LOCI = {
    "acc": (1, 2, 4, 5),
    "smooth": (6, 7, 8),
    "speed": (9, 10, 11, 12, 13),
}
# One pairwise interaction per skill (product of the two locus weights).
_SKILL_INTERACTIONS = {
    "acc": (2, 5),
    "smooth": (6, 8),
    "speed": (9, 12),
}


@dataclass(frozen=True)
class SurrogateConfig(Config):
    quality_seed: int = 0
    lateral_noise_max_m: float = 0.8
    heading_jitter_max_rad: float = 0.03
    speed_span: float = 0.15

    def __post_init__(self):
        super().__post_init__()
        if not all(0 < v < math.inf for v in (self.lateral_noise_max_m,
                                              self.heading_jitter_max_rad, self.speed_span)):
            raise ConfigurationError("surrogate noise scales must be positive and finite")
        if self.speed_span > 0.2:
            raise ConfigurationError(f"speed_span must be <= 0.2, got {self.speed_span}")


@dataclass(frozen=True)
class EvaluationResult:
    objectives: Objectives  # computed on the validation split
    skills: tuple[float, float, float]
    # Plain validation RMSE regardless of the objective subset; the
    # experiment summaries need it even when RMSE is not searched on.
    rmse_validation: float = 0.0


def _unit_weight(quality_seed: int, locus: int, allele: int, name: str) -> float:
    digest = hashlib.blake2b(
        f"{quality_seed}:{locus}:{allele}:{name}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


@lru_cache(maxsize=32)
def _weight_table(quality_seed: int) -> dict[str, tuple[tuple[float, ...], ...]]:
    """Per skill: weights[locus_0based][allele] for that skill's loci (zeros elsewhere)."""
    table: dict[str, tuple[tuple[float, ...], ...]] = {}
    counts = default_allele_table().counts
    for name, loci in _SKILL_LOCI.items():
        per_locus = []
        for locus_1b, count in enumerate(counts, start=1):
            if locus_1b in loci:
                per_locus.append(tuple(
                    _unit_weight(quality_seed, locus_1b, a, name) for a in range(count)
                ))
            else:
                per_locus.append(())
        table[name] = tuple(per_locus)
    return table


@lru_cache(maxsize=32)
def _skill_bounds(quality_seed: int) -> dict[str, tuple[float, float]]:
    """Achievable (min, max) of each skill's raw score, for normalization."""
    weights = _weight_table(quality_seed)
    bounds = {}
    for name, loci in _SKILL_LOCI.items():
        a, b = _SKILL_INTERACTIONS[name]
        lo = hi = 0.0
        for locus_1b in loci:
            w = weights[name][locus_1b - 1]
            lo += min(w)
            hi += max(w)
        # The interaction term is increasing in both factors, so the joint
        # extremes coincide with the per-locus extremes.
        lo += min(weights[name][a - 1]) * min(weights[name][b - 1])
        hi += max(weights[name][a - 1]) * max(weights[name][b - 1])
        bounds[name] = (lo, hi)
    return bounds


def skill_scores(genome: Genome, cfg: SurrogateConfig) -> tuple[float, float, float]:
    """Deterministic (accuracy, smoothness, speed) skills in [0, 1]."""
    weights = _weight_table(cfg.quality_seed)
    bounds = _skill_bounds(cfg.quality_seed)
    out = []
    for name in ("acc", "smooth", "speed"):
        raw = 0.0
        for locus_1b in _SKILL_LOCI[name]:
            raw += weights[name][locus_1b - 1][genome.indices[locus_1b - 1]]
        a, b = _SKILL_INTERACTIONS[name]
        raw += (weights[name][a - 1][genome.indices[a - 1]]
                * weights[name][b - 1][genome.indices[b - 1]])
        lo, hi = bounds[name]
        out.append((raw - lo) / (hi - lo) if hi > lo else 0.5)
    return tuple(out)


def _noise(cfg: SurrogateConfig, genome: Genome, role: str) -> np.random.Generator:
    """The Philox stream of one (quality seed, genome, role)."""
    key = f"{cfg.quality_seed}|{','.join(map(str, genome.indices))}|{role}"
    digest = hashlib.blake2b(key.encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "big")))


def predict_targets(genome: Genome, skills: tuple[float, float, float], cfg: SurrogateConfig,
                    targets: Columns, role: str) -> Columns:
    """Transform the (P, tau) target columns of a split into one model's
    predictions; `role` ("val" or "test") keys the noise.

    Longitudinal steps are rescaled in displacement space and clamped to
    the speed band, so predictions always satisfy the velocity invariant;
    with skills (1, 1, 0.5) the transform is the identity. Only the noise
    and the transform depend on the genome: the steps, the band and the
    timestamps are terms of `targets`, derived once per `Columns`.
    """
    s_acc, s_smooth, s_speed = skills
    amp_lat = cfg.lateral_noise_max_m * (1.0 - s_acc)
    amp_jit = cfg.heading_jitter_max_rad * (1.0 - s_smooth)
    scale = 1.0 + cfg.speed_span * (2.0 * s_speed - 1.0)

    p, n = targets.x.shape
    u = _noise(cfg, genome, role).random((p, n + 1))
    phase, cycles, jitter = math.tau * u[:, :1], 0.5 + u[:, 1:2], 2.0 * u[:, 2:] - 1.0

    steps = np.clip(scale * targets.dy, *targets.band)
    y = np.cumsum(np.concatenate([targets.y[:, :1], steps], axis=1), axis=1)
    # Smooth low-frequency lateral offset (accuracy) plus independent
    # per-step heading wiggle (smoothness).
    offset = amp_lat * np.sin(math.tau * cycles * np.arange(n) / (n - 1) + phase)
    offset[:, 1:] += np.tan(amp_jit * jitter) * steps
    return Columns(targets.x + offset, y, targets.t, dt=targets.dt)


def predict_split(genome: Genome, skills: tuple[float, float, float], cfg: SurrogateConfig,
                  split: np.ndarray, role: str) -> np.ndarray:
    """One model's (P, tau, 3) predictions of the targets of a (P, 2 * tau, 3)
    split; see `predict_targets`."""
    split = np.asarray(split, dtype=float)
    targets = Columns.of(split[:, split.shape[1] // 2:])
    return predict_targets(genome, skills, cfg, targets, role).rows()


def evaluate(
    genome: Genome,
    data: Dataset,
    ids: Sequence[ObjectiveId],
    cfg: SurrogateConfig,
) -> EvaluationResult:
    """Evaluate a genome on the validation split, the only split the search reads."""
    if not len(data.validation):
        raise ContractError("validation split must be non-empty")
    skills = skill_scores(genome, cfg)
    actual = data.validation_targets
    predicted = predict_targets(genome, skills, cfg, actual, "val")
    objectives = assemble(ids, predicted, actual)
    rmse_validation = (objectives[ids.index(ObjectiveId.RMSE)] if ObjectiveId.RMSE in ids
                       else rmse(predicted, actual))
    return EvaluationResult(objectives=objectives, skills=skills, rmse_validation=rmse_validation)
