"""Deterministic surrogate mapping genomes to predicted trajectories.

Each genome gets three latent skills derived from hashed per-allele
weights over disjoint locus subsets. Skills control how faithfully the
surrogate reproduces ground-truth targets: lateral offset noise (accuracy),
per-step heading jitter (smoothness) and a longitudinal speed rescale
(speed). A split's noise comes from one counter-based Philox stream keyed
by (quality seed, genome, split role), so results never depend on
evaluation order.

The search scores the validation split only. The test split is predicted
with `predict_split(..., role="test")` once per final-front model.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ContractError
from .genome import Genome, default_allele_table
from .objectives import ObjectiveId, ObjectiveVector, assemble, rmse
from .trajectory import Dataset, V_MAX_MPS, V_MIN_MPS

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
class SurrogateConfig:
    quality_seed: int = 0
    lateral_noise_max_m: float = 0.8
    heading_jitter_max_rad: float = 0.03
    speed_span: float = 0.15

    def __post_init__(self):
        if self.lateral_noise_max_m <= 0 or self.heading_jitter_max_rad <= 0 or self.speed_span <= 0:
            raise ConfigurationError("surrogate noise scales must be positive")
        if self.speed_span > 0.2:
            raise ConfigurationError(f"speed_span must be <= 0.2, got {self.speed_span}")

    @property
    def noise_scales(self) -> tuple[float, float, float]:
        return (self.lateral_noise_max_m, self.heading_jitter_max_rad, self.speed_span)

    def to_dict(self) -> dict:
        return {
            "quality_seed": self.quality_seed,
            "lateral_noise_max_m": self.lateral_noise_max_m,
            "heading_jitter_max_rad": self.heading_jitter_max_rad,
            "speed_span": self.speed_span,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SurrogateConfig":
        return cls(**doc)


@dataclass(frozen=True)
class EvaluationResult:
    objectives: ObjectiveVector  # computed on the validation split
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


def predict_split(genome: Genome, skills: tuple[float, float, float], cfg: SurrogateConfig,
                  split: np.ndarray, role: str) -> np.ndarray:
    """Transform the targets of a (P, 2 * tau, 3) split into one model's
    (P, tau, 3) predictions; `role` ("val" or "test") keys the noise.

    Longitudinal steps are rescaled in displacement space and clamped to
    the speed band, so predictions always satisfy the velocity invariant;
    with skills (1, 1, 0.5) the transform is the identity.
    """
    s_acc, s_smooth, s_speed = skills
    amp_lat = cfg.lateral_noise_max_m * (1.0 - s_acc)
    amp_jit = cfg.heading_jitter_max_rad * (1.0 - s_smooth)
    scale = 1.0 + cfg.speed_span * (2.0 * s_speed - 1.0)

    target = split[:, split.shape[1] // 2:]
    n = target.shape[1]
    u = _noise(cfg, genome, role).random((len(target), n + 1))
    phase, cycles, jitter = math.tau * u[:, :1], 0.5 + u[:, 1:2], 2.0 * u[:, 2:] - 1.0

    dt = np.diff(target[..., 2], axis=1)
    steps = np.clip(scale * np.diff(target[..., 1], axis=1), V_MIN_MPS * dt, V_MAX_MPS * dt)
    y = np.cumsum(np.concatenate([target[:, :1, 1], steps], axis=1), axis=1)
    # Smooth low-frequency lateral offset (accuracy) plus independent
    # per-step heading wiggle (smoothness).
    offset = amp_lat * np.sin(math.tau * cycles * np.arange(n) / (n - 1) + phase)
    offset[:, 1:] += np.tan(amp_jit * jitter) * steps
    return np.stack([target[..., 0] + offset, y, target[..., 2]], axis=-1)


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
    predicted = predict_split(genome, skills, cfg, data.validation, "val")
    actual = data.validation[:, data.tau:]
    return EvaluationResult(
        objectives=assemble(ids, predicted, actual),
        skills=skills,
        rmse_validation=rmse(predicted, actual),
    )
