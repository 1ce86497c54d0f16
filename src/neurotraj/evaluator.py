"""Deterministic surrogate mapping genomes to predicted trajectories.

Each genome gets three latent skills, each read from its own disjoint set
of loci: the hashed weights of the genome's alleles there, summed, plus the
product of one pair of them, scaled to [0, 1] by the least and greatest
value any genome reaches. Skills control how faithfully the surrogate
reproduces ground-truth targets: lateral offset noise (accuracy), per-step
heading jitter (smoothness) and a longitudinal speed rescale (speed). A
split's noise comes from one counter-based Philox stream keyed by (genome,
split role), so an evaluation is a pure function of its arguments and
results never depend on evaluation order. Each thread keeps one Philox bit
generator and re-keys it for every stream, which costs a fifth of building
a new one.

The search scores the validation split only, on the searched objectives.
The test split, and the plain validation RMSE where RMSE is not searched,
are computed once per final-front model. All read their split's target
terms from the `Dataset`, which derives them once. The dataset also keeps
every objective vector `evaluate` returns, so each distinct (genome,
objective ids) is scored once per dataset however often the engines ask
for it.
"""

from __future__ import annotations

import hashlib
import math
import threading
from functools import cache
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import ContractError
from .genome import Genome, default_allele_table
from .objectives import ObjectiveId, Objectives, assemble, rmse
from .trajectory import Columns, Dataset

# Per skill: its name (which keys its weights), its 1-based loci and the
# pair of those loci whose weights also enter as a product. Locus 3
# (Momentum) belongs to no skill: it is carried and logged but inert.
_SKILLS = (
    ("acc", (1, 2, 4, 5), (2, 5)),
    ("smooth", (6, 7, 8), (6, 8)),
    ("speed", (9, 10, 11, 12, 13), (9, 12)),
)

# The noise scales at skill 0: the lateral offset's amplitude (m), the
# heading jitter's (rad), and the speed rescale's half-span around 1.
_LATERAL_NOISE_MAX_M = 0.8
_HEADING_JITTER_MAX_RAD = 0.03
_SPEED_SPAN = 0.15


# The leading 0 in this key and in `_noise`'s keeps the weights and the
# noise streams of every earlier release.
def _unit_weight(locus: int, allele: int, name: str) -> float:
    digest = hashlib.blake2b(f"0:{locus}:{allele}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def _raw_skill(alleles: Sequence[int], weights: tuple[tuple[float, ...], ...],
               pair: tuple[int, int]) -> float:
    """The weights of one skill's alleles, summed, plus the product of the
    two at positions `pair`. Explicit adds keep the sum's rounding fixed."""
    raw = 0.0
    for w, allele in zip(weights, alleles):
        raw += w[allele]
    i, j = pair
    return raw + weights[i][alleles[i]] * weights[j][alleles[j]]


@cache
def _skill_table() -> tuple[tuple, ...]:
    """Per skill: a getter of its alleles from a genome's indices, its loci's
    allele weights, the pair's positions among its loci and the least and
    greatest raw score."""
    counts = default_allele_table().counts
    table = []
    for name, loci, pair in _SKILLS:
        weights = tuple(tuple(_unit_weight(locus, a, name)
                              for a in range(counts[locus - 1])) for locus in loci)
        at = (loci.index(pair[0]), loci.index(pair[1]))
        # Weights are non-negative, so the raw score grows with every chosen
        # weight: the alleles of least (greatest) weight at each locus give
        # the least (greatest) score, and some genome reaches it.
        lo, hi = (_raw_skill([w.index(best(w)) for w in weights], weights, at) for best in (min, max))
        table.append((itemgetter(*(locus - 1 for locus in loci)), weights, at, lo, hi))
    return tuple(table)


def skill_scores(genome: Genome) -> tuple[float, float, float]:
    """Deterministic (accuracy, smoothness, speed) skills in [0, 1]."""
    out = []
    for alleles_of, weights, at, lo, hi in _skill_table():
        raw = _raw_skill(alleles_of(genome.indices), weights, at)
        out.append((raw - lo) / (hi - lo))
    return tuple(out)


_thread = threading.local()


def _noise(genome: Genome, role: str, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform [0, 1) draws of `shape` from the Philox stream of one
    (genome, role): the stream of `Philox(key=int.from_bytes(digest, "big"))`
    for the blake2b digest of the pair, drawn from this thread's generator
    re-keyed at counter 0."""
    key = f"0|{','.join(map(str, genome.indices))}|{role}"
    digest = hashlib.blake2b(key.encode(), digest_size=16).digest()
    try:
        generator = _thread.generator
    except AttributeError:
        generator = _thread.generator = np.random.Generator(np.random.Philox(0))
    # The 128-bit key as Philox holds it: two uint64 words, low word first.
    # A fresh state also empties the buffered output, so nothing of the
    # previous stream is drawn.
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.frombuffer(digest[::-1], "<u8")},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return generator.random(shape)


def predict_targets(genome: Genome, skills: tuple[float, float, float], targets: Columns,
                    role: str) -> Columns:
    """Transform the (P, tau) target columns of a split into one model's
    predictions; `role` ("val" or "test") keys the noise.

    Longitudinal steps are rescaled in displacement space and clamped to
    the speed band, so predictions always satisfy the velocity invariant;
    with skills (1, 1, 0.5) the transform is the identity. Only the noise
    and the transform depend on the genome: the steps, the band and the
    timestamps are terms of `targets`, derived once per `Columns`.
    """
    s_acc, s_smooth, s_speed = skills
    amp_lat = _LATERAL_NOISE_MAX_M * (1.0 - s_acc)
    amp_jit = _HEADING_JITTER_MAX_RAD * (1.0 - s_smooth)
    scale = 1.0 + _SPEED_SPAN * (2.0 * s_speed - 1.0)

    p, n = targets.x.shape
    u = _noise(genome, role, (p, n + 1))
    phase, cycles, jitter = math.tau * u[:, :1], 0.5 + u[:, 1:2], 2.0 * u[:, 2:] - 1.0

    lo, hi = targets.band
    # `np.clip` and `np.cumsum`'s own kernels, without their Python wrappers.
    steps = np.minimum(np.maximum(scale * targets.dy, lo), hi)
    y = np.add.accumulate(np.concatenate([targets.y[:, :1], steps], axis=1), axis=1)
    # Smooth low-frequency lateral offset (accuracy) plus independent
    # per-step heading wiggle (smoothness).
    offset = amp_lat * np.sin(math.tau * cycles * np.arange(n) / (n - 1) + phase)
    offset[:, 1:] += np.tan(amp_jit * jitter) * steps
    return Columns(targets.x + offset, y, targets.t, dt=targets.dt)


def evaluate(genome: Genome, data: Dataset, ids: Sequence[ObjectiveId]) -> Objectives:
    """The objectives `ids` of a genome on the validation split, the only
    split the search reads. They are computed once per dataset and kept in
    `data.evaluations`; a failed evaluation is not kept."""
    key = (genome.indices, tuple(ids))
    if (objectives := data.evaluations.get(key)) is not None:
        return objectives
    if not len(data.validation):
        raise ContractError("validation split must be non-empty")
    actual = data.validation_targets
    predicted = predict_targets(genome, skill_scores(genome), actual, "val")
    objectives = data.evaluations[key] = assemble(ids, predicted, actual)
    return objectives


def validation_rmse(genome: Genome, skills: tuple[float, float, float], data: Dataset) -> float:
    """The plain validation RMSE of one model, the value `evaluate` gives
    for RMSE when it is searched. The experiment summaries need it for
    every final-front model, so this predicts the validation split again
    where RMSE is not searched."""
    actual = data.validation_targets
    return rmse(predict_targets(genome, skills, actual, "val"), actual)
