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

One predictor serves every caller: it turns a split's (P, n) targets into
the (G, P, n) stack of predictions of G genomes, drawing each genome's
noise into its row of the stack's buffer. The objectives reduce each
stacked set alone, so a genome scores the same, bit for bit, in any stack.
A caller of one genome predicts a stack of one. Genomes are stacked in
blocks of about `_BLOCK_ELEMENTS` values per (G, P, n) array, so the
temporaries of a block stay near 64 KB however many genomes a call scores.

The search scores the validation split only, on the searched objectives.
`evaluate_all` scores, as stacks, every genome of one request that the
dataset has not kept. Only the test split is predicted in `experiment`,
once per final-front model; where RMSE is not searched, `validation_rmse`
predicts the validation split once more per model for its plain RMSE.
All read their split's target terms from the `Dataset`, which derives
them once. The dataset also keeps every objective vector, so each
distinct (genome, objective ids) is scored once per dataset however often
the engines ask for it.
"""

from __future__ import annotations

import hashlib
import math
import threading
from functools import cache
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import ContractError
from .genome import N_LOCI, Genome, default_allele_table
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
# A stream's key: "0|" then the genome's indices joined by commas, "|" and the role.
_NOISE_KEY = "0|" + ",".join(["%s"] * N_LOCI) + "|%s"
# Zero words for a re-keyed state; the state setter copies them.
_ZEROS = np.zeros(4, np.uint64)


def _noise(genome: Genome, role: str, shape: tuple[int, ...],
           out: np.ndarray | None = None) -> np.ndarray:
    """Uniform [0, 1) draws of `shape` from the Philox stream of one
    (genome, role): the stream of `Philox(key=int.from_bytes(digest, "big"))`
    for the blake2b digest of the pair, drawn from this thread's generator
    re-keyed at counter 0. `out`, of `shape`, receives the draws if given."""
    key = _NOISE_KEY % (*genome.indices, role)
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
        "state": {"counter": _ZEROS, "key": np.frombuffer(digest[::-1], "<u8")},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return generator.random(shape, out=out)


# The values of one (G, P, n) array of a stack: 8,192 float64, 64 KB.
_BLOCK_ELEMENTS = 8192


def _block_size(targets: Columns) -> int:
    """The genomes of one stack on `targets`: as many as keep its (G, P, n)
    arrays within `_BLOCK_ELEMENTS` values, and at least one."""
    return max(1, _BLOCK_ELEMENTS // targets.x.size)


def _predicted(genomes: Sequence[Genome], skills: Sequence[tuple[float, float, float]],
               targets: Columns, role: str) -> Columns:
    """The (G, P, n) stack of predictions of the (P, n) target columns of a
    split, one set per genome with its skills; `role` ("val" or "test")
    keys the noise.

    Longitudinal steps are rescaled in displacement space and clamped to
    the speed band, so predictions always satisfy the velocity invariant;
    with skills (1, 1, 0.5) the transform is the identity. Only the noise
    and the transform depend on the genome: the steps, the band and the
    timestamps are terms of `targets`, derived once per `Columns`.
    """
    # Each genome's noise amplitudes and speed scale, computed in floats and
    # held as (G, 1, 1) columns that broadcast over the genome's set.
    amp_lat, amp_jit, scale = np.array([
        (_LATERAL_NOISE_MAX_M * (1.0 - s_acc), _HEADING_JITTER_MAX_RAD * (1.0 - s_smooth),
         1.0 + _SPEED_SPAN * (2.0 * s_speed - 1.0))
        for s_acc, s_smooth, s_speed in skills]).T[:, :, None, None]

    p, n = targets.x.shape
    u = np.empty((len(genomes), p, n + 1))
    for genome, rows in zip(genomes, u):
        _noise(genome, role, (p, n + 1), out=rows)

    # Each term is computed in place where it is used once, by the same
    # IEEE operations, in the same order, as out of place.
    lo, hi = targets.band
    # `np.clip`'s own kernels, without its Python wrappers.
    steps = np.multiply(scale, targets.dy)
    np.minimum(np.maximum(steps, lo, out=steps), hi, out=steps)
    # The running sum of the steps a column at a time: the additions of
    # `np.cumsum` along each row, in its order, in n - 1 calls, not one per row.
    y = np.empty((len(genomes), p, n))
    y[..., 0] = targets.y[:, 0]
    for k in range(1, n):
        np.add(y[..., k - 1], steps[..., k - 1], out=y[..., k])
    # Smooth low-frequency lateral offset (accuracy) plus independent
    # per-step heading wiggle (smoothness).
    offset = np.multiply(math.tau * (0.5 + u[..., 1:2]), np.arange(n))
    offset /= n - 1
    offset += math.tau * u[..., :1]
    np.sin(offset, out=offset)
    offset *= amp_lat
    wiggle = np.multiply(u[..., 2:], 2.0)
    wiggle -= 1.0
    wiggle *= amp_jit
    np.tan(wiggle, out=wiggle)
    wiggle *= steps
    offset[..., 1:] += wiggle
    offset += targets.x
    return Columns(offset, y, targets.t, dt=targets.dt)


def predictions(genomes: Sequence[Genome], skills: Sequence[tuple[float, float, float]],
                targets: Columns, role: str) -> Iterator[Columns]:
    """The predictions of `genomes` with their `skills` on `targets`, as
    consecutive (G, P, n) stacks of at most a block each."""
    size = _block_size(targets)
    for start in range(0, len(genomes), size):
        yield _predicted(genomes[start:start + size], skills[start:start + size], targets, role)


def evaluate_all(genomes: Sequence[Genome], data: Dataset,
                 ids: Sequence[ObjectiveId]) -> list[Objectives]:
    """The objectives `ids` of each genome on the validation split, the only
    split the search reads. They are computed once per dataset and kept in
    `data.evaluations`: the distinct genomes missing there are scored in
    stacks, a block at a time. A block that fails keeps none of its vectors."""
    ids = tuple(ids)
    memo = data.evaluations
    missing = list({g.indices: g for g in genomes if (g.indices, ids) not in memo}.values())
    if missing:
        if not len(data.validation):
            raise ContractError("validation split must be non-empty")
        actual = data.validation_targets
        size = _block_size(actual)
        for start in range(0, len(missing), size):
            block = missing[start:start + size]
            predicted = _predicted(block, [skill_scores(g) for g in block], actual, "val")
            vectors = assemble(ids, predicted, actual)
            for g, objectives in zip(block, vectors):
                memo[g.indices, ids] = objectives
    return [memo[g.indices, ids] for g in genomes]


def evaluate(genome: Genome, data: Dataset, ids: Sequence[ObjectiveId]) -> Objectives:
    """The objectives `ids` of one genome, as `evaluate_all` gives them: read
    from `data.evaluations`, or on a miss scored as a stack of one."""
    if (objectives := data.evaluations.get((genome.indices, tuple(ids)))) is not None:
        return objectives
    return evaluate_all((genome,), data, ids)[0]


def validation_rmse(genomes: Sequence[Genome], skills: Sequence[tuple[float, float, float]],
                    data: Dataset) -> list[float]:
    """The plain validation RMSE of each model with its skills, predicted as
    stacks: the value `evaluate_all` gives for RMSE when it is searched."""
    actual = data.validation_targets
    return [value for predicted in predictions(genomes, skills, actual, "val")
            for value in rmse(predicted, actual)]
