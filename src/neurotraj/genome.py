"""13-locus hyperparameter genome and its genetic operators.

Genomes store 0-based allele indices; the allele table decodes them to
actual hyperparameter values. Operators never produce out-of-bounds
indices, so no repair step exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random

from .errors import ContractError

N_LOCI = 13

# The chance that two parents are crossed, and that each child is mutated.
CROSSOVER_RATE = 1.0
MUTATION_RATE = 0.5

# Locus order and allele sets are fixed.
_TABLE_ROWS: tuple[tuple[str, tuple], ...] = (
    ("Batch Size", (50, 75, 100, 125)),
    ("Epochs", (10, 20, 30, 40, 50)),
    ("Momentum", (0.8, 0.85, 0.9, 0.95)),
    ("Loss Function", ("MSE", "Log Cosh")),
    ("Optimiser", ("RMSprop", "NAdam", "SGD", "AdaGrad", "Adadelta", "Adam", "AdaMax")),
    ("LSTM Cells", (1, 2, 3, 4)),
    ("LSTM Dropout", (0.2, 0.25, 0.3, 0.35, 0.4, 0.5)),
    ("Hidden Units", (100, 125, 150, 175, 200, 225, 250)),
    ("CNN Flattened 1", (256, 512, 768, 1024)),
    ("CNN Flattened 2", (256, 512, 768, 1024)),
    ("LSTM Flattened 1", (64, 128, 256, 512)),
    ("LSTM Flattened 2", (64, 128, 256, 512)),
    ("Flattened Dropout", (0.05, 0.1, 0.15, 0.2, 0.25)),
)


@dataclass(frozen=True)
class AlleleTable:
    """Ordered gene names and their allele value sets."""

    loci: tuple[tuple[str, tuple], ...]

    def __post_init__(self):
        if len(self.loci) != N_LOCI:
            raise ContractError(f"allele table must have {N_LOCI} loci, got {len(self.loci)}")
        for name, alleles in self.loci:
            if not name or len(alleles) < 2:
                raise ContractError(f"locus {name!r} needs at least two alleles")

    @cached_property  # read once per genome check and per mutation
    def counts(self) -> tuple[int, ...]:
        return tuple(len(alleles) for _, alleles in self.loci)

    def gene_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.loci)

    def validate_genome(self, genome: "Genome") -> None:
        if len(genome.indices) != N_LOCI:
            raise ContractError(f"genome must have {N_LOCI} indices, got {len(genome.indices)}")
        for locus, (idx, count) in enumerate(zip(genome.indices, self.counts)):
            if not 0 <= idx < count:
                raise ContractError(f"locus {locus}: index {idx} out of range [0, {count})")

    def decode(self, genome: "Genome") -> dict:
        """Map a genome to {gene name: allele value}."""
        self.validate_genome(genome)
        return {name: alleles[idx] for (name, alleles), idx in zip(self.loci, genome.indices)}


_DEFAULT_TABLE = AlleleTable(_TABLE_ROWS)


def default_allele_table() -> AlleleTable:
    return _DEFAULT_TABLE


@dataclass(frozen=True)
class Genome:
    """13 allele indices, one per locus."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != N_LOCI:
            raise ContractError(f"genome must have {N_LOCI} indices, got {len(self.indices)}")


def random_genome(table: AlleleTable, rng: Random) -> Genome:
    """Draw each locus index uniformly from its allele set."""
    return Genome(tuple(rng.randrange(count) for count in table.counts))


def single_point_crossover(p1: Genome, p2: Genome, rng: Random) -> tuple[Genome, Genome]:
    """Swap tails of the two parents at a uniformly drawn cut point in 1..12."""
    k = rng.randint(1, N_LOCI - 1)
    c1 = Genome(p1.indices[:k] + p2.indices[k:])
    c2 = Genome(p2.indices[:k] + p1.indices[k:])
    return c1, c2


def mutate(table: AlleleTable, genome: Genome, rate: float, rng: Random) -> Genome:
    """With probability `rate`, reassign one uniformly chosen locus to a
    different allele index; otherwise return the genome unchanged."""
    if not 0.0 <= rate <= 1.0:
        raise ContractError(f"mutation rate must be in [0, 1], got {rate}")
    if rate <= 0.0 or rng.random() >= rate:
        return genome
    locus = rng.randrange(N_LOCI)
    count = table.counts[locus]
    new_idx = rng.randrange(count - 1)
    if new_idx >= genome.indices[locus]:
        new_idx += 1
    indices = list(genome.indices)
    indices[locus] = new_idx
    return Genome(tuple(indices))


@dataclass(frozen=True)
class GeneticOperators:
    """Crossover and mutation over one allele table, at the module's rates."""

    table: AlleleTable

    def offspring(self, p1: Genome, p2: Genome, rng: Random) -> tuple[Genome, Genome]:
        if rng.random() < CROSSOVER_RATE:
            c1, c2 = single_point_crossover(p1, p2, rng)
        else:
            c1, c2 = p1, p2
        return (
            mutate(self.table, c1, MUTATION_RATE, rng),
            mutate(self.table, c2, MUTATION_RATE, rng),
        )
