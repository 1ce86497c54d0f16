"""Decomposition search: simplex-lattice weights, Euclidean neighborhoods,
Tchebycheff scalarization with a maintained ideal point, in-order neighbor
replacement and an external archive of non-dominated solutions."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from random import Random
from typing import Sequence

from .errors import ConfigurationError, ContractError
from .genome import GeneticOperators, random_genome
from .nsga2 import EvaluateFn, Individual, dominates, scored
from .objectives import Objectives

NEIGHBORHOOD_SIZE = 7  # T, the weight vectors each subproblem breeds from and replaces


@dataclass(frozen=True)
class WeightLattice:
    weights: tuple[tuple[float, ...], ...]

    @property
    def size(self) -> int:
        return len(self.weights)


def simplex_lattice(m: int, resolution: int) -> WeightLattice:
    """All m-tuples of multiples of 1/H summing to 1, in lexicographic order."""
    if m not in (2, 3):
        raise ConfigurationError(f"only 2 or 3 objectives supported, got {m}")
    if resolution < 1:
        raise ConfigurationError(f"lattice resolution must be >= 1, got {resolution}")
    h = resolution
    weights = []
    if m == 2:
        for i in range(h + 1):
            weights.append((i / h, (h - i) / h))
    else:
        for i in range(h + 1):
            for j in range(h - i + 1):
                weights.append((i / h, j / h, (h - i - j) / h))
    return WeightLattice(tuple(weights))


def lattice_resolution_for(m: int, population: int) -> int:
    """Smallest H whose lattice has at least `population` vectors."""
    if m == 2:
        return max(1, population - 1)
    if m == 3:
        h = 1
        while (h + 1) * (h + 2) // 2 < population:
            h += 1
        return h
    raise ConfigurationError(f"only 2 or 3 objectives supported, got {m}")


def build_neighborhoods(lattice: WeightLattice, t: int) -> list[tuple[int, ...]]:
    """Per subproblem, the indices of the T nearest weight vectors (self
    included), ties broken by lower index."""
    n = lattice.size
    if not 1 <= t <= n:
        raise ConfigurationError(f"neighborhood size {t} outside [1, {n}]")
    neighborhoods = []
    for i, wi in enumerate(lattice.weights):
        dists = []
        for j, wj in enumerate(lattice.weights):
            d = sum((a - b) ** 2 for a, b in zip(wi, wj))
            dists.append((d, j))
        dists.sort()
        neighborhoods.append(tuple(j for _, j in dists[:t]))
    return neighborhoods


def tchebycheff(f: Objectives, lam: Sequence[float], z: Sequence[float]) -> float:
    """max_j lam_j * |f_j - z_j|."""
    if len(f) != len(lam) or len(f) != len(z):
        raise ContractError("objective vector, weights and ideal point must share dimension")
    return max(l * abs(v - zj) for l, v, zj in zip(lam, f, z))


def update_ideal(z: Sequence[float], f: Objectives) -> tuple[float, ...]:
    """Componentwise minimum of the running ideal point and a new vector."""
    if len(z) != len(f):
        raise ContractError("ideal point dimension mismatch")
    return tuple(min(zj, v) for zj, v in zip(z, f))


@dataclass
class MoeadState:
    solutions: list[Individual]
    ideal: tuple[float, ...]
    archive: list[Individual] = field(default_factory=list)


def archive_insert(archive: list[Individual], candidate: Individual) -> None:
    """Keep the archive mutually non-dominated; exact duplicates are a no-op."""
    for member in archive:
        if dominates(member.objectives, candidate.objectives):
            return
        if (member.genome.indices == candidate.genome.indices
                and member.objectives == candidate.objectives):
            return
    archive[:] = [m for m in archive if not dominates(candidate.objectives, m.objectives)]
    archive.append(candidate)


def init_state(lattice: WeightLattice, evaluate_fn: EvaluateFn, ops: GeneticOperators, rng: Random) -> MoeadState:
    """Random population, ideal point from its objectives, archive seeded
    with the non-dominated initial solutions."""
    solutions = scored([random_genome(ops.table, rng) for _ in range(lattice.size)], evaluate_fn)
    ideal = reduce(update_ideal, (ind.objectives for ind in solutions))
    state = MoeadState(solutions=solutions, ideal=ideal)
    for ind in solutions:
        archive_insert(state.archive, ind)
    return state


def moead_step(
    state: MoeadState,
    lattice: WeightLattice,
    neighborhoods: list[tuple[int, ...]],
    evaluate_fn: EvaluateFn,
    ops: GeneticOperators,
    rng: Random,
    replacement_log: list[tuple[float, float]] | None = None,
) -> MoeadState:
    """One pass over all subproblems in index order.

    For each subproblem: breed a child from two distinct neighborhood
    parents, update the ideal point, replace every neighbor the child
    scalarizes no worse than, and offer the child to the archive.
    `replacement_log` collects (child score, incumbent score) pairs at the
    ideal point in force when each replacement was accepted.
    """
    for i in range(lattice.size):
        nbhd = neighborhoods[i]
        k = rng.choice(nbhd)
        l = rng.choice(nbhd)
        while l == k and len(set(nbhd)) > 1:
            l = rng.choice(nbhd)
        children = ops.offspring(state.solutions[k].genome, state.solutions[l].genome, rng)
        child = scored(children[:1], evaluate_fn)[0]

        state.ideal = update_ideal(state.ideal, child.objectives)
        for j in nbhd:
            g_child = tchebycheff(child.objectives, lattice.weights[j], state.ideal)
            g_incumbent = tchebycheff(state.solutions[j].objectives, lattice.weights[j], state.ideal)
            if g_child <= g_incumbent:
                if replacement_log is not None:
                    replacement_log.append((g_child, g_incumbent))
                state.solutions[j] = child
        archive_insert(state.archive, child)
    return state
