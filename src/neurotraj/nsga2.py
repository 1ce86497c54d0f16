"""Elitist Pareto-dominance search: fast non-dominated sorting, crowding
distance, size-3 tournaments and the merge-and-truncate generational step."""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Iterable

import numpy as np

from .errors import ContractError
from .genome import GeneticOperators, Genome, random_genome
from .objectives import Objectives

EvaluateFn = Callable[[Genome], tuple[Objectives, Any]]

TOURNAMENT_SIZE = 3


@dataclass
class Individual:
    genome: Genome
    objectives: Objectives
    rank: int = 0
    crowding: float = 0.0
    evaluation: Any = None  # engine-agnostic payload (e.g. EvaluationResult)


def dominates(a: Objectives, b: Objectives) -> bool:
    """True iff a <= b componentwise with at least one strict improvement."""
    better = False
    for va, vb in zip(a, b, strict=True):
        if va > vb:
            return False
        if va < vb:
            better = True
    return better


def nondominated_sort(pop: list[Individual]) -> list[list[Individual]]:
    """Iterative front peeling over a dominance matrix; assigns each
    individual's rank and returns the fronts, best first.

    The first front is in index order. Each later front is ordered by the
    position of each member's last dominator in the previous front, then by
    index: the order in which Deb's count-down peeling releases members,
    so tournaments and crowding truncation see the same populations."""
    if not pop:
        raise ContractError("population must be non-empty")
    f = np.array([ind.objectives for ind in pop], dtype=float)
    dom = ~(f[:, None] > f[None]).any(2) & (f[:, None] < f[None]).any(2)  # dom[p, q]: p dominates q
    counts = dom.sum(0)
    front = np.flatnonzero(counts == 0)
    fronts: list[list[Individual]] = []
    while front.size:
        for i in front:
            pop[i].rank = len(fronts)
        fronts.append([pop[i] for i in front])
        below = dom[front]
        counts[front] = -1
        counts -= below.sum(0)
        nxt = np.flatnonzero(counts == 0)
        last = len(front) - 1 - below[::-1, nxt].argmax(0)
        front = nxt[np.argsort(last, kind="stable")]
    return fronts


def crowding_distance(front: list[Individual]) -> None:
    """Assign per-objective-range-normalized neighbor-gap sums.

    Boundary individuals per objective get infinity; objectives with zero
    range are skipped.
    """
    if not front:
        return
    for ind in front:
        ind.crowding = 0.0
    if len(front) <= 2:
        for ind in front:
            ind.crowding = float("inf")
        return
    m = len(front[0].objectives)
    for j in range(m):
        ordered = sorted(front, key=lambda ind: ind.objectives[j])
        lo = ordered[0].objectives[j]
        hi = ordered[-1].objectives[j]
        ordered[0].crowding = float("inf")
        ordered[-1].crowding = float("inf")
        if hi == lo:
            continue
        for i in range(1, len(ordered) - 1):
            gap = ordered[i + 1].objectives[j] - ordered[i - 1].objectives[j]
            ordered[i].crowding += gap / (hi - lo)


def tournament_select(pop: list[Individual], k: int, rng: Random) -> Individual:
    """k uniform draws with replacement; lowest rank wins, ties by larger
    crowding, remaining ties by draw order."""
    if k < 1:
        raise ContractError(f"tournament size must be >= 1, got {k}")
    winner = pop[rng.randrange(len(pop))]
    for _ in range(k - 1):
        challenger = pop[rng.randrange(len(pop))]
        if challenger.rank < winner.rank or (
            challenger.rank == winner.rank and challenger.crowding > winner.crowding
        ):
            winner = challenger
    return winner


def scored(genomes: Iterable[Genome], evaluate_fn: EvaluateFn) -> list[Individual]:
    """One individual per genome, each scored once and in order: the one
    place either engine calls `evaluate_fn`."""
    individuals = []
    for genome in genomes:
        objectives, payload = evaluate_fn(genome)
        individuals.append(Individual(genome=genome, objectives=objectives, evaluation=payload))
    return individuals


def init_population(size: int, evaluate_fn: EvaluateFn, ops: GeneticOperators, rng: Random) -> list[Individual]:
    """Random evaluated population with ranks and crowding assigned."""
    pop = scored([random_genome(ops.table, rng) for _ in range(size)], evaluate_fn)
    for front in nondominated_sort(pop):
        crowding_distance(front)
    return pop


def nsga2_step(
    pop: list[Individual],
    evaluate_fn: EvaluateFn,
    ops: GeneticOperators,
    rng: Random,
) -> list[Individual]:
    """One generation: breed and score N offspring, merge with parents, peel
    fronts into the next population, truncating the overflow front by crowding."""
    n = len(pop)
    children: list[Genome] = []
    while len(children) < n:
        p1 = tournament_select(pop, TOURNAMENT_SIZE, rng)
        p2 = tournament_select(pop, TOURNAMENT_SIZE, rng)
        children.extend(ops.offspring(p1.genome, p2.genome, rng))

    merged = pop + scored(children[:n], evaluate_fn)
    next_pop: list[Individual] = []
    for front in nondominated_sort(merged):
        crowding_distance(front)
        if len(next_pop) + len(front) <= n:
            next_pop.extend(front)
        else:
            by_crowding = sorted(front, key=lambda ind: ind.crowding, reverse=True)
            next_pop.extend(by_crowding[: n - len(next_pop)])
            break
    return next_pop
