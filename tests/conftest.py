"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

from random import Random

import numpy as np
import pytest

from neurotraj.objectives import ObjectiveId, ObjectiveVector
from neurotraj.trajectory import ScenarioConfig, generate_scenario, window_and_split


def make_seq(xys, dt=0.25, t0=0.0) -> np.ndarray:
    """(n, 3) sequence from (x, y) pairs with uniform spacing."""
    return np.array([(x, y, t0 + i * dt) for i, (x, y) in enumerate(xys)], dtype=float)


def straight_seq(n=8, v=30.0, dt=0.25, x=0.0) -> np.ndarray:
    return make_seq([(x, v * dt * i) for i in range(n)], dt=dt)


def vec(tokens, values) -> ObjectiveVector:
    return ObjectiveVector(tuple(ObjectiveId.from_token(t) for t in tokens),
                           tuple(float(v) for v in values))


def vals_dominate(a, b) -> bool:
    """Plain-tuple Pareto dominance (minimization)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def brute_force_fronts(values) -> list[list[int]]:
    """Independent front-peeling oracle over raw value tuples."""
    remaining = list(range(len(values)))
    fronts = []
    while remaining:
        front = [i for i in remaining
                 if not any(vals_dominate(values[j], values[i]) for j in remaining if j != i)]
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts


class SeqRng:
    """Duck-typed random source whose integer draws come from a queue."""

    def __init__(self, queue, uniform_value=0.0):
        self.queue = list(queue)
        self.uniform_value = uniform_value

    def randrange(self, *args, **kwargs):
        return self.queue.pop(0)

    def randint(self, a, b):
        return self.queue.pop(0)

    def random(self):
        return self.uniform_value


@pytest.fixture(scope="session")
def small_dataset():
    path = generate_scenario(ScenarioConfig(duration_s=120.0, lane_change_rate=0.03, seed=3))
    return window_and_split(path, tau=8, ratio=(0.6, 0.2, 0.2), seed=3)


@pytest.fixture()
def rng():
    return Random(1234)
