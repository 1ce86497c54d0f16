"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

from random import Random

import numpy as np
import pytest

from neurotraj.trajectory import generate_scenario, window_and_split


def make_seq(xys, dt=0.25, t0=0.0) -> np.ndarray:
    """(n, 3) sequence from (x, y) pairs with uniform spacing."""
    return np.array([(x, y, t0 + i * dt) for i, (x, y) in enumerate(xys)], dtype=float)


def straight_seq(n=8, v=30.0, dt=0.25, x=0.0) -> np.ndarray:
    return make_seq([(x, v * dt * i) for i in range(n)], dt=dt)


def vec(tokens, values) -> tuple[float, ...]:
    """An objective vector: `values` as floats, one per token of `tokens`."""
    assert len(tokens) == len(values), f"{len(tokens)} tokens vs {len(values)} values"
    return tuple(float(v) for v in values)


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


def mc_hypervolume(points, ref, n_samples, seed):
    """Monte-Carlo oracle: fraction of a bounding box dominated by the front."""
    rng = np.random.default_rng(seed)
    pts = np.asarray(points, dtype=float)
    ref_arr = np.asarray(ref, dtype=float)
    low = pts.min(axis=0)
    samples = rng.uniform(low, ref_arr, size=(n_samples, len(ref_arr)))
    cols = samples.T.copy()  # one contiguous row per objective
    covered = np.zeros(n_samples, dtype=bool)
    for p in pts:
        inside = cols[0] >= p[0]
        for k in range(1, len(p)):
            inside &= cols[k] >= p[k]
        covered |= inside
    return float(np.prod(ref_arr - low)) * float(covered.mean())


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
    path = generate_scenario(duration_s=120.0, lane_change_rate=0.03, seed=3)
    return window_and_split(path, tau=8, ratio=(0.6, 0.2, 0.2), seed=3)


@pytest.fixture()
def rng():
    return Random(1234)


@pytest.fixture()
def fail_run_one(monkeypatch, request):
    """Run 1 of an experiment fails: its evaluator raises ContractError with
    the message given by indirect parametrization, "boom" by default. Runs
    must execute in this process (jobs=1)."""
    import neurotraj.experiment as experiment_mod
    from neurotraj.errors import ContractError

    real_execute_run = experiment_mod.execute_run
    message = getattr(request, "param", "boom")

    def boom(*args):
        raise ContractError(message)

    def execute_run(cfg, data, run_index):
        with monkeypatch.context() as patch:
            if run_index == 1:
                patch.setattr(experiment_mod, "evaluate", boom)
            return real_execute_run(cfg, data, run_index)

    monkeypatch.setattr(experiment_mod, "execute_run", execute_run)


class RecordingEval:
    """An `evaluate_fn` that records each genome it scores, in call order;
    its two objective values are drawn from the genome alone."""

    def __init__(self):
        self.genomes = []

    def __call__(self, genome):
        self.genomes.append(genome)
        r = Random(hash(genome.indices) & 0xFFFFF)
        return (r.uniform(0, 5), r.uniform(0, 5)), None


class BreedingLog:
    """Genetic operators that record each child they breed, in draw order."""

    def __init__(self, ops):
        self.table = ops.table
        self.ops = ops
        self.children = []

    def offspring(self, p1, p2, rng):
        children = self.ops.offspring(p1, p2, rng)
        self.children.extend(children)
        return children
