"""Experiment records for the analyze-compare workload, synthesized from a seed.

The records go through `persist_experiment`, so they have exactly the schema
`neurotraj run` writes, at the full preset shape (12 runs x 15 generations)
or at the README's scale 0.2. No genome is evaluated: only the analysis
layers run on these inputs.

Sizes of the searched set per generation (the NSGA-II rank-0 front, the
MOEA/D archive) follow single preset runs measured on the default 600 s
scenario. They set the work of every analysis step: hypervolume and KDE
scale with front size, and the pooled final-front size decides which
Spearman branch runs (permutation below 500 points, t-approximation from
500 up).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from random import Random

from neurotraj.analysis import ValidityReport
from neurotraj.experiment import (
    ExperimentConfig,
    FrontEntry,
    RunRecord,
    persist_experiment,
    preset_config,
)
from neurotraj.genome import default_allele_table, random_genome

# (size at generation 1, size at the last generation). NSGA-II: exp6 had 28
# rank-0 members after generation 1 and a full front of 45 from generation 4
# or 5 on; the ramp reaches the population at generation 5. MOEA/D archives:
# exp7 26 -> 76, exp9 18 -> 62, exp11 5 -> 31, exp13 20 -> 63. At scale 0.2
# the sizes shrink with the population.
NSGA2_FIRST_FRONT = 28
NSGA2_FULL_AT_GENERATION = 5
ARCHIVE_GROWTH = {"exp7": (26, 76), "exp9": (18, 62), "exp11": (5, 31), "exp13": (20, 63)}

# Typical (low, span) of each objective on the default scenario, so that
# the synthesized values have the program's magnitudes.
OBJECTIVE_RANGE = {
    "rmse": (0.04, 3.6),
    "l1": (6400.0, 800.0),
    "l2": (0.07, 1.4),
    "l3": (24.0, 50.0),
    "signloss": (0.001, 0.05),
}


def experiment_name(preset: str, scale: float) -> str:
    return preset if scale == 1.0 else f"{preset}-s{scale:g}"


def front_sizes(cfg: ExperimentConfig, preset: str, scale: float) -> list[int]:
    """Per-generation size of the searched set, before per-run jitter."""
    gens = cfg.generations
    if cfg.algorithm == "nsga2":
        first = max(1, round(NSGA2_FIRST_FRONT * cfg.population / 45))
        full_at = max(1, min(gens, round(NSGA2_FULL_AT_GENERATION * scale)))
        return [min(cfg.population, round(first + (cfg.population - first) * (g - 1) / max(1, full_at - 1)))
                if g < full_at else cfg.population for g in range(1, gens + 1)]
    first, last = ARCHIVE_GROWTH[preset]
    first, last = max(2, round(first * scale)), max(3, round(last * scale))
    return [round(first + (last - first) * (g - 1) / max(1, gens - 1)) for g in range(1, gens + 1)]


def _plane_points(rng: Random, tokens: list[str], k: int, level: float) -> list[tuple[float, ...]]:
    """k points with sum_j (f_j - low_j) / span_j == level: mutually non-dominated."""
    points = []
    for _ in range(k):
        w = [rng.expovariate(1.0) for _ in tokens]
        total = sum(w)
        points.append(tuple(OBJECTIVE_RANGE[t][0] + OBJECTIVE_RANGE[t][1] * level * wj / total
                            for t, wj in zip(tokens, w)))
    return points


def _individual(rng: Random, objectives: tuple[float, ...], rank: int | None = None,
                crowding: float | None = None) -> dict:
    doc = {
        "genome": list(random_genome(default_allele_table(), rng).indices),
        "objectives": list(objectives),
        "skills": [rng.random(), rng.random(), rng.random()],
    }
    if rank is not None:
        doc["rank"] = rank
        doc["crowding"] = crowding
    return doc


def _front_entry(rng: Random, tokens: list[str], doc: dict) -> FrontEntry:
    objectives = tuple(doc["objectives"])
    rmse_val = objectives[tokens.index("rmse")] if "rmse" in tokens else 0.3 + rng.random()
    checks = (rng.random() < 0.9, rng.random() < 0.8, rng.random() < 0.9)
    validity = ValidityReport(
        valid=all(checks), spread_ok=checks[0], symmetry_ok=checks[1], final_position_ok=checks[2],
        measured=(2.0 + 2.5 * rng.random(), 1.5 * rng.random() - 0.3, 38.0 + 14.0 * rng.random()),
    )
    return FrontEntry(genome=tuple(doc["genome"]), objectives=objectives,
                      rmse_validation=rmse_val, rmse_test=rmse_val * (0.9 + 0.2 * rng.random()),
                      validity=validity, skills=tuple(doc["skills"]))


def _run_record(rng: Random, cfg: ExperimentConfig, sizes: list[int], run_index: int) -> RunRecord:
    tokens = [oid.token for oid in cfg.objective_ids]
    snapshots = []
    searched: list[dict] = []
    run_level = 1.0 + 0.2 * rng.random()  # runs end at different fronts
    for gen, size in enumerate(sizes, start=1):
        size = max(1, size + rng.randint(-1, 1))
        level = run_level * (1.0 - 0.03 * gen)  # fronts move toward the origin as the search runs
        front = _plane_points(rng, tokens, size, level)
        if cfg.algorithm == "nsga2":
            size = min(size, cfg.population)
            searched = [_individual(rng, p, rank=0, crowding=None if i < 2 else 2.0 * rng.random())
                        for i, p in enumerate(front[:size])]
            rest = [_individual(rng, p, rank=1 + i % 3, crowding=2.0 * rng.random())
                    for i, p in enumerate(_plane_points(rng, tokens, cfg.population - size, 1.3 * level))]
            snapshots.append({"generation": gen, "population": searched + rest})
        else:
            searched = [_individual(rng, p) for p in front]
            subproblems = [_individual(rng, p)
                           for p in _plane_points(rng, tokens, cfg.population, 1.1 * level)]
            ideal = [min(ind["objectives"][j] for ind in subproblems + searched) for j in range(len(tokens))]
            snapshots.append({"generation": gen, "ideal": ideal, "subproblems": subproblems,
                              "archive": searched})
    return RunRecord(run_index=run_index, run_seed=cfg.base_seed + run_index, snapshots=snapshots,
                     final_front=[_front_entry(rng, tokens, doc) for doc in searched],
                     initial_front_objectives=[])


def synthesize_experiment(out_dir: Path, preset: str, scale: float, rng: Random) -> ExperimentConfig:
    """Write one experiment directory; returns its config."""
    cfg = preset_config(preset, scale=scale, base_seed=rng.randrange(1, 2 ** 31))
    sizes = front_sizes(cfg, preset, scale)
    records = [_run_record(rng, cfg, sizes, k) for k in range(cfg.runs)]
    persist_experiment(out_dir, cfg, records)
    return cfg


def synthesize_comparisons(root: Path, rng: Random, comparisons) -> list[tuple[Path, Path]]:
    """Write every experiment the comparisons need; returns (primary, against) dirs."""
    dirs = {}
    for pair in comparisons:
        for preset, scale in pair:
            name = experiment_name(preset, scale)
            if name not in dirs:
                dirs[name] = root / name
                synthesize_experiment(dirs[name], preset, scale, rng)
    return [(dirs[experiment_name(*a)], dirs[experiment_name(*b)]) for a, b in comparisons]



def main(argv: list[str]) -> int:
    """python3 synth.py OUT_DIR RNG_KEY COMPARISONS_JSON: write the records and
    print the (primary, against) directory names as JSON."""
    out_dir, key, comparisons = Path(argv[0]), argv[1], json.loads(argv[2])
    pairs = synthesize_comparisons(out_dir, Random(key),
                                   tuple(tuple((p, float(s)) for p, s in pair) for pair in comparisons))
    print(json.dumps([[a.name, b.name] for a, b in pairs]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
