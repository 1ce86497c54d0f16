"""Experiment orchestration: the 13-preset catalog, independent seeded runs,
persistence of per-generation snapshots and run summaries.

Directory layout per experiment:
    config.json          resolved configuration
    run_<k>.jsonl        one JSON snapshot per generation
    final_front_<k>.csv  final front/archive with validity flags
    summary.json         pooled valid-model counts and RMSE metrics
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Sequence

from . import moead as moead_mod
from . import nsga2 as nsga2_mod
from .analysis import ValidityReport, bonferroni, classify_validity, permutation_test, ranksum_test
from .errors import ConfigurationError, ContractError, MalformedRecordsError, NeurotrajError
from .evaluator import SurrogateConfig, evaluate, predict_split
from .genome import N_LOCI, GeneticOperators, Genome, default_allele_table
from .objectives import ObjectiveId, rmse
from .trajectory import Dataset, ScenarioConfig, generate_scenario, window_and_split


@dataclass(frozen=True)
class DatasetConfig:
    duration_s: float = 600.0
    lane_change_rate: float = 0.02
    seed: int = 0
    tau: int = 8
    ratio: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "lane_change_rate": self.lane_change_rate,
            "seed": self.seed,
            "tau": self.tau,
            "ratio": list(self.ratio),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DatasetConfig":
        doc = dict(doc)
        doc["ratio"] = tuple(doc.get("ratio", (0.6, 0.2, 0.2)))
        return cls(**doc)


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    objective_ids: tuple[ObjectiveId, ...]
    population: int
    generations: int
    runs: int
    base_seed: int = 1
    crossover_rate: float = 1.0
    mutation_rate: float = 0.5
    tournament_size: int = 3
    neighborhood_size: int = 7
    archive_cap: int | None = None
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)

    def __post_init__(self):
        if self.algorithm not in ("nsga2", "moead"):
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if not self.objective_ids:
            raise ConfigurationError("objective_ids must be non-empty")
        if len(set(self.objective_ids)) != len(self.objective_ids):
            raise ConfigurationError("objective_ids must be duplicate-free")
        if self.runs < 1 or self.generations < 1 or self.population < 2:
            raise ConfigurationError("runs/generations/population too small")

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "objectives": [oid.token for oid in self.objective_ids],
            "population": self.population,
            "generations": self.generations,
            "runs": self.runs,
            "base_seed": self.base_seed,
            "crossover_rate": self.crossover_rate,
            "mutation_rate": self.mutation_rate,
            "tournament_size": self.tournament_size,
            "neighborhood_size": self.neighborhood_size,
            "archive_cap": self.archive_cap,
            "dataset": self.dataset.to_dict(),
            "surrogate": self.surrogate.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        tokens = doc.pop("objectives")
        return cls(
            objective_ids=tuple(ObjectiveId.from_token(t) for t in tokens),
            dataset=DatasetConfig.from_dict(doc.pop("dataset", {})),
            surrogate=SurrogateConfig.from_dict(doc.pop("surrogate", {})),
            **doc,
        )


# The 13-experiment catalog. Batch 1 examines loss objectives with NSGA-II
# at pop 25 / 20 generations; Batch 2 compares the two engines at pop 45 /
# 15 generations; Batch 3 repeats the comparison on bi-objective subsets
# (sized like Batch 2).
_BATCH1 = {"algorithm": "nsga2", "population": 25, "generations": 20, "runs": 12, "batch": 1}
_BATCH2 = {"population": 45, "generations": 15, "runs": 12, "batch": 2}
_BATCH3 = {"population": 45, "generations": 15, "runs": 12, "batch": 3}

PRESETS: dict[str, dict] = {
    "exp1": {**_BATCH1, "objectives": ("rmse", "l2", "l3")},
    "exp2": {**_BATCH1, "objectives": ("signloss", "l2", "l3")},
    "exp3": {**_BATCH1, "objectives": ("rmse", "l1", "l3")},
    "exp4": {**_BATCH1, "objectives": ("signloss", "l1", "l3")},
    "exp5": {**_BATCH1, "objectives": ("l1", "l2", "l3")},
    "exp6": {**_BATCH2, "algorithm": "nsga2", "objectives": ("rmse", "l2", "l3")},
    "exp7": {**_BATCH2, "algorithm": "moead", "objectives": ("rmse", "l2", "l3")},
    "exp8": {**_BATCH2, "algorithm": "nsga2", "objectives": ("rmse", "l1", "l3")},
    "exp9": {**_BATCH2, "algorithm": "moead", "objectives": ("rmse", "l1", "l3")},
    "exp10": {**_BATCH3, "algorithm": "nsga2", "objectives": ("rmse", "l2")},
    "exp11": {**_BATCH3, "algorithm": "moead", "objectives": ("rmse", "l2")},
    "exp12": {**_BATCH3, "algorithm": "nsga2", "objectives": ("rmse", "l1")},
    "exp13": {**_BATCH3, "algorithm": "moead", "objectives": ("rmse", "l1")},
}


def scaled_count(value: int, scale: float) -> int:
    """Half-up rounding with a floor of 1."""
    return max(1, math.floor(value * scale + 0.5))


def _snap_population(algorithm: str, m: int, population: int) -> int:
    """MOEA/D population must be an achievable simplex-lattice size."""
    population = max(2, population)
    if algorithm != "moead":
        return population
    h = moead_mod.lattice_resolution_for(m, population)
    return moead_mod.simplex_lattice(m, h).size


def scale_config(cfg: ExperimentConfig, scale: float) -> ExperimentConfig:
    """Shrink (or grow) population, generations and run count proportionally."""
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    if scale == 1.0:
        return cfg
    population = _snap_population(cfg.algorithm, len(cfg.objective_ids),
                                  scaled_count(cfg.population, scale))
    doc = cfg.to_dict()
    doc.update(population=population,
               generations=scaled_count(cfg.generations, scale),
               runs=scaled_count(cfg.runs, scale))
    return ExperimentConfig.from_dict(doc)


def preset_config(name: str, scale: float = 1.0, base_seed: int = 1) -> ExperimentConfig:
    """Resolve a preset into a concrete config, optionally shrunk by `scale`."""
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; expected exp1..exp13")
    entry = PRESETS[name]
    ids = tuple(ObjectiveId.from_token(t) for t in entry["objectives"])
    cfg = ExperimentConfig(
        algorithm=entry["algorithm"],
        objective_ids=ids,
        population=_snap_population(entry["algorithm"], len(ids), entry["population"]),
        generations=entry["generations"],
        runs=entry["runs"],
        base_seed=base_seed,
    )
    return scale_config(cfg, scale)


@dataclass
class FrontEntry:
    """One final-front model as persisted to final_front_<k>.csv."""

    genome: tuple[int, ...]
    objectives: tuple[float, ...]
    rmse_validation: float
    rmse_test: float
    validity: ValidityReport
    skills: tuple[float, float, float]


@dataclass
class RunRecord:
    run_index: int
    run_seed: int
    snapshots: list[dict]
    final_front: list[FrontEntry]
    initial_front_objectives: list[tuple[float, ...]]
    wall_time_s: float = 0.0
    error: str | None = None


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    """One dataset per experiment, shared by all runs."""
    path = generate_scenario(ScenarioConfig(
        duration_s=cfg.dataset.duration_s,
        lane_change_rate=cfg.dataset.lane_change_rate,
        seed=cfg.dataset.seed,
    ))
    return window_and_split(path, tau=cfg.dataset.tau, ratio=cfg.dataset.ratio,
                            seed=cfg.dataset.seed)


def _individual_snapshot(ind: nsga2_mod.Individual, with_rank: bool) -> dict:
    doc = {
        "genome": list(ind.genome.indices),
        "objectives": list(ind.objectives.values),
        "skills": list(ind.evaluation.skills) if ind.evaluation is not None else None,
    }
    if with_rank:
        doc["rank"] = ind.rank
        doc["crowding"] = None if math.isinf(ind.crowding) else ind.crowding
    return doc


def _front_entries(individuals: Sequence[nsga2_mod.Individual], data: Dataset,
                   cfg: SurrogateConfig) -> list[FrontEntry]:
    """Judge each final-front model on the test split, predicted once per model."""
    actual_test = data.test[:, data.tau:]
    entries = []
    for ind in individuals:
        ev = ind.evaluation
        predicted_test = predict_split(ind.genome, ev.skills, cfg, data.test, "test")
        entries.append(FrontEntry(
            genome=ind.genome.indices,
            objectives=ind.objectives.values,
            rmse_validation=ev.rmse_validation,
            rmse_test=rmse(predicted_test, actual_test),
            validity=classify_validity(predicted_test),
            skills=ev.skills,
        ))
    return entries


def execute_run(cfg: ExperimentConfig, data: Dataset, run_index: int) -> RunRecord:
    """One independent, fully seeded run. Package errors are captured, not
    raised; any other exception is a bug and propagates."""
    run_seed = cfg.base_seed + run_index
    rng = Random(run_seed)
    table = default_allele_table()
    ops = GeneticOperators(table=table, crossover_rate=cfg.crossover_rate,
                           mutation_rate=cfg.mutation_rate)

    def eval_fn(genome: Genome):
        result = evaluate(genome, data, cfg.objective_ids, cfg.surrogate)
        return result.objectives, result

    start = time.perf_counter()
    try:
        if cfg.algorithm == "nsga2":
            snapshots, final_front, initial_front = _run_nsga2(cfg, eval_fn, ops, rng)
        else:
            snapshots, final_front, initial_front = _run_moead(cfg, eval_fn, ops, rng)
        entries = _front_entries(final_front, data, cfg.surrogate)
    except NeurotrajError as exc:  # a failed run must not abort siblings
        return RunRecord(run_index=run_index, run_seed=run_seed, snapshots=[],
                         final_front=[], initial_front_objectives=[],
                         wall_time_s=time.perf_counter() - start,
                         error=f"{type(exc).__name__}: {exc}")
    return RunRecord(
        run_index=run_index,
        run_seed=run_seed,
        snapshots=snapshots,
        final_front=entries,
        initial_front_objectives=[ind.objectives.values for ind in initial_front],
        wall_time_s=time.perf_counter() - start,
    )


def _run_nsga2(cfg, eval_fn, ops, rng):
    pop = nsga2_mod.init_population(cfg.population, eval_fn, ops, rng)
    initial_front = [ind for ind in pop if ind.rank == 0]
    snapshots = []
    for gen in range(cfg.generations):
        pop = nsga2_mod.nsga2_step(pop, eval_fn, ops, rng, tournament_k=cfg.tournament_size)
        snapshots.append({
            "generation": gen + 1,
            "population": [_individual_snapshot(ind, with_rank=True) for ind in pop],
        })
    final_front = [ind for ind in pop if ind.rank == 0]
    return snapshots, final_front, initial_front


def _run_moead(cfg, eval_fn, ops, rng):
    m = len(cfg.objective_ids)
    h = moead_mod.lattice_resolution_for(m, cfg.population)
    lattice = moead_mod.simplex_lattice(m, h)
    t = min(cfg.neighborhood_size, lattice.size)
    neighborhoods = moead_mod.build_neighborhoods(lattice, t)
    state = moead_mod.init_state(lattice, eval_fn, ops, rng)
    initial_front = list(state.archive)
    snapshots = []
    for gen in range(cfg.generations):
        state = moead_mod.moead_step(state, lattice, neighborhoods, eval_fn, ops, rng,
                                     archive_cap=cfg.archive_cap)
        snapshots.append({
            "generation": gen + 1,
            "ideal": list(state.ideal),
            "subproblems": [_individual_snapshot(ind, with_rank=False) for ind in state.solutions],
            "archive": [_individual_snapshot(ind, with_rank=False) for ind in state.archive],
        })
    return snapshots, list(state.archive), initial_front


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   jobs: int = 1) -> list[RunRecord]:
    """Execute all independent runs; optionally persist the experiment."""
    data = build_dataset(cfg)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(execute_run, [cfg] * cfg.runs, [data] * cfg.runs,
                                    range(cfg.runs)))
    else:
        records = [execute_run(cfg, data, k) for k in range(cfg.runs)]
    if out_dir is not None:
        persist_experiment(Path(out_dir), cfg, records)
    return records


# ---------------------------------------------------------------------------
# Persistence


def persist_experiment(out_dir: Path, cfg: ExperimentConfig, records: list[RunRecord]) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    config_path = out_dir / "config.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
        fh.write("\n")
    written.append(config_path)

    tokens = [oid.token for oid in cfg.objective_ids]
    for rec in records:
        jsonl_path = out_dir / f"run_{rec.run_index}.jsonl"
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            for snap in rec.snapshots:
                fh.write(json.dumps(snap))
                fh.write("\n")
        written.append(jsonl_path)

        csv_path = out_dir / f"final_front_{rec.run_index}.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            header = ([f"gene_{i + 1}" for i in range(N_LOCI)] + tokens
                      + ["rmse_validation", "rmse_test", "valid", "spread_ok",
                         "symmetry_ok", "final_position_ok",
                         "max_abs_x", "mean_final_x", "mean_final_y",
                         "skill_acc", "skill_smooth", "skill_speed"])
            writer.writerow(header)
            for e in rec.final_front:
                writer.writerow(
                    list(e.genome) + [repr(v) for v in e.objectives]
                    + [repr(e.rmse_validation), repr(e.rmse_test),
                       int(e.validity.valid), int(e.validity.spread_ok),
                       int(e.validity.symmetry_ok), int(e.validity.final_position_ok)]
                    + [repr(v) for v in e.validity.measured]
                    + [repr(s) for s in e.skills])
        written.append(csv_path)

    summary_path = out_dir / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summarize(records).to_dict(), fh, indent=2)
        fh.write("\n")
    written.append(summary_path)
    return written


def load_config(exp_dir: Path) -> ExperimentConfig:
    try:
        with open(exp_dir / "config.json", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, NeurotrajError) as exc:
        raise MalformedRecordsError(f"cannot load config from {exp_dir}: {exc}") from exc


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flag {text!r} is neither 0 nor 1")
    return text == "1"


def _check_snapshots(path: Path, snapshots: list, algorithm: str, m: int) -> None:
    """Every member `analyze` reads (the NSGA-II population, whose ranks are
    non-negative ints, and the MOEA/D archive) carries m finite objective
    values."""
    key, needs_rank = ("population", True) if algorithm == "nsga2" else ("archive", False)
    try:
        for gen, snap in enumerate(snapshots, start=1):
            for ind in snap[key]:
                objectives = ind["objectives"]
                if needs_rank and (type(ind["rank"]) is not int or ind["rank"] < 0):
                    raise MalformedRecordsError(
                        f"{path}: generation {gen}: rank {ind['rank']!r} is not a non-negative int")
                if len(objectives) != m or not all(map(math.isfinite, objectives)):
                    raise MalformedRecordsError(
                        f"{path}: generation {gen}: member without {m} finite objectives")
    except (KeyError, TypeError) as exc:
        raise MalformedRecordsError(f"bad snapshots in {path}: {exc!r}") from exc


def load_records(exp_dir: Path) -> tuple[ExperimentConfig, list[RunRecord]]:
    """Reload persisted records; raises MalformedRecordsError on inconsistency."""
    import orjson  # imported here so that run, generate and presets do not load it

    exp_dir = Path(exp_dir)
    cfg = load_config(exp_dir)
    tokens = [oid.token for oid in cfg.objective_ids]
    records = []
    for k in range(cfg.runs):
        jsonl_path = exp_dir / f"run_{k}.jsonl"
        csv_path = exp_dir / f"final_front_{k}.csv"
        try:
            with open(jsonl_path, "rb") as fh:
                snapshots = [orjson.loads(line) for line in fh if line.strip()]
        except (OSError, orjson.JSONDecodeError) as exc:
            raise MalformedRecordsError(f"bad snapshots in {jsonl_path}: {exc}") from exc
        if len(snapshots) != cfg.generations:
            raise MalformedRecordsError(
                f"{jsonl_path}: {len(snapshots)} snapshots, expected {cfg.generations}")
        _check_snapshots(jsonl_path, snapshots, cfg.algorithm, len(tokens))
        entries = []
        try:
            with open(csv_path, newline="", encoding="utf-8") as fh:
                rows = csv.reader(fh)
                header = next(rows, [])
                col = {name: i for i, name in enumerate(header)}
                for row in rows:
                    if not row:
                        continue
                    if len(row) != len(header):
                        raise ValueError(f"line {rows.line_num} has {len(row)} fields, "
                                         f"the header {len(header)}")
                    genome = Genome(tuple(int(row[col[f"gene_{i + 1}"]]) for i in range(N_LOCI)))
                    default_allele_table().validate_genome(genome)
                    measured = (_finite(row[col["max_abs_x"]]), _finite(row[col["mean_final_x"]]),
                                _finite(row[col["mean_final_y"]]))
                    tests = [_flag(row[col[c]])
                             for c in ("spread_ok", "symmetry_ok", "final_position_ok")]
                    valid = row[col["valid"]]
                    if _flag(valid) != all(tests):
                        raise ValueError(f"valid {valid} contradicts the test flags {tests}")
                    validity = ValidityReport(all(tests), *tests, measured=measured)
                    entries.append(FrontEntry(
                        genome=genome.indices,
                        objectives=tuple(_finite(row[col[t]]) for t in tokens),
                        rmse_validation=_finite(row[col["rmse_validation"]]),
                        rmse_test=_finite(row[col["rmse_test"]]),
                        validity=validity,
                        skills=(_finite(row[col["skill_acc"]]), _finite(row[col["skill_smooth"]]),
                                _finite(row[col["skill_speed"]])),
                    ))
        except (OSError, KeyError, ValueError, TypeError, ContractError) as exc:
            raise MalformedRecordsError(f"bad final front in {csv_path}: {exc}") from exc
        records.append(RunRecord(run_index=k, run_seed=cfg.base_seed + k,
                                 snapshots=snapshots, final_front=entries,
                                 initial_front_objectives=[]))
    return cfg, records


# ---------------------------------------------------------------------------
# Summaries

_METRICS = ("rmse_val_all", "rmse_test_all", "rmse_val_valid_only", "rmse_test_valid_only")


@dataclass
class SummaryReport:
    valid_count: int
    total_count: int
    runs: int
    metrics: dict[str, dict | None]
    errors: list[str]
    comparison: dict | None = None

    @property
    def display(self) -> str:
        pct = round(100.0 * self.valid_count / self.total_count) if self.total_count else 0
        return f"{self.valid_count}/{self.total_count}, {pct}%"

    def to_dict(self) -> dict:
        frac = self.valid_count / self.total_count if self.total_count else 0.0
        doc = {
            "valid_models": {
                "valid": self.valid_count,
                "total": self.total_count,
                "fraction": frac,
                "percentage": round(100.0 * frac),
                "display": self.display,
            },
            "runs": self.runs,
            "metrics": self.metrics,
            "errors": self.errors,
        }
        if self.comparison is not None:
            doc["comparison"] = self.comparison
        return doc


def _per_run_metrics(records: list[RunRecord]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {m: [] for m in _METRICS}
    for rec in records:
        if rec.error or not rec.final_front:
            continue
        vals = [e.rmse_validation for e in rec.final_front]
        tests = [e.rmse_test for e in rec.final_front]
        out["rmse_val_all"].append(sum(vals) / len(vals))
        out["rmse_test_all"].append(sum(tests) / len(tests))
        valid = [e for e in rec.final_front if e.validity.valid]
        if valid:
            out["rmse_val_valid_only"].append(sum(e.rmse_validation for e in valid) / len(valid))
            out["rmse_test_valid_only"].append(sum(e.rmse_test for e in valid) / len(valid))
    return out


def _mean_std(values: list[float]) -> dict | None:
    if not values:
        return None
    mean = sum(values) / len(values)
    if len(values) > 1:
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    else:
        std = 0.0
    return {"mean": mean, "std": std, "per_run": values}


def summarize(
    records: list[RunRecord],
    against: list[RunRecord] | None = None,
    alpha: float = 0.05,
    comparisons: int = 2,
) -> SummaryReport:
    """Pool valid-model counts and the four RMSE metrics over all runs.

    With `against`, adds permutation and rank-sum p-values per metric at
    the Bonferroni-adjusted threshold. Per-run means are the test samples,
    matching twelve-runs-per-experiment style comparisons.
    """
    if not records:
        raise MalformedRecordsError("no run records to summarize")
    valid = sum(1 for rec in records for e in rec.final_front if e.validity.valid)
    total = sum(len(rec.final_front) for rec in records)
    per_run = _per_run_metrics(records)
    metrics = {name: _mean_std(vals) for name, vals in per_run.items()}
    errors = [f"run {rec.run_index}: {rec.error}" for rec in records if rec.error]

    comparison = None
    if against is not None:
        other = _per_run_metrics(against)
        threshold = bonferroni(alpha, comparisons)
        per_metric = {}
        for name in _METRICS:
            a, b = per_run[name], other[name]
            if a and b:
                p_perm = permutation_test(a, b)
                p_rank = ranksum_test(a, b)
                per_metric[name] = {
                    "permutation_p": p_perm,
                    "ranksum_p": p_rank,
                    "significant": bool(p_perm < threshold and p_rank < threshold),
                }
            else:
                per_metric[name] = None
        comparison = {
            "alpha": alpha,
            "comparisons": comparisons,
            "bonferroni_threshold": threshold,
            "metrics": per_metric,
        }
    return SummaryReport(valid_count=valid, total_count=total, runs=len(records),
                         metrics=metrics, errors=errors, comparison=comparison)
