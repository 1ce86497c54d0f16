"""Experiment orchestration: the 13-preset catalog, independent seeded runs,
persistence of per-generation snapshots and run summaries.

Directory layout per experiment:
    config.json          resolved configuration
    run_<k>.jsonl        one compact JSON snapshot per generation, or a failed run's error
    final_front_<k>.csv  final front/archive with validity flags
    summary.json         pooled valid-model counts and RMSE metrics
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Sequence

import numpy as np

from . import moead as moead_mod
from . import nsga2 as nsga2_mod
from .analysis import ValidityReport, bonferroni, classify_validity, permutation_test, ranksum_test
from .config import Config
from .errors import ConfigurationError, ContractError, MalformedRecordsError, NeurotrajError
from .evaluator import evaluate, evaluate_all, predictions, skill_scores, validation_rmse
from .genome import N_LOCI, GeneticOperators, Genome, default_allele_table
from .objectives import ObjectiveId, Objectives, rmse
from .trajectory import Dataset, generate_scenario, read_csv, window_and_split, write_csv, write_json


@dataclass(frozen=True)
class DatasetConfig(Config):
    duration_s: float = 600.0
    lane_change_rate: float = 0.02
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig(Config):
    """`runs` seeded runs of one engine. Building one raises a MOEA/D population
    to the smallest simplex-lattice size at least as large (3 objectives: 40 to 45)."""

    algorithm: str
    objective_ids: tuple[ObjectiveId, ...]
    population: int
    generations: int
    runs: int
    base_seed: int = 1
    dataset: DatasetConfig = field(default_factory=DatasetConfig)

    KEYS = {"objective_ids": "objectives"}  # config.json names the objectives by token

    def __post_init__(self):
        super().__post_init__()
        if self.algorithm not in ("nsga2", "moead"):
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if len(self.objective_ids) not in (2, 3):  # all the MOEA/D lattice and hypervolume take
            raise ConfigurationError(f"need 2 or 3 objectives, got {len(self.objective_ids)}")
        if len(set(self.objective_ids)) != len(self.objective_ids):
            raise ConfigurationError("objective_ids must be duplicate-free")
        if self.runs < 1 or self.generations < 1 or self.population < 2:
            raise ConfigurationError("runs/generations/population too small")
        if self.algorithm == "moead":  # one subproblem per vector of a lattice of comb(H + m - 1, m - 1)
            h = moead_mod.lattice_resolution_for(m := len(self.objective_ids), self.population)
            object.__setattr__(self, "population", math.comb(h + m - 1, m - 1))

    def to_dict(self) -> dict:
        # "objectives" keeps its place in the field order; its value becomes the tokens
        return {**super().to_dict(), "objectives": [oid.token for oid in self.objective_ids]}

    @classmethod
    def from_dict(cls, doc: dict) -> ExperimentConfig:
        if isinstance(doc, dict) and isinstance(tokens := doc.get("objectives"), list):
            doc = {**doc, "objectives": tuple(map(ObjectiveId.from_token, tokens))}
        return super().from_dict(doc)


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


def scale_config(cfg: ExperimentConfig, scale: float) -> ExperimentConfig:
    """Shrink (or grow) population, generations and run count proportionally."""
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigurationError(f"scale must be finite and positive, got {scale}")
    return replace(cfg, population=max(2, scaled_count(cfg.population, scale)),
                   generations=scaled_count(cfg.generations, scale),
                   runs=scaled_count(cfg.runs, scale))


def preset_config(name: str, scale: float = 1.0, base_seed: int = 1) -> ExperimentConfig:
    """Resolve a preset into a concrete config, optionally shrunk by `scale`."""
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; expected exp1..exp13")
    entry = PRESETS[name]
    ids = tuple(ObjectiveId.from_token(t) for t in entry["objectives"])
    cfg = ExperimentConfig(
        algorithm=entry["algorithm"],
        objective_ids=ids,
        population=entry["population"],
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
    final_front: list[FrontEntry] = field(default_factory=list)
    # Set by execute_run only: load_records keeps the fronts, not the trees.
    snapshots: list[dict] = field(default_factory=list)
    initial_front_objectives: list[tuple[float, ...]] = field(default_factory=list)
    wall_time_s: float = 0.0
    error: str | None = None
    # Set by load_records: the searched set of each generation (the NSGA-II
    # rank-0 members or the MOEA/D archive) as one (k, m) objective array.
    fronts: list[np.ndarray] = field(default_factory=list, compare=False)


def scenario_dataset(dcfg: DatasetConfig) -> Dataset:
    """The windowed and split scenario of `dcfg`. ConfigurationError if the
    scenario is too short to leave both validation and test windows."""
    data = window_and_split(generate_scenario(dcfg.duration_s, dcfg.lane_change_rate, dcfg.seed),
                            seed=dcfg.seed)
    if not (len(data.validation) and len(data.test)):
        raise ConfigurationError(f"a {dcfg.duration_s} s scenario leaves "
                                 f"{len(data.validation)} validation and {len(data.test)} test windows")
    return data


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    """One dataset per experiment, shared by all runs."""
    return scenario_dataset(cfg.dataset)


def _individual_snapshot(ind: nsga2_mod.Individual, with_rank: bool) -> dict:
    doc = {
        "genome": list(ind.genome.indices),
        "objectives": list(ind.objectives),
    }
    if with_rank:
        doc["rank"] = ind.rank
    return doc


def _front_entries(individuals: Sequence[nsga2_mod.Individual], data: Dataset,
                   ids: Sequence[ObjectiveId]) -> list[FrontEntry]:
    """Judge each final-front model on the test split, all models predicted
    as stacks, from skills computed once per model. Its validation RMSE is
    its searched RMSE objective, or where RMSE is not searched, the
    evaluator's `validation_rmse`."""
    genomes = [ind.genome for ind in individuals]
    skills = [skill_scores(g) for g in genomes]
    actual = data.test_targets
    rmse_test, validity = [], []
    for predicted in predictions(genomes, skills, actual, "test"):
        rmse_test += rmse(predicted, actual)
        validity += classify_validity(predicted)
    if ObjectiveId.RMSE in ids:
        searched = ids.index(ObjectiveId.RMSE)
        rmse_validation = [ind.objectives[searched] for ind in individuals]
    else:
        rmse_validation = validation_rmse(genomes, skills, data)
    return [FrontEntry(genome=ind.genome.indices, objectives=ind.objectives, rmse_validation=val,
                       rmse_test=test, validity=report, skills=s)
            for ind, val, test, report, s in zip(individuals, rmse_validation, rmse_test,
                                                 validity, skills, strict=True)]


def execute_run(cfg: ExperimentConfig, data: Dataset, run_index: int) -> RunRecord:
    """One independent, fully seeded run. Package errors are captured, not
    raised; any other exception is a bug and propagates."""
    run_seed = cfg.base_seed + run_index
    rng = Random(run_seed)
    ops = GeneticOperators(table=default_allele_table())

    # The request is scored as stacks into the dataset's memo; each genome's
    # vector is then read through `evaluate`, which is looked up at each call,
    # so a stand-in set on this module is the one called, once per genome.
    def eval_fn(genomes: list[Genome]) -> list[Objectives]:
        evaluate_all(genomes, data, cfg.objective_ids)
        return [evaluate(g, data, cfg.objective_ids) for g in genomes]

    start = time.perf_counter()
    try:
        if cfg.algorithm == "nsga2":
            snapshots, final_front, initial_front = _run_nsga2(cfg, eval_fn, ops, rng)
        else:
            snapshots, final_front, initial_front = _run_moead(cfg, eval_fn, ops, rng)
        entries = _front_entries(final_front, data, cfg.objective_ids)
    except NeurotrajError as exc:  # a failed run must not abort siblings
        # Escaped, so that a lone surrogate (from a path decoded with
        # surrogateescape) can be written as UTF-8.
        error = f"{type(exc).__name__}: {exc}".encode("utf-8", "backslashreplace").decode()
        return RunRecord(run_index=run_index, run_seed=run_seed,
                         wall_time_s=time.perf_counter() - start, error=error)
    return RunRecord(
        run_index=run_index,
        run_seed=run_seed,
        snapshots=snapshots,
        final_front=entries,
        initial_front_objectives=[ind.objectives for ind in initial_front],
        wall_time_s=time.perf_counter() - start,
    )


def _run_nsga2(cfg, eval_fn, ops, rng):
    pop = nsga2_mod.init_population(cfg.population, eval_fn, ops, rng)
    initial_front = [ind for ind in pop if ind.rank == 0]
    snapshots = []
    for gen in range(cfg.generations):
        pop = nsga2_mod.nsga2_step(pop, eval_fn, ops, rng)
        snapshots.append({
            "generation": gen + 1,
            "population": [_individual_snapshot(ind, with_rank=True) for ind in pop],
        })
    final_front = [ind for ind in pop if ind.rank == 0]
    return snapshots, final_front, initial_front


def _run_moead(cfg, eval_fn, ops, rng):
    m = len(cfg.objective_ids)
    lattice = moead_mod.simplex_lattice(m, moead_mod.lattice_resolution_for(m, cfg.population))
    t = min(moead_mod.NEIGHBORHOOD_SIZE, lattice.size)
    neighborhoods = moead_mod.build_neighborhoods(lattice, t)
    state = moead_mod.init_state(lattice, eval_fn, ops, rng)
    initial_front = list(state.archive)
    snapshots = []
    for gen in range(cfg.generations):
        state = moead_mod.moead_step(state, lattice, neighborhoods, eval_fn, ops, rng)
        snapshots.append({
            "generation": gen + 1,
            "ideal": list(state.ideal),
            "subproblems": [_individual_snapshot(ind, with_rank=False) for ind in state.solutions],
            "archive": [_individual_snapshot(ind, with_rank=False) for ind in state.archive],
        })
    return snapshots, list(state.archive), initial_front


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   jobs: int = 1) -> list[RunRecord]:
    """Execute all independent runs, `jobs` (at least 1) at a time; optionally
    persist the experiment."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    data = build_dataset(cfg)
    # The pool starts all its workers at once, so it gets no more than there are runs.
    workers = min(jobs, cfg.runs)
    if workers > 1:
        # Imported here: one-job runs and the other commands need not load
        # multiprocessing, socket and subprocess.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(execute_run, [cfg] * cfg.runs, [data] * cfg.runs,
                                    range(cfg.runs)))
    else:
        records = [execute_run(cfg, data, k) for k in range(cfg.runs)]
    if out_dir is not None:
        persist_experiment(Path(out_dir), cfg, records)
    return records


# ---------------------------------------------------------------------------
# Persistence

CONFIG_FILE = "config.json"
SUMMARY_FILE = "summary.json"


def run_files(k: int) -> tuple[str, str]:
    """The names of run k's snapshot file and final-front file."""
    return f"run_{k}.jsonl", f"final_front_{k}.csv"


def experiment_files(runs: int) -> list[str]:
    """The names of every file an experiment of `runs` runs is persisted to."""
    return [CONFIG_FILE, *(name for k in range(runs) for name in run_files(k)), SUMMARY_FILE]


# The columns of final_front_<k>.csv that follow the genes and the objective
# values; `load_records` reads them by position.
FRONT_COLUMNS = ("rmse_validation", "rmse_test", "valid", "spread_ok", "symmetry_ok",
                 "final_position_ok", "max_abs_x", "mean_final_x", "mean_final_y",
                 "skill_acc", "skill_smooth", "skill_speed")


def front_header(tokens: list[str]) -> list[str]:
    """The exact header of final_front_<k>.csv for these objective tokens."""
    return [f"gene_{i + 1}" for i in range(N_LOCI)] + tokens + list(FRONT_COLUMNS)


def persist_experiment(out_dir: Path, cfg: ExperimentConfig, records: list[RunRecord]) -> list[Path]:
    import orjson  # imported here, as in _read_run: only commands that write or read runs load it

    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    written.append(write_json(out_dir / CONFIG_FILE, cfg.to_dict()))

    header = front_header([oid.token for oid in cfg.objective_ids])
    for rec in records:
        jsonl_path, csv_path = (out_dir / name for name in run_files(rec.run_index))
        with open(jsonl_path, "wb") as fh:
            for snap in [{"error": rec.error}] if rec.error else rec.snapshots:
                fh.write(orjson.dumps(snap, option=orjson.OPT_APPEND_NEWLINE))
        written.append(jsonl_path)

        written.append(write_csv(csv_path, header, (
            list(e.genome) + [repr(v) for v in e.objectives]
            + [repr(e.rmse_validation), repr(e.rmse_test),
               int(e.validity.valid), int(e.validity.spread_ok),
               int(e.validity.symmetry_ok), int(e.validity.final_position_ok)]
            + [repr(v) for v in e.validity.measured]
            + [repr(s) for s in e.skills]
            for e in rec.final_front)))

    written.append(write_json(out_dir / SUMMARY_FILE, summarize(records)))
    return written


def read_config(path: str | Path) -> ExperimentConfig:
    """Parse a config document; ConfigurationError if it is not a valid
    config in UTF-8 JSON."""
    try:  # an OSError passes; a UnicodeDecodeError is a ValueError
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigurationError(f"{path} is not a JSON document in UTF-8: {exc}") from exc
    return ExperimentConfig.from_dict(doc)


def load_config(exp_dir: Path) -> ExperimentConfig:
    try:
        return read_config(exp_dir / CONFIG_FILE)
    except (OSError, NeurotrajError) as exc:
        raise MalformedRecordsError(f"cannot load config from {exp_dir}: {exc}") from exc


_FLAGS = {"0": False, "1": True}


def _read_run(path: Path, algorithm: str, m: int) -> tuple[list[np.ndarray], str | None]:
    """Read run_<k>.jsonl one line at a time, each reduced to its generation's
    searched set, a (k, m) array of the rank-0 NSGA-II members or the MOEA/D
    archive, before the next is read. Every member read (the population,
    whose ranks are non-negative ints, or the archive) must carry m finite
    numbers as objectives. A failed run's file is one {"error": message} line."""
    import orjson  # imported here, as in persist_experiment: generate and presets do not load it

    nsga2 = algorithm == "nsga2"
    fronts, error = [], None
    try:
        with open(path, "rb") as fh:
            for gen, line in enumerate(filter(bytes.strip, fh), start=1):
                snap = orjson.loads(line)
                if gen == 1 and type(snap) is dict and snap.keys() == {"error"}:
                    error = snap["error"]
                    continue
                members = snap["population" if nsga2 else "archive"]
                rows = [ind["objectives"] for ind in members]
                # Ragged or nested rows raise ValueError or give another shape;
                # a string or null gives a non-numeric dtype.
                values = np.array(rows) if rows else np.empty((0, m))
                if (values.dtype.kind not in "biuf" or values.shape != (len(rows), m)
                        or not np.isfinite(values).all()):
                    raise MalformedRecordsError(
                        f"{path}: generation {gen}: member without {m} finite objectives")
                values = values.astype(float, copy=False)
                if nsga2:
                    ranks = [ind["rank"] for ind in members]
                    bad = [rank for rank in ranks if type(rank) is not int or rank < 0]
                    if bad:
                        raise MalformedRecordsError(
                            f"{path}: generation {gen}: rank {bad[0]!r} is not a non-negative int")
                    values = values[[rank == 0 for rank in ranks]]
                fronts.append(values)
    except (OSError, orjson.JSONDecodeError) as exc:
        raise MalformedRecordsError(f"bad snapshots in {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecordsError(f"bad snapshots in {path}: {exc!r}") from exc
    if error is not None and (fronts or not isinstance(error, str) or not error):
        raise MalformedRecordsError(f"{path}: a failed run's file holds one error message only")
    return fronts, error


def _read_front(csv_path: Path, header: list[str], m: int) -> list[FrontEntry]:
    """The entries of final_front_<k>.csv, checked column block by column
    block: genes within the allele table, finite numbers, 0/1 flags, and a
    `valid` flag equal to the conjunction of the three test flags."""
    counts = default_allele_table().counts
    try:
        rows = list(read_csv(csv_path, header))
        genes = [tuple(map(int, row[:N_LOCI])) for row in rows]
        # FRONT_COLUMNS: two RMSEs, `valid` and three test flags, three measures, three skills
        numbers = [list(map(float, row[N_LOCI:N_LOCI + m + 2] + row[N_LOCI + m + 6:]))
                   for row in rows]
        flags = [[_FLAGS[text] for text in row[N_LOCI + m + 2:N_LOCI + m + 6]] for row in rows]
        gene_array = np.array(genes).reshape(len(rows), N_LOCI)
        bad = np.argwhere((gene_array < 0) | (gene_array >= np.array(counts)))
        if len(bad):
            row, locus = bad[0]
            raise ValueError(f"row {row + 1} locus {locus}: index {genes[row][locus]} "
                             f"out of range [0, {counts[locus]})")
        if not np.isfinite(np.array(numbers, dtype=float)).all():
            raise ValueError("a number column holds a non-finite value")
        if any(valid != all(tests) for valid, *tests in flags):
            raise ValueError("a valid flag contradicts the test flags")
    except KeyError as exc:
        raise MalformedRecordsError(
            f"bad final front in {csv_path}: flag {exc} is neither 0 nor 1") from exc
    except (OSError, ValueError, ContractError) as exc:
        raise MalformedRecordsError(f"bad final front in {csv_path}: {exc}") from exc
    return [FrontEntry(genome=genome, objectives=tuple(values[:m]), rmse_validation=values[m],
                       rmse_test=values[m + 1],
                       validity=ValidityReport(*row_flags, measured=tuple(values[m + 2:m + 5])),
                       skills=tuple(values[m + 5:]))
            for genome, values, row_flags in zip(genes, numbers, flags)]


def load_records(exp_dir: Path) -> tuple[ExperimentConfig, list[RunRecord]]:
    """Reload persisted records; raises MalformedRecordsError on inconsistency."""
    exp_dir = Path(exp_dir)
    cfg = load_config(exp_dir)
    m = len(cfg.objective_ids)
    header = front_header([oid.token for oid in cfg.objective_ids])
    records = []
    for k in range(cfg.runs):
        jsonl_path, csv_path = (exp_dir / name for name in run_files(k))
        fronts, error = _read_run(jsonl_path, cfg.algorithm, m)
        if error is None and len(fronts) != cfg.generations:
            raise MalformedRecordsError(
                f"{jsonl_path}: {len(fronts)} snapshots, expected {cfg.generations}")
        entries = _read_front(csv_path, header, m)
        if error is not None and entries:
            raise MalformedRecordsError(f"{csv_path}: run {k} failed but has a final front")
        records.append(RunRecord(run_index=k, run_seed=cfg.base_seed + k,
                                 final_front=entries, fronts=fronts, error=error))
    return cfg, records


# ---------------------------------------------------------------------------
# Summaries

_METRICS = ("rmse_val_all", "rmse_test_all", "rmse_val_valid_only", "rmse_test_valid_only")


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
) -> dict:
    """Pool valid-model counts and the four RMSE metrics over all runs into
    the summary.json document.

    With `against`, adds permutation and rank-sum p-values per metric at
    the Bonferroni-adjusted threshold. Per-run means are the test samples,
    matching twelve-runs-per-experiment style comparisons.
    """
    if not records:
        raise MalformedRecordsError("no run records to summarize")
    valid = sum(1 for rec in records for e in rec.final_front if e.validity.valid)
    total = sum(len(rec.final_front) for rec in records)
    per_run = _per_run_metrics(records)
    frac = valid / total if total else 0.0
    pct = round(100.0 * valid / total) if total else 0
    doc = {
        "valid_models": {"valid": valid, "total": total, "fraction": frac,
                         "percentage": pct, "display": f"{valid}/{total}, {pct}%"},
        "runs": len(records),
        "metrics": {name: _mean_std(vals) for name, vals in per_run.items()},
        "errors": [f"run {rec.run_index}: {rec.error}" for rec in records if rec.error],
    }
    if against is not None:
        other = _per_run_metrics(against)
        threshold = bonferroni(alpha, comparisons)
        # Metrics with as many runs on each side share one permutation test
        # call, so their rows share one set of shuffles.
        groups: dict[tuple[int, int], list[str]] = {}
        for name in _METRICS:
            if per_run[name] and other[name]:
                groups.setdefault((len(per_run[name]), len(other[name])), []).append(name)
        per_metric = dict.fromkeys(_METRICS)
        for names in groups.values():
            p_perms = permutation_test([per_run[name] for name in names],
                                       [other[name] for name in names])
            for name, p_perm in zip(names, p_perms.tolist()):
                p_rank = ranksum_test(per_run[name], other[name])
                per_metric[name] = {
                    "permutation_p": p_perm,
                    "ranksum_p": p_rank,
                    "significant": bool(p_perm < threshold and p_rank < threshold),
                }
        doc["comparison"] = {
            "alpha": alpha,
            "comparisons": comparisons,
            "bonferroni_threshold": threshold,
            "metrics": per_metric,
        }
    return doc
