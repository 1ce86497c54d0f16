"""Output checks and digests for the benchmark's operations.

The checks read the files the program wrote, with their own parsing, so a
loader that accepts bad records cannot hide them. Each returns a list of
problems; an operation with any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from neurotraj.analysis import hypervolume
from neurotraj.genome import default_allele_table


def dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def _dominated_pair(points) -> tuple[int, int] | None:
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i != j and dominates(a, b):
                return i, j
    return None


def _check_individual(where: str, genome, objectives, counts) -> list[str]:
    problems = []
    if len(genome) != len(counts) or any(not 0 <= g < c for g, c in zip(genome, counts)):
        problems.append(f"{where}: genes {list(genome)} outside the allele table")
    if any(not math.isfinite(v) or v < 0 for v in objectives):
        problems.append(f"{where}: objectives {list(objectives)} not finite and >= 0")
    return problems


def read_front(csv_path: Path, tokens: list[str], loci: int) -> tuple[list[tuple[int, ...]], list[tuple[float, ...]]]:
    genomes, values = [], []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            genomes.append(tuple(int(row[f"gene_{i + 1}"]) for i in range(loci)))
            values.append(tuple(float(row[t]) for t in tokens))
    return genomes, values


def check_experiment(exp_dir: Path, initial_fronts: dict[int, list]) -> list[str]:
    """Final fronts and archives non-dominated, genes in range, objectives
    finite and >= 0, and each run's final front at least as good as its
    initial front by hypervolume against a reference both share."""
    try:
        cfg = json.loads((exp_dir / "config.json").read_text(encoding="utf-8"))
        problems = []
        for k in range(cfg["runs"]):
            problems += _check_run(exp_dir, cfg, k, [tuple(p) for p in initial_fronts.get(k, [])])
        return problems
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"{exp_dir}: unreadable experiment records ({exc!r})"]


def _check_run(exp_dir: Path, cfg: dict, k: int, initial: list[tuple]) -> list[str]:
    counts = default_allele_table().counts
    tokens = cfg["objectives"]
    genomes, final = read_front(exp_dir / f"final_front_{k}.csv", tokens, len(counts))
    with open(exp_dir / f"run_{k}.jsonl", encoding="utf-8") as fh:
        snapshots = [json.loads(line) for line in fh if line.strip()]
    if not final:
        return [f"run {k}: empty final front"]
    problems = []
    for i, (genome, values) in enumerate(zip(genomes, final)):
        problems += _check_individual(f"run {k} final front row {i}", genome, values, counts)
    pair = _dominated_pair(final)
    if pair:
        problems.append(f"run {k}: final front row {pair[0]} dominates row {pair[1]}")
    if len(snapshots) != cfg["generations"]:
        problems.append(f"run {k}: {len(snapshots)} snapshots for {cfg['generations']} generations")
    for snap in snapshots:
        members = snap.get("population", []) + snap.get("subproblems", []) + snap.get("archive", [])
        for ind in members:
            problems += _check_individual(f"run {k} generation {snap['generation']}",
                                          ind["genome"], ind["objectives"], counts)
        if "archive" in snap:
            pair = _dominated_pair([tuple(ind["objectives"]) for ind in snap["archive"]])
            if pair:
                problems.append(f"run {k} generation {snap['generation']}: archive member "
                                f"{pair[0]} dominates member {pair[1]}")
    if not initial:
        return problems + [f"run {k}: initial front not reported"]
    points = initial + final
    ref = [max(1e-9, 1.1 * max(p[j] for p in points)) for j in range(len(tokens))]
    hv_initial, hv_final = hypervolume(initial, ref), hypervolume(final, ref)
    if hv_final < hv_initial:
        problems.append(f"run {k}: final-front hypervolume {hv_final!r} below the initial {hv_initial!r}")
    return problems


def _experiment_shape(exp_dir: Path) -> tuple[int, int, int, int]:
    """(generations, runs, objectives, pooled final-front size)."""
    cfg = json.loads((exp_dir / "config.json").read_text(encoding="utf-8"))
    pooled = 0
    for k in range(cfg["runs"]):
        with open(exp_dir / f"final_front_{k}.csv", encoding="utf-8") as fh:
            pooled += sum(1 for line in fh if line.strip()) - 1
    return cfg["generations"], cfg["runs"], len(cfg["objectives"]), pooled


def _p_value_ok(p) -> bool:
    return isinstance(p, float) and 0.0 <= p <= 1.0


def check_analysis(out_dir: Path, primary: Path, against: Path) -> list[str]:
    """Analysis files complete and in range: hypervolume rows for every
    generation and run, one correlation per objective pair over the pooled
    final fronts, densities, and p-values for every compared metric."""
    problems = []
    try:
        gens, runs, m, pooled = _experiment_shape(primary)
        for name, exp_dir in (("hypervolume.csv", primary), ("hypervolume_against.csv", against)):
            g, r, _, _ = _experiment_shape(exp_dir)
            with open(out_dir / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != g * r:
                problems.append(f"{name}: {len(rows)} rows for {g} generations x {r} runs")
            if any(not math.isfinite(float(row["value"])) or float(row["value"]) < 0 for row in rows):
                problems.append(f"{name}: hypervolume not finite and >= 0")
        correlations = json.loads((out_dir / "correlations.json").read_text(encoding="utf-8"))
        if len(correlations) != m * (m - 1) // 2:
            problems.append(f"correlations.json: {len(correlations)} pairs for {m} objectives")
        for entry in correlations:
            rho = entry.get("coefficient")
            if entry["n"] != pooled or not isinstance(rho, float) or not -1.0 <= rho <= 1.0 \
                    or not _p_value_ok(entry.get("p_value")):
                problems.append(f"correlations.json: bad entry {entry}")
        with open(out_dir / "kde_front.csv", encoding="utf-8") as fh:
            if sum(1 for _ in fh) < 2:
                problems.append("kde_front.csv: no densities")
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        for name, entry in summary["comparison"]["metrics"].items():
            if entry is None or not (_p_value_ok(entry["permutation_p"]) and _p_value_ok(entry["ranksum_p"])):
                problems.append(f"summary.json: comparison of {name} has no valid p-values")
    except (OSError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"{out_dir}: unreadable analysis output ({exc!r})")
    return problems


def digest(root: Path) -> str:
    """sha256 over every file under `root`: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
