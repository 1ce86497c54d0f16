"""Command-line entry point.

Subcommands:
    generate  write a synthetic dataset (CSV + manifest)
    run       execute a preset or config-file experiment
    analyze   summarize one experiment or compare two
    presets   list the 13 built-in experiment definitions

Exit codes: 0 success, 2 usage, 3 I/O failure, 4 engine failure,
5 malformed records. NEUROTRAJ_SEED overrides the run base seed.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import bonferroni, hypervolume, kde_density, spearman
from .errors import (
    ConfigurationError,
    ContractError,
    MalformedRecordsError,
    NeurotrajError,
    UndefinedCorrelationError,
)
from .experiment import (
    DatasetConfig,
    ExperimentConfig,
    PRESETS,
    load_records,
    preset_config,
    read_config,
    run_experiment,
    scale_config,
    summarize,
)
from .trajectory import generate_scenario, save_dataset, window_and_split, write_csv, write_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ENGINE = 4
EXIT_MALFORMED = 5

ENV_SEED = "NEUROTRAJ_SEED"


def _parse_ratio(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise ConfigurationError(f"ratio needs three comma-separated numbers, got {text!r}")
    return parts


def cmd_generate(args: argparse.Namespace) -> int:
    ratio = _parse_ratio(args.ratios)
    path = generate_scenario(args.duration, args.lane_change_rate, args.seed)
    dataset = window_and_split(path, tau=args.tau, ratio=ratio, seed=args.seed)
    for p in save_dataset(dataset, args.out).values():
        print(p)
    return EXIT_OK


def _resolve_run_config(args: argparse.Namespace) -> ExperimentConfig:
    seed = args.seed
    if (env_seed := os.environ.get(ENV_SEED)) is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigurationError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from None
    cfg = preset_config(args.preset) if args.preset else read_config(args.config)
    return scale_config(cfg if seed is None else replace(cfg, base_seed=seed), args.scale)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_run_config(args)
    out_dir = Path(args.out)
    records = run_experiment(cfg, out_dir=out_dir, jobs=args.jobs)
    failed = [rec for rec in records if rec.error]
    for p in sorted(out_dir.glob("*")):
        print(p)
    for rec in failed:
        print(f"error: run {rec.run_index} (seed {rec.run_seed}) failed: {rec.error}",
              file=sys.stderr)
    return EXIT_ENGINE if failed else EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    # The cyclic collector is paused for the whole command. Nothing analyze
    # builds holds a reference cycle, so reference counting frees all of it
    # when the command returns; a collection here finds no garbage, it only
    # walks the objects allocated so far. load_records decodes one snapshot
    # at a time and keeps only its front, so these walks are short: on the
    # five comparisons of the analyze-compare benchmark (2-core x86-64,
    # Python 3.11) leaving the collector on costs about 67 collections, one
    # full every other operation, and raised the median operation time from
    # 0.560 to 0.596 s (5 seeds each).
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _analyze(args)
    finally:
        if was_enabled:
            gc.enable()


def _analyze(args: argparse.Namespace) -> int:
    if len(args.dirs) > 2:
        raise ConfigurationError("analyze takes one or two experiment directories")
    bonferroni(args.alpha, args.comparisons)  # checks both before anything is read
    primary_dir = Path(args.dirs[0])
    against_dir = Path(args.dirs[1]) if len(args.dirs) > 1 else None
    cfg, records = load_records(primary_dir)
    against_records = None
    if against_dir is not None:
        against_cfg, against_records = load_records(against_dir)
        if [o.token for o in against_cfg.objective_ids] != [o.token for o in cfg.objective_ids]:
            raise MalformedRecordsError(
                "experiments optimize different objectives and cannot be compared")

    out_dir = Path(args.out) if args.out else primary_dir
    artifacts: list[Path] = []
    out_dir.mkdir(parents=True, exist_ok=True)

    # Shared hypervolume reference: componentwise max over every front
    # involved in the comparison, plus a 10% margin.
    groups = [("hypervolume.csv", records)]
    if against_records is not None:
        groups.append(("hypervolume_against.csv", against_records))
    fronts = [front for _, group in groups for rec in group for front in rec.fronts]
    if not sum(map(len, fronts)):
        raise MalformedRecordsError("no front points found in the experiment records")
    all_points = np.concatenate(fronts)
    m = len(cfg.objective_ids)
    ref = tuple(max(1e-9, 1.1 * float(v)) for v in all_points.max(axis=0))

    for name, group in groups:
        artifacts.append(write_csv(out_dir / name, ["generation", "run", "value"], (
            [gen, rec.run_index, repr(hypervolume(front, ref))]
            for rec in group for gen, front in enumerate(rec.fronts, start=1))))

    # Per-run KDE over final-front objective values, evaluated at the
    # front points themselves (density estimated independently per run).
    final_fronts = [[e.objectives for e in rec.final_front] for rec in records]
    tokens = [oid.token for oid in cfg.objective_ids]
    kde_rows = []
    for rec, front_values in zip(records, final_fronts):
        if len(front_values) < 2:
            continue
        try:
            dens = kde_density(front_values, front_values)
        except NeurotrajError:
            continue
        kde_rows += ([rec.run_index] + [repr(v) for v in point] + [repr(float(d))]
                     for point, d in zip(front_values, dens))
    artifacts.append(write_csv(out_dir / "kde_front.csv", ["run"] + tokens + ["density"], kde_rows))

    # Pairwise rank correlations over pooled final-front values.
    pooled = [p for front in final_fronts for p in front]
    correlations = []
    for i in range(m):
        for j in range(i + 1, m):
            entry = {"pair": [tokens[i], tokens[j]], "n": len(pooled)}
            try:
                res = spearman([p[i] for p in pooled], [p[j] for p in pooled])
                entry.update(res.to_dict())
            except (UndefinedCorrelationError, ContractError) as exc:
                entry.update({"coefficient": None, "p_value": None, "note": str(exc)})
            correlations.append(entry)
    artifacts.append(write_json(out_dir / "correlations.json", correlations))

    doc = summarize(records, against=against_records, alpha=args.alpha,
                    comparisons=args.comparisons)
    doc["hypervolume_reference"] = list(ref)
    if against_dir is not None:
        doc["against"] = str(against_dir)
    artifacts.append(write_json(out_dir / "summary.json", doc))

    for p in artifacts:
        print(p)
    return EXIT_OK


def cmd_presets(args: argparse.Namespace) -> int:
    rows = []
    for name, entry in PRESETS.items():
        rows.append((name, f"batch {entry['batch']}", entry["algorithm"],
                     "+".join(entry["objectives"]),
                     f"pop {entry['population']}", f"{entry['generations']} gens",
                     f"{entry['runs']} runs"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurotraj",
        description="Multi-objective evolutionary search over trajectory-prediction "
                    "hyperparameters on synthetic highway data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    # The defaults are the presets' dataset, so `generate` alone writes it.
    gen.add_argument("--duration", type=float, default=DatasetConfig.duration_s,
                     help="scenario length in seconds")
    gen.add_argument("--lane-change-rate", type=float, default=DatasetConfig.lane_change_rate,
                     help="lane-change events per second")
    gen.add_argument("--seed", type=int, default=DatasetConfig.seed)
    gen.add_argument("--tau", type=int, default=DatasetConfig.tau,
                     help="window length in samples")
    gen.add_argument("--ratios", default=",".join(map(str, DatasetConfig.ratio)),
                     help="train,val,test shares")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="execute an experiment")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="one of exp1..exp13")
    src.add_argument("--config", help="path to a config.json")
    run.add_argument("--scale", type=float, default=1.0,
                     help="shrink population/generations/runs proportionally; "
                          "finite and greater than 0")
    run.add_argument("--seed", type=int, default=None,
                     help="base seed for the independent runs (default 1 for presets)")
    run.add_argument("--jobs", type=int, default=1, help="parallel runs, at least 1")
    run.add_argument("--out", required=True, help="experiment directory")
    run.set_defaults(func=cmd_run)

    ana = sub.add_parser("analyze", help="summarize one experiment or compare two")
    ana.add_argument("dirs", nargs="+", help="one or two experiment directories")
    ana.add_argument("--alpha", type=float, default=0.05,
                     help="family-wise significance level, in (0, 1)")
    ana.add_argument("--comparisons", type=int, default=2,
                     help="comparison count for the Bonferroni correction, at least 1")
    ana.add_argument("--out", help="write analysis files here instead of the first directory")
    ana.set_defaults(func=cmd_analyze)

    pre = sub.add_parser("presets", help="list the built-in experiment definitions")
    pre.set_defaults(func=cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (NeurotrajError, OSError) as exc:  # an OSError's message names the path
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MalformedRecordsError):
            return EXIT_MALFORMED
        return EXIT_USAGE if isinstance(exc, NeurotrajError) else EXIT_IO


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
