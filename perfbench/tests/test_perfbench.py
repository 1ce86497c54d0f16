"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import run as bench  # noqa: E402
import synth  # noqa: E402
from neurotraj.experiment import ExperimentConfig, preset_config, run_experiment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", tuple(bench.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    result, lines = bench.run_benchmark(workload, seed=3, seconds=0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _units(SPEC["per_layer"] if trace else SPEC["end_to_end"])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    json.dumps(result)
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)
    elif workload == "analyze-compare":
        assert result["metrics"]["evaluator.evaluate.calls"]["value"] == 0


def test_times_are_scaled_to_the_nominal_calibration_speed():
    slow = 2 * bench.CALIBRATION_NOMINAL_S
    assert bench.at_nominal_speed(3.0, [slow, slow]) == pytest.approx(1.5)
    # A mean, so a stretch half in each state counts both.
    nominal = bench.CALIBRATION_NOMINAL_S
    assert bench.at_nominal_speed(3.0, [nominal, nominal, slow, slow]) == pytest.approx(2.0)


def test_same_seed_gives_same_digest():
    def digest(seed):
        _, lines = bench.run_benchmark("search", seed=seed, seconds=0, trace=False, tiny=True)
        return next(line for line in lines if line.startswith("digest "))

    first = digest(5)
    assert digest(5) == first
    assert digest(6) != first


@pytest.fixture(scope="module")
def tiny_experiment(tmp_path_factory):
    base = preset_config("exp6", base_seed=4)
    doc = {**base.to_dict(), "population": 8, "generations": 2, "runs": 1}
    doc["dataset"] = {**doc["dataset"], "duration_s": 40.0}
    out = tmp_path_factory.mktemp("exp")
    records = run_experiment(ExperimentConfig.from_dict(doc), out_dir=out)
    return out, {rec.run_index: rec.initial_front_objectives for rec in records}


def _edit_front(src: Path, dst: Path, edit) -> None:
    shutil.copytree(src, dst)
    path = dst / "final_front_0.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_clean_experiment_passes(tiny_experiment):
    exp_dir, fronts = tiny_experiment
    assert checks.check_experiment(exp_dir, fronts) == []


def test_injected_dominated_point_fails(tiny_experiment, tmp_path):
    exp_dir, fronts = tiny_experiment

    def add_dominated(rows):
        worse = dict(rows[0])
        for token in ("rmse", "l2", "l3"):
            worse[token] = repr(float(worse[token]) + 1.0)
        rows.append(worse)

    _edit_front(exp_dir, tmp_path / "exp", add_dominated)
    problems = checks.check_experiment(tmp_path / "exp", fronts)
    assert any("dominates" in p for p in problems), problems


def test_injected_out_of_range_gene_fails(tiny_experiment, tmp_path):
    exp_dir, fronts = tiny_experiment

    def bad_gene(rows):
        rows[0]["gene_1"] = "99"

    _edit_front(exp_dir, tmp_path / "exp", bad_gene)
    problems = checks.check_experiment(tmp_path / "exp", fronts)
    assert any("outside the allele table" in p for p in problems), problems


def test_missing_initial_front_fails(tiny_experiment):
    exp_dir, _ = tiny_experiment
    assert any("initial front" in p for p in checks.check_experiment(exp_dir, {}))


def test_comparisons_run_both_spearman_branches():
    """Pooled final fronts of the primaries straddle the n = 500 switch."""
    pooled = []
    for (preset, scale), _ in bench.PAPER_COMPARISONS:
        cfg = preset_config(preset, scale=scale)
        sizes = synth.front_sizes(cfg, preset, scale)
        assert len(sizes) == cfg.generations
        # Per-run jitter moves each final front by at most one member.
        low, high = cfg.runs * (sizes[-1] - 1), cfg.runs * (sizes[-1] + 1)
        assert high < 500 or low >= 500
        pooled.append(low >= 500)
    assert any(pooled) and not all(pooled)


def test_synthesized_records_follow_measured_sizes(tmp_path):
    cfg = synth.synthesize_experiment(tmp_path / "exp11", "exp11", 1.0, Random(1))
    assert (cfg.runs, cfg.generations) == (12, 15)
    with open(tmp_path / "exp11" / "run_0.jsonl", encoding="utf-8") as fh:
        archives = [len(json.loads(line)["archive"]) for line in fh]
    first, last = synth.ARCHIVE_GROWTH["exp11"]
    assert abs(archives[0] - first) <= 1 and abs(archives[-1] - last) <= 1


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
