import dataclasses
import json
import math
from pathlib import Path

import pytest

from neurotraj.analysis import ValidityReport, classify_validity
from neurotraj.errors import ConfigurationError, MalformedRecordsError
from neurotraj.evaluator import SurrogateConfig, evaluate, predict_targets
from neurotraj.experiment import (
    DatasetConfig,
    ExperimentConfig,
    FrontEntry,
    PRESETS,
    RunRecord,
    build_dataset,
    execute_run,
    load_records,
    preset_config,
    read_config,
    run_experiment,
    scaled_count,
    summarize,
)
from neurotraj.genome import Genome
from neurotraj.objectives import ObjectiveId, rmse

SMALL_DATASET = DatasetConfig(duration_s=60.0, lane_change_rate=0.05, seed=3)


def small_config(algorithm="nsga2", runs=1, generations=1, population=4, **kw):
    return ExperimentConfig(
        algorithm=algorithm,
        objective_ids=(ObjectiveId.RMSE, ObjectiveId.L2_LATERAL_VELOCITY,
                       ObjectiveId.L3_LONGITUDINAL_VELOCITY),
        population=population,
        generations=generations,
        runs=runs,
        base_seed=1,
        dataset=SMALL_DATASET,
        **kw,
    )


class TestPresets:
    def test_thirteen_presets(self):
        assert list(PRESETS) == [f"exp{i}" for i in range(1, 14)]

    def test_batch_structure(self):
        assert PRESETS["exp1"]["population"] == 25 and PRESETS["exp1"]["generations"] == 20
        for name in ("exp6", "exp7", "exp8", "exp9"):
            assert PRESETS[name]["population"] == 45
            assert PRESETS[name]["generations"] == 15
            assert PRESETS[name]["runs"] == 12
        assert PRESETS["exp7"]["algorithm"] == "moead"
        assert PRESETS["exp8"]["objectives"] == ("rmse", "l1", "l3")
        assert PRESETS["exp10"]["objectives"] == ("rmse", "l2")

    def test_exp6_exp7_differ_only_in_algorithm(self):
        a = preset_config("exp6").to_dict()
        b = preset_config("exp7").to_dict()
        assert a.pop("algorithm") == "nsga2"
        assert b.pop("algorithm") == "moead"
        assert a == b

    def test_moead_population_snaps_to_lattice(self):
        cfg = preset_config("exp9", scale=1.0)
        assert cfg.population == 45
        scaled = preset_config("exp9", scale=1 / 3)
        assert scaled.population == 15 and scaled.generations == 5

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            preset_config("exp14")

    def test_scaled_count_arithmetic(self):
        assert scaled_count(45, 0.2) == 9
        assert scaled_count(15, 0.2) == 3
        assert scaled_count(12, 0.2) == 2
        assert scaled_count(15, 0.3) == 5
        assert scaled_count(45, 1 / 3) == 15
        assert scaled_count(1, 0.01) == 1

    def test_config_round_trip(self):
        cfg = preset_config("exp8", scale=0.2, base_seed=5)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


class TestConfigDocument:
    def test_keys_in_config_json_order(self):
        doc = preset_config("exp7").to_dict()
        assert list(doc) == ["algorithm", "objectives", "population", "generations", "runs",
                             "base_seed", "dataset", "surrogate"]
        assert doc["objectives"] == ["rmse", "l2", "l3"]
        assert list(doc["dataset"]) == ["duration_s", "lane_change_rate", "seed", "tau", "ratio"]
        assert doc["surrogate"] == {"quality_seed": 0}

    def test_defaulted_fields_may_be_left_out(self):
        cfg = ExperimentConfig.from_dict({"algorithm": "nsga2", "objectives": ["rmse", "l1"],
                                          "population": 4, "generations": 1, "runs": 1})
        assert cfg.dataset == DatasetConfig() and cfg.surrogate == SurrogateConfig()

    def test_int_accepted_where_float_declared(self):
        assert DatasetConfig(duration_s=60, ratio=(1, 0, 0)).duration_s == 60

    @pytest.mark.parametrize("build", [
        lambda: DatasetConfig(tau=8.0),
        lambda: DatasetConfig(seed=True),  # a bool is not an int
        lambda: DatasetConfig(ratio=(0.5, 0.5)),
        lambda: DatasetConfig(ratio=[0.6, 0.2, 0.2]),
        lambda: DatasetConfig(ratio=(0.6, "0.2", 0.2)),
        lambda: SurrogateConfig(quality_seed="x"),
        lambda: small_config(runs=1.0),
        lambda: ExperimentConfig("nsga2", ("rmse", "l1"), 4, 1, 1),
        lambda: ExperimentConfig.from_dict({"algorithm": "nsga2", "objectives": ["rmse", "l1"],
                                            "population": 4, "generations": 1, "runs": 1,
                                            "dataset": {"duration_s": 60.0, "rate": 0.1}}),
    ], ids=["float-tau", "bool-seed", "two-shares", "list-ratio", "string-share",
            "string-quality-seed", "float-runs", "string-objectives",
            "unknown-dataset-key"])
    def test_mistyped_field_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()

    @pytest.mark.parametrize("changes", [
        {"objective_ids": (ObjectiveId.RMSE,)},
        {"objective_ids": tuple(ObjectiveId)[:4]},
    ], ids=["one-objective", "four-objectives"])
    def test_out_of_range_field_rejected(self, changes):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(small_config(algorithm="moead"), **changes)

    def test_read_config_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps(small_config().to_dict()).encode().replace(b"nsga2", b"nsg\xe92"))
        with pytest.raises(ConfigurationError, match="UTF-8"):
            read_config(path)

    def test_read_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config().to_dict()))
        assert read_config(path) == small_config()


class TestExecuteRun:
    def test_minimal_smoke_record(self):
        cfg = small_config()
        data = build_dataset(cfg)
        rec = execute_run(cfg, data, 0)
        assert rec.error is None
        assert len(rec.snapshots) == 1
        assert rec.final_front
        assert rec.initial_front_objectives
        assert rec.wall_time_s > 0

    def test_snapshot_count_equals_generations(self):
        for algorithm in ("nsga2", "moead"):
            cfg = small_config(algorithm=algorithm, generations=3, population=6)
            data = build_dataset(cfg)
            rec = execute_run(cfg, data, 0)
            assert len(rec.snapshots) == 3

    def test_moead_snapshots_carry_ideal_and_archive(self):
        cfg = small_config(algorithm="moead", generations=2, population=6)
        data = build_dataset(cfg)
        rec = execute_run(cfg, data, 0)
        for snap in rec.snapshots:
            assert len(snap["ideal"]) == 3
            assert snap["archive"]
            assert len(snap["subproblems"]) == cfg.population

    def test_logged_individuals_reevaluate_identically(self):
        cfg = small_config(generations=2, population=5)
        data = build_dataset(cfg)
        rec = execute_run(cfg, data, 0)
        for entry in rec.final_front:
            res = evaluate(Genome(entry.genome), data, cfg.objective_ids, cfg.surrogate)
            assert res.objectives == entry.objectives
            assert res.rmse_validation == entry.rmse_validation
            predicted_test = predict_targets(Genome(entry.genome), res.skills, cfg.surrogate,
                                             data.test_targets, "test").rows()
            assert rmse(predicted_test, data.test[:, data.tau:]) == entry.rmse_test
            assert classify_validity(predicted_test) == entry.validity

    def test_runs_are_deterministic(self):
        cfg = small_config(generations=2, population=5)
        data = build_dataset(cfg)
        a = execute_run(cfg, data, 0)
        b = execute_run(cfg, data, 0)
        assert [e.objectives for e in a.final_front] == [e.objectives for e in b.final_front]
        assert a.snapshots == b.snapshots


class TestRunExperiment:
    def test_persisted_layout(self, tmp_path):
        cfg = small_config(runs=2, generations=2, population=5)
        run_experiment(cfg, out_dir=tmp_path)
        assert (tmp_path / "config.json").exists()
        for k in range(2):
            assert (tmp_path / f"run_{k}.jsonl").exists()
            assert (tmp_path / f"final_front_{k}.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_reruns_byte_identical(self, tmp_path):
        cfg = small_config(runs=2, generations=2, population=5)
        first = tmp_path / "a"
        second = tmp_path / "b"
        run_experiment(cfg, out_dir=first)
        run_experiment(cfg, out_dir=second)
        for name in sorted(p.name for p in first.glob("*")):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = small_config(runs=2, generations=1, population=4)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run_experiment(cfg, out_dir=serial, jobs=1)
        run_experiment(cfg, out_dir=parallel, jobs=2)
        for name in sorted(p.name for p in serial.glob("*")):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        with pytest.raises(ConfigurationError):
            run_experiment(small_config(), out_dir=tmp_path / "out", jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_pool_no_larger_than_run_count(self, monkeypatch):
        import neurotraj.experiment as experiment_mod

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment_mod, "ProcessPoolExecutor", InlinePool)
        run_experiment(small_config(runs=2), jobs=64)
        assert sizes == [2]

    def test_load_records_round_trip(self, tmp_path):
        cfg = small_config(runs=2, generations=2, population=5)
        records = run_experiment(cfg, out_dir=tmp_path)
        loaded_cfg, loaded = load_records(tmp_path)
        assert loaded_cfg == cfg
        assert summarize(loaded) == summarize(records)

    def test_load_records_detects_snapshot_loss(self, tmp_path):
        cfg = small_config(runs=1, generations=2, population=4)
        run_experiment(cfg, out_dir=tmp_path)
        jsonl = tmp_path / "run_0.jsonl"
        lines = jsonl.read_text().splitlines()
        jsonl.write_text("\n".join(lines[:1]) + "\n")
        with pytest.raises(MalformedRecordsError):
            load_records(tmp_path)

    def test_failed_run_round_trips(self, tmp_path, fail_run_one):
        cfg = small_config(runs=2, generations=2, population=4)
        records = run_experiment(cfg, out_dir=tmp_path)
        assert [rec.error for rec in records] == [None, "ContractError: boom"]
        assert (tmp_path / "run_1.jsonl").read_text() == '{"error":"ContractError: boom"}\n'
        _, loaded = load_records(tmp_path)
        assert loaded[1].error == "ContractError: boom"
        assert loaded[1].final_front == [] and loaded[1].fronts == []
        assert summarize(loaded) == summarize(records)

    @pytest.mark.parametrize("corrupt", [
        lambda d: (d / "run_1.jsonl").write_text('{"error": 5}\n'),
        lambda d: (d / "run_1.jsonl").write_text('{"error": ""}\n'),
        lambda d: (d / "run_1.jsonl").write_text('{"error": "boom", "generation": 1}\n'),
        lambda d: (d / "run_1.jsonl").write_text('{"error": "boom"}\n{"error": "boom"}\n'),
        lambda d: (d / "run_1.jsonl").write_text(
            (d / "run_1.jsonl").read_text() + (d / "run_0.jsonl").read_text()),
        lambda d: (d / "final_front_1.csv").write_text(
            (d / "final_front_1.csv").read_text()
            + (d / "final_front_0.csv").read_text().splitlines(keepends=True)[1]),
    ], ids=["error-not-text", "error-empty", "extra-key", "two-errors", "error-then-snapshots",
            "error-with-front-rows"])
    def test_load_records_rejects_bad_failed_run(self, tmp_path, fail_run_one, corrupt):
        run_experiment(small_config(runs=2, generations=2, population=4), out_dir=tmp_path)
        corrupt(tmp_path)
        with pytest.raises(MalformedRecordsError):
            load_records(tmp_path)


def _scaling_config(preset: str) -> ExperimentConfig:
    cfg = preset_config(preset, scale=0.34)
    return dataclasses.replace(cfg, runs=1,
                               dataset=dataclasses.replace(cfg.dataset, duration_s=120.0))


def _divided_back(snapshots: list[dict], k: int, factor: float) -> list[dict]:
    """The snapshots with objective k of every member divided by `factor`,
    and the MOEA/D ideal point's too."""
    snapshots = json.loads(json.dumps(snapshots))
    for snap in snapshots:
        if "ideal" in snap:
            snap["ideal"][k] /= factor
        for key in ("population", "subproblems", "archive"):
            for member in snap.get(key, ()):
                member["objectives"][k] /= factor
    return snapshots


class TestObjectiveScaling:
    """The paper's first finding, as a mechanism: a power-of-two factor on
    one objective scales it exactly, so NSGA-II's sort and range-normalized
    crowding distance see the same order and its run does not change, while
    MOEA/D's raw Tchebycheff weighs the scaled objective differently."""

    @pytest.mark.parametrize("preset, invariant", [
        ("exp6", True), ("exp10", True), ("exp7", False), ("exp11", False)])
    def test_only_nsga2_is_scale_invariant(self, preset, invariant, monkeypatch):
        import neurotraj.experiment as experiment_mod

        cfg = _scaling_config(preset)
        data = build_dataset(cfg)
        plain = execute_run(cfg, data, 0)
        assert plain.error is None
        for k in range(len(cfg.objective_ids)):
            for factor in (2.0 ** 6, 2.0 ** -6):
                def scaled(*args, k=k, factor=factor):
                    result = evaluate(*args)
                    objectives = list(result.objectives)
                    objectives[k] *= factor
                    return dataclasses.replace(result, objectives=tuple(objectives))

                with monkeypatch.context() as patch:
                    patch.setattr(experiment_mod, "evaluate", scaled)
                    rec = execute_run(cfg, data, 0)
                same_snapshots = (json.dumps(_divided_back(rec.snapshots, k, factor))
                                  == json.dumps(plain.snapshots))
                same_front = ([e.genome for e in rec.final_front]
                              == [e.genome for e in plain.final_front])
                assert (same_snapshots and same_front) == invariant, (k, factor)


def synth_records(per_run_valid, per_run_total, rmse_base=1.0):
    records = []
    for k, (n_valid, n_total) in enumerate(zip(per_run_valid, per_run_total)):
        entries = []
        for i in range(n_total):
            valid = i < n_valid
            report = ValidityReport(valid=valid, spread_ok=valid, symmetry_ok=True,
                                    final_position_ok=True, measured=(3.0, 0.0, 50.0))
            entries.append(FrontEntry(
                genome=(0,) * 13,
                objectives=(1.0, 1.0),
                rmse_validation=rmse_base + 0.01 * i + 0.1 * k,
                rmse_test=rmse_base + 0.02 * i + 0.1 * k,
                validity=report,
                skills=(0.5, 0.5, 0.5),
            ))
        records.append(RunRecord(run_index=k, run_seed=k, snapshots=[],
                                 final_front=entries, initial_front_objectives=[]))
    return records


class TestSummarize:
    def test_fraction_and_percentage_display(self):
        records = synth_records([3, 3, 3, 4, 3, 2, 2, 2, 2, 2], [30] * 10)
        doc = summarize(records)["valid_models"]
        assert doc["display"] == "26/300, 9%"
        assert doc["valid"] == 26 and doc["total"] == 300 and doc["percentage"] == 9

    def test_percentage_agrees_with_display(self):
        # 100 * (23 / 40) is 57.49999...; 100 * 23 / 40 is 57.5, which rounds to 58.
        records = synth_records([23], [40])
        doc = summarize(records)["valid_models"]
        assert doc["percentage"] == 58 and doc["display"] == "23/40, 58%"

    def test_all_valid_metrics_coincide(self):
        records = synth_records([5, 5], [5, 5])
        doc = summarize(records)["metrics"]
        assert doc["rmse_val_all"] == doc["rmse_val_valid_only"]
        assert doc["rmse_test_all"] == doc["rmse_test_valid_only"]

    def test_zero_valid_metrics_absent(self):
        records = synth_records([0, 0], [4, 4])
        doc = summarize(records)["metrics"]
        assert doc["rmse_val_valid_only"] is None
        assert doc["rmse_test_valid_only"] is None
        assert doc["rmse_val_all"] is not None

    def test_self_comparison_p_values_near_one(self):
        records = synth_records([2, 3, 2], [6, 6, 6])
        report = summarize(records, against=synth_records([2, 3, 2], [6, 6, 6]))
        comp = report["comparison"]["metrics"]
        for name in ("rmse_val_all", "rmse_test_all"):
            assert comp[name]["permutation_p"] >= 0.99
            assert comp[name]["ranksum_p"] >= 0.99
            assert not comp[name]["significant"]

    def test_bonferroni_threshold_recorded(self):
        records = synth_records([1, 1], [4, 4])
        report = summarize(records, against=synth_records([1, 1], [4, 4]))
        assert report["comparison"]["bonferroni_threshold"] == 0.025

    def test_mean_std_sample_standard_deviation(self):
        records = synth_records([0, 0], [1, 1], rmse_base=1.0)
        doc = summarize(records)["metrics"]["rmse_val_all"]
        vals = doc["per_run"]
        mean = sum(vals) / 2
        expected_std = math.sqrt(sum((v - mean) ** 2 for v in vals))
        assert abs(doc["std"] - expected_std) <= 1e-12
