import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurotraj import cli
from neurotraj.cli import main
from neurotraj.errors import ContractError
from neurotraj.experiment import build_dataset, preset_config
from neurotraj.genome import default_allele_table
from neurotraj.trajectory import load_dataset

pytestmark = pytest.mark.usefixtures("clean_env")


@pytest.fixture()
def clean_env(monkeypatch):
    monkeypatch.delenv("NEUROTRAJ_SEED", raising=False)


@pytest.fixture(scope="module")
def exp8_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "exp8"
    code = main(["run", "--preset", "exp8", "--scale", "0.2", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def exp9_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "exp9"
    code = main(["run", "--preset", "exp9", "--scale", "0.2", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    return out


def _edit_snapshot(exp_dir: Path, edit) -> None:
    """Apply `edit` to the first snapshot of run 0."""
    path = exp_dir / "run_0.jsonl"
    lines = path.read_text().splitlines()
    snap = json.loads(lines[0])
    edit(snap)
    lines[0] = json.dumps(snap)
    path.write_text("\n".join(lines) + "\n")


def _edit_front_rows(exp_dir: Path, edit) -> None:
    """Apply `edit` to the rows, header first, of run 0's final front."""
    path = exp_dir / "final_front_0.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _edit_front_row(exp_dir: Path, column: str, value: str) -> None:
    """Overwrite one cell of the first final-front row of run 0."""
    _edit_front_rows(exp_dir, lambda rows: rows[1].__setitem__(rows[0].index(column), value))


def _swap_last_columns(rows: list[list[str]]) -> None:
    """Swap the last two fields of every row, the header's included."""
    for row in rows:
        row[-2], row[-1] = row[-1], row[-2]


def _edit_config(exp_dir: Path, edit) -> None:
    """Apply `edit` to the experiment's config.json."""
    path = exp_dir / "config.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _latin1_byte(path: Path, text: bytes) -> None:
    """Replace the last letter of the first `text` with a Latin-1 "é", a
    byte that is not valid UTF-8."""
    raw = path.read_bytes()
    assert text in raw
    path.write_bytes(raw.replace(text, text[:-2] + b"\xe9" + text[-1:], 1))


# A valid config of one short run; `_config` edits a copy of it.
SMALL_RUN = {
    "algorithm": "nsga2", "objectives": ["rmse", "l2"], "population": 4, "generations": 1,
    "runs": 1, "base_seed": 1,
    "dataset": {"duration_s": 60.0, "lane_change_rate": 0.02, "seed": 0},
}

# The keys, at their last defaults, of the engine constants that config.json
# held before they were fixed in code.
LEGACY_ENGINE_KEYS = {"crossover_rate": 1.0, "mutation_rate": 0.5, "tournament_size": 3,
                      "neighborhood_size": 7}


# How `run` warns of an entry of its directory that it did not write.
NOT_WRITTEN = " was not written by this run and does not describe its records"


DELETE = object()


def _config(**changes) -> dict:
    """SMALL_RUN with `changes`: `dataset__seed=4` sets a nested key, and the
    value DELETE removes a key."""
    doc = json.loads(json.dumps(SMALL_RUN))
    for key, value in changes.items():
        section, _, name = key.rpartition("__")
        target = doc[section] if section else doc
        if value is DELETE:
            del target[name]
        else:
            target[name] = value
    return doc


def _write(path: Path, content) -> str:
    """Write `content` (bytes as they are, anything else as JSON) and return the path."""
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    return str(path)


class TestGenerate:
    def test_writes_manifest_with_defaults(self, tmp_path):
        out = tmp_path / "data"
        code = main(["generate", "--duration", "600", "--seed", "7", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        counts = manifest["counts"]
        total = sum(counts.values())
        assert abs(counts["train"] / total - 0.6) < 0.01

    def test_defaults_write_the_presets_dataset(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path / "d")]) == 0
        written = load_dataset(tmp_path / "d")
        built = build_dataset(preset_config("exp6"))
        for split in ("train", "validation", "test"):
            assert np.array_equal(getattr(written, split), getattr(built, split))

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["generate", "--duration", "60"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_identical_flags_identical_hashes(self, tmp_path):
        args = ["generate", "--duration", "60", "--seed", "3"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("dataset.csv", "manifest.json"):
            ha = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
            assert ha == hb

    def test_invalid_duration_is_usage_error(self, tmp_path):
        assert main(["generate", "--duration", "0", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_non_finite_duration_is_usage_error(self, tmp_path, duration):
        out = tmp_path / "x"
        assert main(["generate", "--duration", duration, "--out", str(out)]) == 2
        assert not out.exists()

    # 8.6 s leaves 0 validation windows and 5 s leaves 0 test windows, too
    # few for `run`, so `generate` refuses them with `run`'s message.
    @pytest.mark.parametrize("duration", [8.6, 5.0])
    def test_scenario_too_short_to_split_is_usage_error(self, tmp_path, capsys, duration):
        out = tmp_path / "x"
        assert main(["generate", "--duration", str(duration), "--out", str(out)]) == 2
        assert not out.exists()
        generate_err = capsys.readouterr().err
        config = _write(tmp_path / "config.json", _config(dataset__duration_s=duration))
        assert main(["run", "--config", config, "--out", str(tmp_path / "run")]) == 2
        assert generate_err == capsys.readouterr().err
        assert generate_err.startswith(f"error: a {duration} s scenario leaves ")

    def test_unwritable_out_exit_three(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["generate", "--duration", "30", "--out", str(blocker / "nested")])
        assert code == 3


class TestConfigFile:
    """`run --config` checks a config's keys, types and ranges before it
    writes anything, and exits 2 on a bad one."""

    @pytest.mark.parametrize("doc", [
        # keys and document shape
        _config(population_size=4),
        _config(objectives=DELETE),
        _config(dataset=None),
        [SMALL_RUN],
        [],
        "nsga2",
        # field types
        _config(runs=1.5),
        _config(base_seed="1"),
        _config(runs=True),
        _config(objectives="rmse"),
        # ranges
        _config(objectives=["rmse"]),
        _config(objectives=["rmse", "l1", "l2", "l3"]),
        _config(algorithm="moead", objectives=["rmse", "l1", "l2", "l3"]),
        # keys of options that config.json held before they were removed
        _config(algorithm="moead", archive_cap=None),
        _config(**LEGACY_ENGINE_KEYS),
        _config(surrogate={"quality_seed": 0}),
        _config(dataset__tau=8, dataset__ratio=[0.6, 0.2, 0.2]),
        _config(dataset__tau=8.0),
        _config(dataset__ratio="abc"),
        _config(dataset__ratio=[0.5, 0.5]),
        _config(dataset__ratio=[math.nan, 0.5, 0.5]),
        # splits: 8.6 s leaves 2 train, 0 validation and 1 test window; 5 s
        # leaves 2, 2 and 0
        _config(dataset__duration_s=8.6),
        _config(dataset__duration_s=5.0),
    ], ids=["unknown-key", "no-objectives", "dataset-null", "top-level-list", "empty-list",
            "top-level-string", "float-runs", "string-base-seed", "bool-runs",
            "string-objectives", "one-objective", "four-objectives", "four-objectives-moead",
            "legacy-archive-cap", "legacy-engine-keys", "legacy-surrogate",
            "legacy-dataset-protocol", "float-tau", "string-ratio", "two-shares", "nan-share",
            "no-validation-windows", "no-test-windows"])
    def test_bad_config_usage_error_before_writing(self, tmp_path, doc, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", _write(tmp_path / "config.json", doc), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_small_run_is_valid(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path / "config.json", SMALL_RUN),
                     "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text()) == SMALL_RUN

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(objectives=["rmse"]),
        lambda doc: doc.update(objectives=["rmse", "l1", "l3", "l2"]),
        lambda doc: doc.update(LEGACY_ENGINE_KEYS),
        lambda doc: doc.update(runs=1.5),
        lambda doc: doc.update(extra=1),
        lambda doc: doc.update(archive_cap=None),  # as written before archive_cap was removed
        lambda doc: doc.update(surrogate={"quality_seed": 0}),  # as written before it was removed
        lambda doc: doc["dataset"].update(tau=8, ratio=[0.6, 0.2, 0.2]),  # as written before
    ], ids=["one-objective", "four-objectives", "legacy-engine-keys", "float-runs",
            "unknown-key", "legacy-archive-cap", "legacy-surrogate", "legacy-dataset-protocol"])
    def test_hand_edited_config_analyze_exit_five(self, exp8_dir, tmp_path, edit):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(exp8_dir, bad)
        _edit_config(bad, edit)
        assert main(["analyze", str(bad)]) == 5


def _engine_error(*args, **kwargs):
    raise ContractError("injected evaluator failure")


class TestExitCodes:
    """`main` maps each kind of failure to its exit code. Of `patches`, a
    string is set as the named environment variable, anything else replaces
    the attribute at the dotted path."""

    @pytest.mark.parametrize("argv, patches, code", [
        (lambda d, tmp: ["run", "--config", str(d / "config.json"), "--out", str(tmp / "out")],
         {"NEUROTRAJ_SEED": "abc"}, 2),
        (lambda d, tmp: ["run", "--preset", "exp6", "--out", str(tmp / "out")],
         {"NEUROTRAJ_SEED": "1.5"}, 2),
        (lambda d, tmp: ["run", "--config", str(tmp / "missing.json"), "--out", str(tmp / "out")],
         {}, 3),
        (lambda d, tmp: ["run", "--config", str(tmp), "--out", str(tmp / "out")], {}, 3),
        (lambda d, tmp: ["run", "--config", _write(tmp / "c.json", b"{not json"),
                         "--out", str(tmp / "out")], {}, 2),
        (lambda d, tmp: ["run", "--config", _write(tmp / "c.json", b'{"algorithm\xe9": 1}'),
                         "--out", str(tmp / "out")], {}, 2),
        (lambda d, tmp: ["run", "--config", _write(tmp / "c.json", b"[" * 100_000 + b"]" * 100_000),
                         "--out", str(tmp / "out")], {}, 2),
        (lambda d, tmp: ["analyze", str(d), "--out", _write(tmp / "blocker", b"") + "/nested"],
         {}, 3),
        (lambda d, tmp: ["run", "--config", _write(tmp / "c.json", SMALL_RUN),
                         "--out", str(tmp / "out")],
         {"neurotraj.experiment.evaluate": _engine_error}, 4),
    ], ids=["env-seed-not-int", "env-seed-float", "missing-config", "config-is-directory",
            "config-not-json", "config-not-utf8", "config-nested-too-deep",
            "analyze-out-unwritable", "failed-run"])
    def test_exit_code(self, exp8_dir, tmp_path, monkeypatch, capsys, argv, patches, code):
        for name, value in patches.items():
            if isinstance(value, str):
                monkeypatch.setenv(name, value)
            else:
                monkeypatch.setattr(name, value)
        assert main(argv(exp8_dir, tmp_path)) == code
        assert "error: " in capsys.readouterr().err


class TestRun:
    def test_scaled_preset_resolution(self, exp8_dir):
        cfg = json.loads((exp8_dir / "config.json").read_text())
        assert cfg["algorithm"] == "nsga2"
        assert cfg["objectives"] == ["rmse", "l1", "l3"]
        assert cfg["population"] == 9
        assert cfg["generations"] == 3
        assert cfg["runs"] == 2
        assert cfg["base_seed"] == 1

    def test_outputs_complete(self, exp8_dir):
        names = {p.name for p in exp8_dir.glob("*")}
        assert {"config.json", "summary.json", "run_0.jsonl", "run_1.jsonl",
                "final_front_0.csv", "final_front_1.csv"} <= names

    def test_lists_only_the_files_it_wrote(self, tmp_path, capsys):
        """A run into the directory of an earlier one with more runs prints
        its own files alone, warns of the others and deletes none of them."""
        out = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path / "two.json", _config(runs=2)),
                     "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept")
        capsys.readouterr()
        assert main(["run", "--config", _write(tmp_path / "one.json", SMALL_RUN),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr()
        assert printed.out.splitlines() == [
            str(out / name)
            for name in ("config.json", "final_front_0.csv", "run_0.jsonl", "summary.json")]
        assert printed.err.splitlines() == [
            f"warning: {out / name}{NOT_WRITTEN}"
            for name in ("final_front_1.csv", "notes.txt", "run_1.jsonl")]
        assert {p.name for p in out.iterdir()} == {
            "config.json", "final_front_0.csv", "final_front_1.csv", "notes.txt",
            "run_0.jsonl", "run_1.jsonl", "summary.json"}
        assert json.loads((out / "config.json").read_text())["runs"] == 1

    def test_warns_of_analysis_files_left_by_an_earlier_analyze(self, tmp_path, capsys):
        """A run into an analyzed directory of a 2-run experiment names each
        analysis and run file it did not write on stderr, in sorted order,
        keeps them all and still exits 0."""
        out = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path / "two.json", _config(runs=2)),
                     "--out", str(out)]) == 0
        assert main(["analyze", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", _write(tmp_path / "one.json", SMALL_RUN),
                     "--out", str(out)]) == 0
        warnings = capsys.readouterr().err.splitlines()
        stale = ["correlations.json", "final_front_1.csv", "hypervolume.csv", "kde_front.csv",
                 "run_1.jsonl"]
        assert warnings == [
            f"warning: {out / name}{NOT_WRITTEN}"
            for name in stale]
        assert all((out / name).exists() for name in stale)

    @settings(deadline=None, max_examples=20)
    @given(names=st.sets(st.one_of(
        st.sampled_from(["config.json", "run_0.jsonl", "run_1.jsonl", "final_front_1.csv",
                         "summary.json", "hypervolume.csv", "notes"]),
        st.from_regex(r"[a-z0-9_]{1,10}(\.(csv|json|jsonl|txt))?", fullmatch=True)), max_size=6),
        subdirectory=st.booleans())
    def test_printed_and_warned_paths_partition_the_directory(self, tmp_path_factory, names,
                                                              subdirectory):
        """Whatever the directory already holds, each entry after a run is
        either printed as written or warned of, never both, and none is deleted."""
        config = _write(tmp_path_factory.mktemp("config") / "one.json", SMALL_RUN)
        out = tmp_path_factory.mktemp("out")
        for name in names:
            (out / name).write_text("earlier")
        if subdirectory:
            (out / "earlier.d").mkdir()
        before = set(out.iterdir())
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(["run", "--config", config, "--out", str(out)]) == 0
        printed = stdout.getvalue().splitlines()
        warned = [line.removeprefix("warning: ").removesuffix(NOT_WRITTEN)
                  for line in stderr.getvalue().splitlines()]
        assert warned == sorted(warned) and printed == sorted(printed)
        assert not set(printed) & set(warned)
        assert sorted(printed + warned) == sorted(map(str, out.iterdir()))
        assert before <= set(out.iterdir())

    def test_snapshot_rows_match_generations(self, exp8_dir):
        lines = (exp8_dir / "run_0.jsonl").read_text().splitlines()
        assert len(lines) == 3

    def test_unknown_preset_usage_error(self, tmp_path):
        assert main(["run", "--preset", "exp99", "--out", str(tmp_path / "x")]) == 2

    def test_preset_and_config_mutually_exclusive(self, tmp_path):
        assert main(["run", "--preset", "exp1", "--config", "c.json",
                     "--out", str(tmp_path / "x")]) == 2

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEUROTRAJ_SEED", "123")
        out = tmp_path / "seeded"
        code = main(["run", "--preset", "exp6", "--scale", "0.1", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["base_seed"] == 123

    def test_config_file_round_trip(self, tmp_path, exp8_dir):
        out = tmp_path / "from_config"
        code = main(["run", "--config", str(exp8_dir / "config.json"), "--out", str(out)])
        assert code == 0
        assert json.loads((out / "config.json").read_text()) == \
               json.loads((exp8_dir / "config.json").read_text())

    def test_scale_applies_to_config_files(self, tmp_path, exp8_dir):
        out = tmp_path / "rescaled"
        code = main(["run", "--config", str(exp8_dir / "config.json"),
                     "--scale", "0.5", "--out", str(out)])
        assert code == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["population"] == 5  # 9 scaled by half, rounded half-up
        assert cfg["generations"] == 2
        assert cfg["runs"] == 1

    def test_config_file_moead_population_snaps_at_scale_one(self, tmp_path):
        out = tmp_path / "out"
        doc = _config(algorithm="moead", objectives=["rmse", "l2", "l3"], population=40)
        assert main(["run", "--config", _write(tmp_path / "config.json", doc),
                     "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["population"] == 45  # H = 8
        snapshot = json.loads((out / "run_0.jsonl").read_text().splitlines()[0])
        assert len(snapshot["subproblems"]) == 45

    @pytest.mark.parametrize("flags", [
        ["--scale", "inf"],
        ["--scale", "nan"],
        ["--scale", "0"],
        ["--scale", "0.1", "--jobs", "0"],
        ["--scale", "0.1", "--jobs", "-2"],
    ], ids=["scale-inf", "scale-nan", "scale-0", "jobs-0", "jobs-minus-2"])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, flags):
        out = tmp_path / "out"
        assert main(["run", "--preset", "exp6", "--seed", "1", "--out", str(out)] + flags) == 2
        assert not out.exists()

    def test_help_states_flag_ranges(self, capsys):
        assert main(["run", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "finite and greater than 0" in text
        assert "parallel runs, at least 1" in text

    @pytest.mark.parametrize("field", ["duration_s", "lane_change_rate"])
    def test_non_finite_scenario_config_is_usage_error(self, tmp_path, exp8_dir, field):
        doc = json.loads((exp8_dir / "config.json").read_text())
        doc["dataset"][field] = math.inf
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))  # written as Infinity, which json.load accepts
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_engine_failure_exit_four(self, tmp_path, capsys, monkeypatch):
        # an evaluator failure must surface as a per-run engine failure
        monkeypatch.setattr("neurotraj.experiment.evaluate", _engine_error)
        config_path = _write(tmp_path / "config.json", SMALL_RUN)
        code = main(["run", "--config", config_path, "--out", str(tmp_path / "out")])
        assert code == 4
        assert "run 0" in capsys.readouterr().err

    def test_unwritable_out_exit_three(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["run", "--preset", "exp6", "--scale", "0.1",
                     "--out", str(blocker / "nested")])
        assert code == 3


class TestAnalyze:
    def test_hypervolume_rows_are_generations_times_runs(self, exp8_dir):
        assert main(["analyze", str(exp8_dir)]) == 0
        with open(exp8_dir / "hypervolume.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2
        assert set(rows[0]) == {"generation", "run", "value"}

    def test_correlations_pair_count(self, exp8_dir):
        main(["analyze", str(exp8_dir)])
        doc = json.loads((exp8_dir / "correlations.json").read_text())
        assert len(doc) == 3  # C(3, 2)
        pairs = {tuple(entry["pair"]) for entry in doc}
        assert pairs == {("rmse", "l1"), ("rmse", "l3"), ("l1", "l3")}

    def test_kde_front_written(self, exp8_dir):
        main(["analyze", str(exp8_dir)])
        with open(exp8_dir / "kde_front.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if rows:
            assert set(rows[0]) == {"run", "rmse", "l1", "l3", "density"}
            assert all(float(r["density"]) >= 0 for r in rows)

    def test_two_dir_comparison_records_threshold(self, exp8_dir, exp9_dir, tmp_path):
        out = tmp_path / "cmp"
        assert main(["analyze", str(exp8_dir), str(exp9_dir), "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["comparison"]["bonferroni_threshold"] == 0.025
        assert "rmse_val_all" in doc["comparison"]["metrics"]
        assert (out / "hypervolume_against.csv").exists()
        assert len(doc["hypervolume_reference"]) == 3

    def test_different_objectives_exit_five_before_writing(self, exp8_dir, tmp_path, capsys):
        other = tmp_path / "rmse_l2"
        assert main(["run", "--config", _write(tmp_path / "config.json", SMALL_RUN),
                     "--out", str(other)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["analyze", str(exp8_dir), str(other), "--out", str(out)]) == 5
        assert "different objectives" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_dir_exit_five(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        assert main(["analyze", str(bad)]) == 5

    def test_truncated_snapshots_exit_five(self, exp8_dir, tmp_path):
        import shutil

        bad = tmp_path / "truncated"
        shutil.copytree(exp8_dir, bad)
        jsonl = bad / "run_0.jsonl"
        jsonl.write_text(jsonl.read_text().splitlines()[0] + "\n")
        assert main(["analyze", str(bad)]) == 5

    @pytest.mark.parametrize("fixture, corrupt", [
        ("exp8_dir", lambda d: _edit_snapshot(d, lambda snap: snap.pop("population"))),
        ("exp8_dir", lambda d: _edit_snapshot(d, lambda snap: snap["population"][0].pop("rank"))),
        ("exp8_dir", lambda d: _edit_snapshot(
            d, lambda snap: snap["population"][0]["objectives"].pop())),
        ("exp9_dir", lambda d: _edit_snapshot(d, lambda snap: snap.pop("archive"))),
        ("exp9_dir", lambda d: _edit_snapshot(
            d, lambda snap: snap["archive"][0]["objectives"].pop())),
        ("exp8_dir", lambda d: _edit_front_row(d, "gene_1", "99")),
        ("exp8_dir", lambda d: _edit_front_row(d, "rmse", "nan")),
        ("exp8_dir", lambda d: _edit_front_row(d, "valid", "yes")),
        ("exp8_dir", lambda d: _edit_front_row(d, "spread_ok", "7")),
        ("exp8_dir", lambda d: (_edit_front_row(d, "valid", "1"),
                                _edit_front_row(d, "spread_ok", "0"))),
        ("exp8_dir", lambda d: _edit_snapshot(
            d, lambda snap: snap["population"][0].update(rank="zero"))),
        ("exp8_dir", lambda d: _latin1_byte(d / "run_0.jsonl", b'"generation"')),
        ("exp8_dir", lambda d: _latin1_byte(d / "config.json", b'"algorithm"')),
        ("exp8_dir", lambda d: _edit_config(d, lambda doc: doc.update(algorithm="nsga3"))),
        ("exp8_dir", lambda d: _edit_config(d, lambda doc: doc.update(population=1))),
        ("exp8_dir", lambda d: _edit_config(d, lambda doc: doc["objectives"].__setitem__(1, "l9"))),
        ("exp8_dir", lambda d: _edit_front_rows(d, lambda rows: rows[1].extend(["999", "abc"]))),
        ("exp8_dir", lambda d: _edit_front_rows(d, lambda rows: rows[1].pop())),
        # a numeric string and null both convert to a float array without error
        ("exp8_dir", lambda d: _edit_snapshot(
            d, lambda snap: snap["population"][0]["objectives"].__setitem__(0, "0.5"))),
        ("exp8_dir", lambda d: _edit_snapshot(
            d, lambda snap: snap["population"][0]["objectives"].__setitem__(0, None))),
        ("exp8_dir", lambda d: _edit_snapshot(
            d, lambda snap: snap["population"][0].update(rank=False))),  # False == 0
        ("exp8_dir", lambda d: _edit_front_rows(d, _swap_last_columns)),
        ("exp8_dir", lambda d: _edit_snapshot(
            d, lambda snap: snap["population"][0]["objectives"].__setitem__(0, [0.5]))),
        ("exp8_dir", lambda d: _edit_snapshot(
            d, lambda snap: [ind["objectives"].pop() for ind in snap["population"]])),
        ("exp8_dir", lambda d: _edit_front_row(d, "gene_1", str(default_allele_table().counts[0]))),
        ("exp8_dir", lambda d: _edit_front_row(d, "gene_1", "-1")),
        ("exp8_dir", lambda d: _edit_front_row(d, "skill_speed", "inf")),
        ("exp8_dir", lambda d: _edit_front_row(d, "mean_final_x", "nan")),
    ], ids=["no-population", "no-rank", "population-two-objectives", "no-archive",
            "archive-two-objectives", "gene-out-of-range", "nan-objective", "valid-yes",
            "spread-ok-seven", "valid-with-failed-flag", "rank-zero-string",
            "snapshot-not-utf8", "config-not-utf8", "unknown-algorithm", "population-one",
            "unknown-objective", "extra-field", "missing-field", "string-objective",
            "null-objective", "bool-rank", "swapped-columns", "nested-objective",
            "every-member-two-objectives", "gene-at-allele-count", "negative-gene",
            "inf-skill", "nan-measure"])
    def test_bad_record_contents_exit_five(self, fixture, corrupt, request, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(request.getfixturevalue(fixture), bad)
        corrupt(bad)
        assert main(["analyze", str(bad)]) == 5

    def test_oversized_front_field_exit_five(self, exp8_dir, tmp_path, capsys):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(exp8_dir, bad)
        _edit_front_row(bad, "rmse", "1" * 200_000)  # beyond the csv reader's field size limit
        assert main(["analyze", str(bad)]) == 5
        assert "field larger than field limit" in capsys.readouterr().err

    def test_experiment_with_a_failed_run_analyzed(self, tmp_path, fail_run_one):
        out = tmp_path / "out"
        config_path = _write(tmp_path / "config.json", _config(runs=2, generations=2))
        assert main(["run", "--config", config_path, "--out", str(out)]) == 4
        assert main(["analyze", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["errors"] == ["run 1: ContractError: boom"]

    @pytest.mark.parametrize("fail_run_one", ["cannot read /data/caf\udce9.csv"], indirect=True,
                             ids=["lone-surrogate"])
    def test_failed_run_message_escaped_for_analyze(self, tmp_path, fail_run_one):
        out = tmp_path / "out"
        config_path = _write(tmp_path / "config.json", _config(runs=2, generations=2))
        assert main(["run", "--config", config_path, "--out", str(out)]) == 4
        assert main(["analyze", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["errors"] == ["run 1: ContractError: cannot read /data/caf\\udce9.csv"]

    def test_every_run_failed_exit_five(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("neurotraj.experiment.evaluate", _engine_error)
        out = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path / "config.json", SMALL_RUN),
                     "--out", str(out)]) == 4
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 5
        assert "no front points" in capsys.readouterr().err

    def test_three_dirs_usage_error(self, exp8_dir):
        assert main(["analyze", str(exp8_dir), str(exp8_dir), str(exp8_dir)]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--comparisons", "0"), ("--comparisons", "-3"), ("--alpha", "7"), ("--alpha", "-1"),
    ])
    def test_out_of_range_numbers_usage_error_before_writing(self, exp8_dir, tmp_path, flag, value):
        out = tmp_path / "out"
        assert main(["analyze", str(exp8_dir), flag, value, "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_analyze_idempotent(self, exp8_dir, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["analyze", str(exp8_dir), "--out", str(first)]) == 0
        assert main(["analyze", str(exp8_dir), "--out", str(second)]) == 0
        for name in ("summary.json", "hypervolume.csv", "kde_front.csv", "correlations.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_summary_percentage_matches_persisted_recount(self, exp8_dir):
        main(["analyze", str(exp8_dir)])
        doc = json.loads((exp8_dir / "summary.json").read_text())["valid_models"]
        valid = total = 0
        for csv_path in sorted(exp8_dir.glob("final_front_*.csv")):
            with open(csv_path, newline="") as fh:
                for row in csv.DictReader(fh):
                    total += 1
                    valid += row["valid"] == "1"
        assert doc["valid"] == valid and doc["total"] == total
        assert doc["percentage"] == round(100 * valid / total)


class TestAnalyzeCollector:
    """`analyze` runs with the cyclic garbage collector paused and gives the
    caller back the collector state it found."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("argv, code", [
        (lambda d, out: [str(d), "--out", str(out)], 0),
        (lambda d, out: [str(out)], 5),
        (lambda d, out: [str(d), "--alpha", "7", "--out", str(out)], 2),
    ], ids=["exit-0", "exit-5", "exit-2"])
    def test_state_restored(self, gc_state, exp8_dir, tmp_path, argv, code):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["analyze", *argv(exp8_dir, out)]) == code
        assert gc.isenabled() is gc_state

    def test_state_restored_after_an_unexpected_exception(self, gc_state, exp8_dir, tmp_path,
                                                          monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "summarize", broken)
        with pytest.raises(RuntimeError, match="boom"):
            main(["analyze", str(exp8_dir), "--out", str(tmp_path / "out")])
        assert gc.isenabled() is gc_state

    def test_no_collection_inside_analyze(self, exp8_dir, exp9_dir, tmp_path):
        inside = []

        def record(phase, info):
            if phase != "start":
                return
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code is cli.cmd_analyze.__code__:
                    inside.append(info["generation"])
                    return
                frame = frame.f_back

        gc.enable()
        gc.callbacks.append(record)
        try:
            assert main(["analyze", str(exp8_dir), str(exp9_dir),
                         "--out", str(tmp_path / "cmp")]) == 0
        finally:
            gc.callbacks.remove(record)
        assert inside == []


def _fresh_interpreter(code: str) -> str:
    """stdout of `code` run by a new interpreter that imports this package."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_defers_scipy_and_orjson():
    """`import neurotraj.cli` loads none of these: scipy is a test-only
    dependency (its `scipy.stats` used to be most of the package's import
    time), orjson is imported only where `run` writes snapshots and
    `analyze` reads them, and multiprocessing only where `run --jobs` above
    1 starts its process pool."""
    code = ("import sys, neurotraj.cli; "
            "print(sorted({'scipy', 'orjson', 'multiprocessing'} & set(sys.modules)))")
    assert _fresh_interpreter(code) == "[]"


def test_spearman_t_branch_loads_no_scipy():
    """At 600 points `spearman` takes the t tail (n >= 500), which the
    package computes itself: the process never imports scipy."""
    code = ("import sys; from neurotraj.analysis import spearman; "
            "r = spearman(range(600), [(7 * i) % 600 for i in range(600)]); "
            "print(0.0 < r.p_value < 1.0, 'scipy' in sys.modules)")
    assert _fresh_interpreter(code) == "True False"


class TestPresetsCommand:
    def test_lists_thirteen(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 13
        assert out[0].startswith("exp1 ")
        assert any("moead" in line for line in out)


class TestDeterminism:
    def test_rerun_byte_identical_artifacts(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = main(["run", "--preset", "exp6", "--scale", "0.1", "--seed", "2",
                         "--out", str(out)])
            assert code == 0
        for name in sorted(p.name for p in a.glob("*")):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
