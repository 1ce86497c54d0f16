import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest

from neurotraj.errors import ConfigurationError, ContractError, InsufficientDataError
from neurotraj.trajectory import (
    DT_MAX_S,
    DT_MIN_S,
    V_MAX_MPS,
    V_MIN_MPS,
    generate_scenario,
    load_dataset,
    save_dataset,
    sliding_windows,
    validate_sequence,
    window_and_split,
)


def fake_path(n, v=30.0, dt=0.25, x=0.0):
    return np.array([(x, v * dt * i, dt * i) for i in range(n)])


class TestGenerateScenario:
    def test_rate_zero_constant_lateral(self):
        path = generate_scenario(duration_s=60.0, lane_change_rate=0.0, seed=1)
        assert np.all(path[:, 0] == path[0, 0])

    def test_speed_within_band(self):
        path = generate_scenario(duration_s=120.0, lane_change_rate=0.05, seed=2)
        dt = np.diff(path[:, 2])
        assert np.all((DT_MIN_S <= dt) & (dt <= DT_MAX_S))
        v = np.diff(path[:, 1]) / dt
        assert np.all((V_MIN_MPS - 1e-9 <= v) & (v <= V_MAX_MPS + 1e-9))

    def test_600s_displacement_near_mean_speed(self):
        # Integrated displacement should sit near 600 s at mid-band speed.
        for seed in (0, 1, 7):
            path = generate_scenario(duration_s=600.0, lane_change_rate=0.02, seed=seed)
            disp = path[-1, 1] - path[0, 1]
            assert abs(disp - 17_400.0) <= 0.15 * 17_400.0

    def test_lane_changes_hit_adjacent_lanes(self):
        path = generate_scenario(duration_s=400.0, lane_change_rate=0.05, seed=5)
        xs = {round(x, 6) for x in path[:, 0].tolist()}
        assert 3.5 in xs or -3.5 in xs

    def test_deterministic_per_seed(self):
        args = {"duration_s": 50.0, "lane_change_rate": 0.05, "seed": 9}
        assert np.array_equal(generate_scenario(**args), generate_scenario(**args))

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            generate_scenario(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            generate_scenario(duration_s=10.0, lane_change_rate=-1.0)

    # Each of these made the generator loop forever or pass unchecked.
    @pytest.mark.parametrize("kwargs", [
        {"duration_s": math.inf},
        {"duration_s": math.nan},
        {"duration_s": 10.0, "lane_change_rate": math.inf},
        {"duration_s": 10.0, "lane_change_rate": math.nan},
    ])
    def test_non_finite_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            generate_scenario(**kwargs)


class TestWindowing:
    def test_stride_one_pair_count(self):
        for n in (16, 17, 40, 100):
            assert len(sliding_windows(fake_path(n), 8)) == n - 16 + 1

    def test_windows_are_valid_sequences(self):
        path = generate_scenario(duration_s=30.0, lane_change_rate=0.05, seed=4)
        windows = sliding_windows(path, 8)
        validate_sequence(windows[:, :8], tau=8)
        validate_sequence(windows[:, 8:], tau=8)


class TestSplit:
    def test_default_ratio_sizes(self):
        # 2530 points -> 2500 extractable pairs once the tail is separated.
        ds = window_and_split(fake_path(2530), tau=8, ratio=(0.6, 0.2, 0.2), seed=0)
        assert (len(ds.train), len(ds.validation), len(ds.test)) == (1500, 500, 500)

    def test_degenerate_ratio_all_train(self):
        ds = window_and_split(fake_path(100), tau=8, ratio=(1.0, 0.0, 0.0), seed=0)
        assert len(ds.train) == 100 - 16 + 1
        assert len(ds.validation) == len(ds.test) == 0

    def test_no_window_overlaps_test_tail(self):
        # 100-point path: head windows must end strictly before the first
        # test point in time.
        ds = window_and_split(fake_path(100), tau=8, ratio=(0.6, 0.2, 0.2), seed=0)
        assert len(ds.test) == 14
        first_test_t = ds.test[:, 0, 2].min()
        head = np.concatenate([ds.train, ds.validation])
        assert np.all(head[:, :, 2] < first_test_t)

    def test_test_pairs_never_in_train_or_val(self):
        ds = window_and_split(fake_path(200), tau=8, ratio=(0.6, 0.2, 0.2), seed=1)
        test_keys = {w.tobytes() for w in ds.test[:, :8]}
        head_keys = {w.tobytes() for w in np.concatenate([ds.train, ds.validation])[:, :8]}
        assert not test_keys & head_keys

    def test_same_seed_identical_dataset(self):
        path = fake_path(150)
        a = window_and_split(path, tau=8, ratio=(0.6, 0.2, 0.2), seed=5)
        b = window_and_split(path, tau=8, ratio=(0.6, 0.2, 0.2), seed=5)
        for split in ("train", "validation", "test"):
            assert np.array_equal(getattr(a, split), getattr(b, split))

    def test_too_short_path_rejected(self):
        with pytest.raises(InsufficientDataError):
            window_and_split(fake_path(15), tau=8, ratio=(0.6, 0.2, 0.2), seed=0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            window_and_split(fake_path(100), tau=8, ratio=(0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("ratio", [(math.nan, 0.5, 0.5), (0.5, 0.5, math.nan),
                                       (math.inf, 0.0, 0.0)])
    def test_non_finite_ratio_rejected(self, ratio):
        # NaN passes both the sign and the sum check, and round(nan) raises later
        with pytest.raises(ConfigurationError, match="finite"):
            window_and_split(fake_path(100), tau=8, ratio=ratio, seed=0)


def _edit_first_row(text: str, edit) -> str:
    """Apply `edit` to the first data row of a dataset.csv text."""
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, edit(first), rest])


def _with_x(value: str):
    """An edit for `_edit_first_row` that sets the row's x field to `value`."""
    def edit(row: str) -> str:
        fields = row.split(",")
        fields[3] = value
        return ",".join(fields)
    return edit


def _with_manifest(**changes):
    """An edit of a manifest.json text that sets the given keys."""
    return lambda text: json.dumps({**json.loads(text), **changes})


class TestDataset:
    @pytest.mark.parametrize("split", ["train", "validation", "test"])
    def test_splits_read_only(self, small_dataset, split):
        with pytest.raises(ValueError):
            getattr(small_dataset, split)[0, 0, 0] = 1.0

    def test_fields_not_reassignable(self, small_dataset):
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_dataset.validation = small_dataset.test

    def test_pickled_copy_read_only(self, small_dataset):
        small_dataset.validation_targets  # derived terms are not part of the copy
        copy = pickle.loads(pickle.dumps(small_dataset))
        assert np.array_equal(copy.validation, small_dataset.validation)
        assert not copy.validation.flags.writeable
        assert "validation_targets" not in vars(copy)

    def test_loaded_splits_read_only(self, tmp_path):
        save_dataset(window_and_split(fake_path(60), tau=4, seed=0), tmp_path)
        assert not load_dataset(tmp_path).test.flags.writeable


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = generate_scenario(duration_s=40.0, lane_change_rate=0.05, seed=6)
        ds = window_and_split(path, tau=8, ratio=(0.6, 0.2, 0.2), seed=6)
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.tau == ds.tau
        assert loaded.counts() == ds.counts()
        for split in ("train", "validation", "test"):
            assert np.array_equal(getattr(loaded, split), getattr(ds, split))

    def test_reexport_is_byte_identical(self, tmp_path):
        path = generate_scenario(duration_s=40.0, lane_change_rate=0.05, seed=6)
        ds = window_and_split(path, tau=8, ratio=(0.6, 0.2, 0.2), seed=6)
        first = tmp_path / "a"
        second = tmp_path / "b"
        save_dataset(ds, first)
        save_dataset(load_dataset(first), second)
        for name in ("dataset.csv", "manifest.json"):
            h1 = hashlib.sha256((first / name).read_bytes()).hexdigest()
            h2 = hashlib.sha256((second / name).read_bytes()).hexdigest()
            assert h1 == h2

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace(",val,", ",valx,", 1),
        lambda text: text.rsplit("\n", 2)[0] + "\n",  # drops the last point of the last pair
        lambda text: text.replace("\n0,train,1,", "\n0,train,0,", 1),  # pair 0 has step 0 twice
        lambda text: _edit_first_row(text, lambda row: row + ",999,abc"),
        lambda text: _edit_first_row(text, lambda row: row.rsplit(",", 1)[0]),  # drops t
        lambda text: text.replace(",t\n", ",time\n", 1),
    ], ids=["unknown-role", "short-pair", "duplicated-step", "extra-field", "short-row",
            "renamed-column"])
    def test_malformed_file_rejected(self, tmp_path, edit):
        path = generate_scenario(duration_s=40.0, lane_change_rate=0.05, seed=6)
        save_dataset(window_and_split(path, tau=8, ratio=(0.6, 0.2, 0.2), seed=6), tmp_path)
        csv_path = tmp_path / "dataset.csv"
        csv_path.write_text(edit(csv_path.read_text()))
        with pytest.raises(ContractError):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name, edit", [
        ("dataset.csv", lambda text: _edit_first_row(text, _with_x("abc"))),
        ("dataset.csv", lambda text: _edit_first_row(text, _with_x("nan"))),
        ("dataset.csv", lambda text: _edit_first_row(text, _with_x("inf"))),
        ("manifest.json", lambda text: "{}"),
        ("manifest.json", _with_manifest(tau=4.0)),
        ("manifest.json", _with_manifest(seed="0")),
        ("manifest.json", _with_manifest(ratio="abc")),
        ("manifest.json", _with_manifest(ratio=[0.6, math.nan, 0.2])),
        ("manifest.json", _with_manifest(counts={"train": 1, "validation": 2, "test": 3})),
        ("manifest.json", lambda text: "[" * 100_000 + "]" * 100_000),
    ], ids=["x-not-a-number", "x-nan", "x-inf", "empty-manifest", "float-tau", "string-seed",
            "string-ratio", "nan-ratio", "wrong-counts", "nested-too-deep"])
    def test_malformed_value_rejected(self, tmp_path, name, edit):
        save_dataset(window_and_split(fake_path(60), tau=4, seed=0), tmp_path)
        path = tmp_path / name
        edited = edit(path.read_text())
        assert edited != path.read_text()
        path.write_text(edited)
        with pytest.raises(ContractError):
            load_dataset(tmp_path)

    def test_points_ordered_by_step_column(self, tmp_path):
        path = generate_scenario(duration_s=40.0, lane_change_rate=0.05, seed=6)
        ds = window_and_split(path, tau=8, ratio=(0.6, 0.2, 0.2), seed=6)
        save_dataset(ds, tmp_path)
        csv_path = tmp_path / "dataset.csv"
        header, first, second, *rest = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join([header, second, first, *rest]))
        loaded = load_dataset(tmp_path)
        for split in ("train", "validation", "test"):
            assert np.array_equal(getattr(loaded, split), getattr(ds, split))
