"""Synthetic highway ego-vehicle trajectories and the dataset protocol.

A trajectory is a float64 array whose rows are (x, y, t): lateral
position (m), longitudinal position (m) and timestamp (s).

A scenario is a single continuous path: longitudinal speed follows a
mean-reverting random walk clamped to the highway band, lateral position
is piecewise smooth with occasional lane-change maneuvers. Paths are cut
into windows of 2 * tau rows, the input [:tau] followed by the target
[tau:]; the test portion is carved off the tail of the path before any
shuffling so test windows never share points with train/validation
windows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, ContractError, InsufficientDataError

if TYPE_CHECKING:
    from .objectives import Columns

V_MIN_MPS = 80.0 / 3.6  # 80 km/h
V_MAX_MPS = 130.0 / 3.6  # 130 km/h
LANE_WIDTH_M = 3.5
DT_MIN_S = 0.2
DT_MAX_S = 0.3
DEFAULT_TAU = 8

# Speed random-walk parameters: weak pull toward mid-band keeps the
# long-run mean near (V_MIN + V_MAX) / 2 while allowing ~2 m/s excursions.
_SPEED_REVERSION = 0.05
_SPEED_ACCEL_STD = 1.2
_LANE_CHANGE_DURATION_S = 2.0


def validate_sequence(seq, tau: int | None = None, eps: float = 1e-9) -> None:
    """Check timestamps, sampling interval and longitudinal speed bounds of
    one (n, 3) sequence or a batch of them (..., n, 3)."""
    seq = np.asarray(seq, dtype=float)
    if tau is not None and seq.shape[-2] != tau:
        raise ContractError(f"sequence length {seq.shape[-2]} != tau {tau}")
    dt = np.diff(seq[..., 2], axis=-1)
    if np.any(dt <= 0):
        raise ContractError("timestamps not strictly increasing")
    bad_dt = dt[(dt < DT_MIN_S - eps) | (dt > DT_MAX_S + eps)]
    if bad_dt.size:
        raise ContractError(f"dt {bad_dt[0]} outside [{DT_MIN_S}, {DT_MAX_S}]")
    vy = np.diff(seq[..., 1], axis=-1) / dt
    bad_vy = vy[(vy < V_MIN_MPS - eps) | (vy > V_MAX_MPS + eps)]
    if bad_vy.size:
        raise ContractError(f"longitudinal speed {bad_vy[0]} outside band")


def generate_scenario(duration_s: float, lane_change_rate: float = 0.0,
                      seed: int = 0) -> np.ndarray:
    """Generate one continuous highway path of (x, y, t) rows, deterministic
    per seed; lane changes are Poisson events at `lane_change_rate` per second."""
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ConfigurationError(f"duration_s must be finite and positive, got {duration_s}")
    if not (math.isfinite(lane_change_rate) and lane_change_rate >= 0):
        raise ConfigurationError(f"lane_change_rate must be finite and >= 0, got {lane_change_rate}")

    rng = Random(seed)
    lanes = (-LANE_WIDTH_M, 0.0, LANE_WIDTH_M)
    lane = 1  # start in the center lane
    v_mid = 0.5 * (V_MIN_MPS + V_MAX_MPS)

    maneuver: tuple[float, float, float] | None = None  # (t_start, x_from, x_to)
    if lane_change_rate > 0:
        next_event_t = rng.expovariate(lane_change_rate)
    else:
        next_event_t = math.inf

    t = 0.0
    y = 0.0
    v = rng.uniform(V_MIN_MPS + 2.0, V_MAX_MPS - 2.0)
    rows: list[tuple[float, float, float]] = []
    while t <= duration_s:
        if maneuver is not None:
            t0, x_from, x_to = maneuver
            u = (t - t0) / _LANE_CHANGE_DURATION_S
            if u >= 1.0:
                maneuver = None
                next_event_t = t + rng.expovariate(lane_change_rate)
                x = x_to
            else:
                x = x_from + (x_to - x_from) * (3.0 * u * u - 2.0 * u ** 3)  # smoothstep
        else:
            x = lanes[lane]
        if maneuver is None and t >= next_event_t:
            if lane == 0:
                target = 1
            elif lane == 2:
                target = 1
            else:
                target = rng.choice((0, 2))
            maneuver = (t, lanes[lane], lanes[target])
            lane = target
        rows.append((x, y, t))

        dt = rng.uniform(DT_MIN_S, DT_MAX_S)
        accel = _SPEED_REVERSION * (v_mid - v) + rng.gauss(0.0, _SPEED_ACCEL_STD)
        v = min(V_MAX_MPS, max(V_MIN_MPS, v + accel * dt))
        y += v * dt
        t += dt
    return np.array(rows)


@dataclass(frozen=True)
class Dataset:
    """Each split is one (P, 2 * tau, 3) array of windows.

    The splits are made read-only, so the target terms derived from them
    (`validation_targets`, `test_targets`) are computed once and stay valid
    for as long as the dataset lives.
    """

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int
    tau: int = DEFAULT_TAU
    ratio: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        for split in (self.train, self.validation, self.test):
            split.flags.writeable = False

    def __reduce__(self):
        # Rebuild through __init__: a copy sent to a worker process has
        # read-only splits too, and derives its own terms.
        return Dataset, (self.train, self.validation, self.test, self.seed, self.tau, self.ratio)

    @cached_property
    def validation_targets(self) -> Columns:
        """The targets of the validation windows, with the terms derived from them."""
        return _targets(self.validation, self.tau)

    @cached_property
    def test_targets(self) -> Columns:
        """The targets of the test windows, with the terms derived from them."""
        return _targets(self.test, self.tau)

    def counts(self) -> dict:
        return {"train": len(self.train), "validation": len(self.validation), "test": len(self.test)}


def _targets(split: np.ndarray, tau: int) -> Columns:
    from .objectives import Columns  # objectives imports the speed band from this module

    return Columns.of(split[:, tau:])


def sliding_windows(path: np.ndarray, tau: int) -> np.ndarray:
    """All stride-1 windows of 2 * tau consecutive rows of a path."""
    path = np.asarray(path, dtype=float)
    if len(path) < 2 * tau:
        return np.empty((0, 2 * tau, 3))
    return np.ascontiguousarray(sliding_window_view(path, 2 * tau, axis=0).transpose(0, 2, 1))


def window_and_split(
    path: np.ndarray,
    tau: int = DEFAULT_TAU,
    ratio: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> Dataset:
    """Cut a path into windows and split train/validation/test.

    The test share is taken as a contiguous tail of the *path*, separated
    from the head region before windowing, so no train/validation window
    (input or target) overlaps a test point. The head windows are shuffled
    with `seed` and then split train/validation by ratio.
    """
    if len(ratio) != 3 or not all(math.isfinite(r) and r >= 0 for r in ratio):
        raise ConfigurationError(f"ratio must be three finite non-negative shares, got {ratio}")
    if abs(sum(ratio) - 1.0) > 1e-9:
        raise ConfigurationError(f"ratio must sum to 1, got {ratio}")
    if tau < 2:
        raise ConfigurationError(f"tau must be >= 2, got {tau}")
    if len(path) < 2 * tau:
        raise InsufficientDataError(f"path of {len(path)} points is shorter than 2*tau = {2 * tau}")

    r_train, _, r_test = ratio
    n_test = 0
    if r_test > 0:
        total = len(path) - 4 * tau + 2  # pairs when head and tail are windowed separately
        if total >= 1:
            n_test = round(r_test * total)

    if n_test > 0:
        split_at = len(path) - (n_test + 2 * tau - 1)
        test = sliding_windows(path[split_at:], tau)
        pool = sliding_windows(path[:split_at], tau)
        if not len(pool):
            raise InsufficientDataError("head region too short after withholding the test tail")
    else:
        test = np.empty((0, 2 * tau, 3))
        pool = sliding_windows(path, tau)
    total = len(pool) + len(test)

    order = list(range(len(pool)))
    Random(seed).shuffle(order)
    n_train = min(len(pool), round(r_train * total))
    return Dataset(train=pool[order[:n_train]], validation=pool[order[n_train:]], test=test,
                   seed=seed, tau=tau, ratio=tuple(ratio))


_ROLES = (("train", "train"), ("val", "validation"), ("test", "test"))
# The header of dataset.csv; `load_dataset` reads the fields by position.
_DATASET_COLUMNS = ["pair_id", "role", "step", "x", "y", "t"]


def write_json(path: Path, doc) -> Path:
    """Write `doc` as JSON indented by two with a final newline, the form of
    every JSON document the package writes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def write_csv(path: Path, header, rows) -> Path:
    """Write `header` and then each of `rows`, an iterable consumed as it is
    written, as CSV in UTF-8: the form of every CSV file the package writes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def read_csv(path: Path, header):
    """Yield each row of a CSV file in the form of `write_csv`, skipping blank
    lines. ContractError, naming the file, unless the first row is exactly
    `header` and every row has as many fields."""
    header, name = list(header), Path(path).name
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, []) != header:
                raise ContractError(f"{name} header is not {','.join(header)}")
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ContractError(f"{name} line {reader.line_num} has {len(row)} fields, "
                                        f"the header {len(header)}")
                yield row
        except csv.Error as exc:  # such as a field beyond the reader's size limit
            raise ContractError(f"{name} line {reader.line_num}: {exc}") from exc


def save_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write dataset.csv (one row per point) and manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    windows = ((role, window) for role, split in _ROLES
               for window in getattr(dataset, split).tolist())
    csv_path = write_csv(out / "dataset.csv", _DATASET_COLUMNS, (
        [pair_id, role, step, repr(x), repr(y), repr(t)]
        for pair_id, (role, window) in enumerate(windows) for step, (x, y, t) in enumerate(window)))

    manifest = {
        "tau": dataset.tau,
        "ratio": list(dataset.ratio),
        "seed": dataset.seed,
        "counts": dataset.counts(),
    }
    return {"dataset": csv_path, "manifest": write_json(out / "manifest.json", manifest)}


def load_dataset(in_dir: str | Path) -> Dataset:
    """Inverse of save_dataset. ContractError if either file is malformed."""
    src = Path(in_dir)
    try:
        with open(src / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        tau, seed, ratio, counts = (manifest["tau"], manifest["seed"], tuple(manifest["ratio"]),
                                    manifest["counts"])
        rows = list(read_csv(src / "dataset.csv", _DATASET_COLUMNS))
        pair_ids = np.array([int(row[0]) for row in rows], dtype=np.int64)
        steps = np.array([int(row[2]) for row in rows], dtype=np.int64)
        points = np.array([[float(v) for v in row[3:]] for row in rows])
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ContractError(f"malformed dataset in {src}: {exc!r}") from exc
    if not (type(tau) is int and tau >= 2 and type(seed) is int and len(ratio) == 3
            and all(type(r) in (int, float) and math.isfinite(r) for r in ratio)):
        raise ContractError(f"manifest tau {tau!r}, seed {seed!r} or ratio {ratio!r} is malformed")
    if not np.isfinite(points).all():
        raise ContractError("dataset.csv holds a non-finite value")

    order = np.lexsort((steps, pair_ids))
    ids, first, sizes = np.unique(pair_ids[order], return_index=True, return_counts=True)
    wrong = sizes != 2 * tau
    if wrong.any():
        raise ContractError(f"pair {ids[wrong][0]} has {sizes[wrong][0]} points, expected {2 * tau}")
    wrong = (steps[order].reshape(-1, 2 * tau) != np.arange(2 * tau)).any(1)
    if wrong.any():
        raise ContractError(f"pair {ids[wrong][0]} does not have steps 0 to {2 * tau - 1}")
    windows = points[order].reshape(-1, 2 * tau, 3)
    roles = np.array([rows[i][1] for i in order[first]], dtype=str)
    unknown = ~np.isin(roles, [role for role, _ in _ROLES])
    if unknown.any():
        raise ContractError(f"pair {ids[unknown][0]} has unknown role {str(roles[unknown][0])!r}")
    dataset = Dataset(**{split: windows[roles == role] for role, split in _ROLES},
                      seed=seed, tau=tau, ratio=ratio)
    if counts != dataset.counts():
        raise ContractError(f"manifest counts {counts!r} are not dataset.csv's {dataset.counts()}")
    return dataset
