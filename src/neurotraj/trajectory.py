"""Synthetic highway ego-vehicle trajectories and the dataset protocol.

A scenario is a single continuous path: longitudinal speed follows a
mean-reverting random walk clamped to the highway band, lateral position
is piecewise smooth with occasional lane-change maneuvers. Paths are cut
into (input, target) window pairs; the test portion is carved off the
tail of the path before any shuffling so test windows never share points
with train/validation windows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random

from .errors import ConfigurationError, ContractError, InsufficientDataError

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


@dataclass(frozen=True)
class TrajectoryPoint:
    x: float  # lateral position (m)
    y: float  # longitudinal position (m)
    t: float  # timestamp (s)


@dataclass(frozen=True)
class TrajectorySequence:
    points: tuple[TrajectoryPoint, ...]

    @property
    def tau(self) -> int:
        return len(self.points)


def validate_sequence(seq: TrajectorySequence, tau: int | None = None, eps: float = 1e-9) -> None:
    """Check timestamps, sampling interval and longitudinal speed bounds."""
    pts = seq.points
    if tau is not None and len(pts) != tau:
        raise ContractError(f"sequence length {len(pts)} != tau {tau}")
    for i in range(len(pts) - 1):
        dt = pts[i + 1].t - pts[i].t
        if dt <= 0:
            raise ContractError(f"timestamps not strictly increasing at step {i}")
        if not (DT_MIN_S - eps <= dt <= DT_MAX_S + eps):
            raise ContractError(f"dt {dt} outside [{DT_MIN_S}, {DT_MAX_S}] at step {i}")
        vy = (pts[i + 1].y - pts[i].y) / dt
        if not (V_MIN_MPS - eps <= vy <= V_MAX_MPS + eps):
            raise ContractError(f"longitudinal speed {vy} outside band at step {i}")


@dataclass(frozen=True)
class ScenarioConfig:
    duration_s: float
    lane_change_rate: float = 0.0  # Poisson events per second
    seed: int = 0


def generate_scenario(config: ScenarioConfig) -> list[TrajectoryPoint]:
    """Generate one continuous highway path, deterministic per seed."""
    if config.duration_s <= 0:
        raise ConfigurationError(f"duration_s must be positive, got {config.duration_s}")
    if config.lane_change_rate < 0:
        raise ConfigurationError(f"lane_change_rate must be >= 0, got {config.lane_change_rate}")

    rng = Random(config.seed)
    lanes = (-LANE_WIDTH_M, 0.0, LANE_WIDTH_M)
    lane = 1  # start in the center lane
    v_mid = 0.5 * (V_MIN_MPS + V_MAX_MPS)

    maneuver: tuple[float, float, float] | None = None  # (t_start, x_from, x_to)
    if config.lane_change_rate > 0:
        next_event_t = rng.expovariate(config.lane_change_rate)
    else:
        next_event_t = math.inf

    t = 0.0
    y = 0.0
    v = rng.uniform(V_MIN_MPS + 2.0, V_MAX_MPS - 2.0)
    points: list[TrajectoryPoint] = []
    while t <= config.duration_s:
        if maneuver is not None:
            t0, x_from, x_to = maneuver
            u = (t - t0) / _LANE_CHANGE_DURATION_S
            if u >= 1.0:
                maneuver = None
                next_event_t = t + rng.expovariate(config.lane_change_rate)
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
        points.append(TrajectoryPoint(x, y, t))

        dt = rng.uniform(DT_MIN_S, DT_MAX_S)
        accel = _SPEED_REVERSION * (v_mid - v) + rng.gauss(0.0, _SPEED_ACCEL_STD)
        v = min(V_MAX_MPS, max(V_MIN_MPS, v + accel * dt))
        y += v * dt
        t += dt
    return points


Pair = tuple[TrajectorySequence, TrajectorySequence]


@dataclass
class Dataset:
    train: list[Pair]
    validation: list[Pair]
    test: list[Pair]
    seed: int
    tau: int = DEFAULT_TAU
    ratio: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def counts(self) -> dict:
        return {"train": len(self.train), "validation": len(self.validation), "test": len(self.test)}


def sliding_windows(points: list[TrajectoryPoint], tau: int) -> list[Pair]:
    """All stride-1 (input, target) window pairs of a point list."""
    n_pairs = len(points) - 2 * tau + 1
    pairs = []
    for i in range(max(0, n_pairs)):
        inp = TrajectorySequence(tuple(points[i:i + tau]))
        tgt = TrajectorySequence(tuple(points[i + tau:i + 2 * tau]))
        pairs.append((inp, tgt))
    return pairs


def window_and_split(
    path: list[TrajectoryPoint],
    tau: int = DEFAULT_TAU,
    ratio: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
) -> Dataset:
    """Cut a path into window pairs and split train/validation/test.

    The test share is taken as a contiguous tail of the *path*, separated
    from the head region before windowing, so no train/validation window
    (input or target) overlaps a test point. The head pairs are shuffled
    with `seed` and then split train/validation by ratio.
    """
    if len(ratio) != 3 or any(r < 0 for r in ratio):
        raise ConfigurationError(f"ratio must be three non-negative shares, got {ratio}")
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
        tail_points = n_test + 2 * tau - 1
        head = path[: len(path) - tail_points]
        tail = path[len(path) - tail_points:]
        test_pairs = sliding_windows(tail, tau)
        pool = sliding_windows(head, tau)
        if not pool:
            raise InsufficientDataError("head region too short after withholding the test tail")
        total = len(pool) + len(test_pairs)
    else:
        test_pairs = []
        pool = sliding_windows(path, tau)
        total = len(pool)

    rng = Random(seed)
    rng.shuffle(pool)
    n_train = min(len(pool), round(r_train * total))
    train = pool[:n_train]
    validation = pool[n_train:]
    return Dataset(train=train, validation=validation, test=test_pairs,
                   seed=seed, tau=tau, ratio=tuple(ratio))


def save_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write dataset.csv (one row per point) and manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "dataset.csv"
    manifest_path = out / "manifest.json"

    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_id", "role", "step", "x", "y", "t"])
        pair_id = 0
        for role, pairs in (("train", dataset.train), ("val", dataset.validation), ("test", dataset.test)):
            for inp, tgt in pairs:
                for step, p in enumerate(inp.points + tgt.points):
                    writer.writerow([pair_id, role, step, repr(p.x), repr(p.y), repr(p.t)])
                pair_id += 1

    manifest = {
        "tau": dataset.tau,
        "ratio": list(dataset.ratio),
        "seed": dataset.seed,
        "counts": dataset.counts(),
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return {"dataset": csv_path, "manifest": manifest_path}


def load_dataset(in_dir: str | Path) -> Dataset:
    """Inverse of save_dataset."""
    src = Path(in_dir)
    with open(src / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    tau = manifest["tau"]

    rows_by_pair: dict[int, tuple[str, list[TrajectoryPoint]]] = {}
    with open(src / "dataset.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            pid = int(row["pair_id"])
            point = TrajectoryPoint(float(row["x"]), float(row["y"]), float(row["t"]))
            rows_by_pair.setdefault(pid, (row["role"], []))[1].append(point)

    splits: dict[str, list[Pair]] = {"train": [], "val": [], "test": []}
    for pid in sorted(rows_by_pair):
        role, pts = rows_by_pair[pid]
        if len(pts) != 2 * tau:
            raise ContractError(f"pair {pid} has {len(pts)} points, expected {2 * tau}")
        splits[role].append((TrajectorySequence(tuple(pts[:tau])), TrajectorySequence(tuple(pts[tau:]))))
    return Dataset(train=splits["train"], validation=splits["val"], test=splits["test"],
                   seed=manifest["seed"], tau=tau, ratio=tuple(manifest["ratio"]))
