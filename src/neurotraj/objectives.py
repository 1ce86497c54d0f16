"""The five trajectory objectives and their assembly into minimization vectors.

All assembled values are finite and >= 0. The longitudinal-velocity
objective is maximized in its raw form; it enters vectors as the
non-negative complement (tau - 1) * v_max - raw so every component is
minimized on the same footing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ContractError, DegenerateTimestepError
from .trajectory import TrajectoryPoint, TrajectorySequence, V_MAX_MPS, V_MIN_MPS

SIGN_EPS = 1e-9


class ObjectiveId(Enum):
    L1_DISTANCE_FEEDBACK = "l1"
    L2_LATERAL_VELOCITY = "l2"
    L3_LONGITUDINAL_VELOCITY = "l3"
    RMSE = "rmse"
    SIGNLOSS = "signloss"

    @property
    def token(self) -> str:
        return self.value

    @classmethod
    def from_token(cls, token: str) -> "ObjectiveId":
        for member in cls:
            if member.value == token:
                return member
        raise ContractError(f"unknown objective token {token!r}")


@dataclass(frozen=True)
class ObjectiveVector:
    ids: tuple[ObjectiveId, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.values):
            raise ContractError(f"{len(self.ids)} ids vs {len(self.values)} values")
        if len(set(self.ids)) != len(self.ids):
            raise ContractError("duplicate objective ids")
        if not self.ids:
            raise ContractError("objective vector must not be empty")
        for oid, v in zip(self.ids, self.values):
            if not math.isfinite(v):
                raise ContractError(f"non-finite value {v} for {oid.token}")

    def value_of(self, oid: ObjectiveId) -> float:
        try:
            return self.values[self.ids.index(oid)]
        except ValueError:
            raise ContractError(f"{oid.token} not in vector") from None

    def as_dict(self) -> dict[str, float]:
        return {oid.token: v for oid, v in zip(self.ids, self.values)}


def l1_distance_feedback(seq: TrajectorySequence, dest: TrajectoryPoint | None = None) -> float:
    """Sum of squared distances from every point to the destination.

    The destination defaults to the sequence's own last point; the
    evaluation pipeline passes the matching ground-truth end point so the
    objective rewards progress toward where the vehicle was meant to go.
    """
    if dest is None:
        dest = seq.points[-1]
    total = 0.0
    for p in seq.points:
        dx = p.x - dest.x
        dy = p.y - dest.y
        total += dx * dx + dy * dy
    return total


def _wrap_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    a = math.fmod(a + math.pi, math.tau)
    if a < 0:
        a += math.tau
    a -= math.pi
    if a == -math.pi:
        a = math.pi
    return a


def angular_velocity(p_prev: TrajectoryPoint, p: TrajectoryPoint, p_next: TrajectoryPoint) -> float:
    """Heading change rate at the middle point, wrapped into (-pi, pi] (rad/s)."""
    dt = p.t - p_prev.t
    if dt <= 0:
        if dt == 0:
            raise DegenerateTimestepError("zero dt between consecutive points")
        raise ContractError("timestamps must be strictly increasing")
    h_in = math.atan2(p.x - p_prev.x, p.y - p_prev.y)
    h_out = math.atan2(p_next.x - p.x, p_next.y - p.y)
    return _wrap_angle(h_out - h_in) / dt


def l2_lateral_velocity(seq: TrajectorySequence) -> float:
    """Summed angular-velocity magnitude over interior points (rad/s).

    Magnitudes, not signed rates: a signed sum is unbounded below and would
    reward sustained one-direction turning.
    """
    pts = seq.points
    if len(pts) < 3:
        raise ContractError(f"need at least 3 points, got {len(pts)}")
    total = 0.0
    for i in range(1, len(pts) - 1):
        total += abs(angular_velocity(pts[i - 1], pts[i], pts[i + 1]))
    return total


def l3_longitudinal_velocity(seq: TrajectorySequence) -> float:
    """Summed per-step forward speed, each step clamped to the highway band (m/s)."""
    pts = seq.points
    if len(pts) < 2:
        raise ContractError(f"need at least 2 points, got {len(pts)}")
    total = 0.0
    for i in range(len(pts) - 1):
        dt = pts[i + 1].t - pts[i].t
        if dt <= 0:
            if dt == 0:
                raise DegenerateTimestepError("zero dt between consecutive points")
            raise ContractError("timestamps must be strictly increasing")
        vy = (pts[i + 1].y - pts[i].y) / dt
        total += min(V_MAX_MPS, max(V_MIN_MPS, vy))
    return total


def l3_minimized(seq: TrajectorySequence) -> float:
    """Non-negative minimization form: (tau - 1) * v_max - raw sum."""
    return (len(seq.points) - 1) * V_MAX_MPS - l3_longitudinal_velocity(seq)


def _check_shapes(predicted: Sequence[TrajectorySequence], actual: Sequence[TrajectorySequence]) -> None:
    if len(predicted) != len(actual):
        raise ContractError(f"{len(predicted)} predicted vs {len(actual)} actual sequences")
    if not predicted:
        raise ContractError("empty evaluation set")
    for i, (p, a) in enumerate(zip(predicted, actual)):
        if len(p.points) != len(a.points):
            raise ContractError(f"sequence {i}: {len(p.points)} vs {len(a.points)} points")


def rmse(predicted: Sequence[TrajectorySequence], actual: Sequence[TrajectorySequence]) -> float:
    """Mean Euclidean position error over all sequences and steps (m)."""
    _check_shapes(predicted, actual)
    total = 0.0
    count = 0
    for p_seq, a_seq in zip(predicted, actual):
        for p, a in zip(p_seq.points, a_seq.points):
            total += math.hypot(p.x - a.x, p.y - a.y)
            count += 1
    return total / count


def _sign(v: float) -> int:
    if abs(v) < SIGN_EPS:
        return 0
    return 1 if v > 0 else -1


def signloss(predicted: Sequence[TrajectorySequence], actual: Sequence[TrajectorySequence]) -> float:
    """Lateral-magnitude error scaled up when predicted lateral directions disagree.

    Numerator: mean over points of | |x_pred| - |x_true| |. Denominator:
    count of points whose lateral signs match, floored at 1 so the loss
    stays defined when nothing matches.
    """
    _check_shapes(predicted, actual)
    err = 0.0
    count = 0
    matches = 0
    for p_seq, a_seq in zip(predicted, actual):
        for p, a in zip(p_seq.points, a_seq.points):
            err += abs(abs(p.x) - abs(a.x))
            count += 1
            if _sign(p.x) == _sign(a.x):
                matches += 1
    return (err / count) / max(1, matches)


def assemble(
    ids: Sequence[ObjectiveId],
    predicted: Sequence[TrajectorySequence],
    actual: Sequence[TrajectorySequence],
) -> ObjectiveVector:
    """Build the minimization vector for one evaluated model.

    Per-sequence objectives (l1, l2, minimized l3) are computed on the
    predicted sequences and averaged over the set; l1 measures against
    each ground-truth destination. RMSE and SignLoss compare predicted
    against actual directly.
    """
    if not ids:
        raise ContractError("objective id list must not be empty")
    _check_shapes(predicted, actual)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values)

    values = []
    for oid in ids:
        if oid is ObjectiveId.L1_DISTANCE_FEEDBACK:
            values.append(mean([l1_distance_feedback(p, dest=a.points[-1])
                                for p, a in zip(predicted, actual)]))
        elif oid is ObjectiveId.L2_LATERAL_VELOCITY:
            values.append(mean([l2_lateral_velocity(p) for p in predicted]))
        elif oid is ObjectiveId.L3_LONGITUDINAL_VELOCITY:
            values.append(mean([l3_minimized(p) for p in predicted]))
        elif oid is ObjectiveId.RMSE:
            values.append(rmse(predicted, actual))
        elif oid is ObjectiveId.SIGNLOSS:
            values.append(signloss(predicted, actual))
        else:  # pragma: no cover
            raise ContractError(f"unhandled objective {oid}")
    return ObjectiveVector(tuple(ids), tuple(values))
