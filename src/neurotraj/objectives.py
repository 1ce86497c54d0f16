"""The five trajectory objectives and their assembly into minimization vectors.

A sequence is a (tau, 3) array of (x, y, t) rows. The per-sequence
objectives (l1, l2, l3) reduce the last two axes, so one sequence gives a
scalar and a (P, tau, 3) batch gives one value per window. RMSE and
SignLoss compare a predicted set against the actual one and reduce every
axis: SignLoss counts sign matches over the whole set.

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

import numpy as np

from .errors import ContractError, DegenerateTimestepError
from .trajectory import V_MAX_MPS, V_MIN_MPS

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


def _rows(seq) -> np.ndarray:
    seq = np.asarray(seq, dtype=float)
    if seq.ndim < 2 or seq.shape[-1] != 3:
        raise ContractError(f"expected (..., n, 3) rows of (x, y, t), got shape {seq.shape}")
    return seq


def _checked_dt(dt: np.ndarray) -> np.ndarray:
    if np.any(dt == 0):
        raise DegenerateTimestepError("zero dt between consecutive points")
    if np.any(dt < 0):
        raise ContractError("timestamps must be strictly increasing")
    return dt


def l1_distance_feedback(seq, dest=None):
    """Sum of squared distances from every point to the destination.

    The destination row defaults to the sequence's own last point; the
    evaluation pipeline passes the matching ground-truth end points so the
    objective rewards progress toward where the vehicle was meant to go.
    """
    seq = _rows(seq)
    if dest is None:
        dest = seq[..., -1, :]
    offset = seq[..., :2] - np.asarray(dest, dtype=float)[..., None, :2]
    return (offset * offset).sum(axis=(-2, -1))


def _wrap_angle(a):
    """Wrap into (-pi, pi]."""
    a = np.mod(a + math.pi, math.tau) - math.pi
    return np.where(a == -math.pi, math.pi, a)


def angular_velocity(p_prev, p, p_next):
    """Heading change rate at the middle rows, wrapped into (-pi, pi] (rad/s)."""
    p_prev, p, p_next = (np.asarray(q, dtype=float) for q in (p_prev, p, p_next))
    dt = _checked_dt(p[..., 2] - p_prev[..., 2])
    h_in = np.arctan2(p[..., 0] - p_prev[..., 0], p[..., 1] - p_prev[..., 1])
    h_out = np.arctan2(p_next[..., 0] - p[..., 0], p_next[..., 1] - p[..., 1])
    return _wrap_angle(h_out - h_in) / dt


def l2_lateral_velocity(seq):
    """Summed angular-velocity magnitude over interior points (rad/s).

    Magnitudes, not signed rates: a signed sum is unbounded below and would
    reward sustained one-direction turning.
    """
    seq = _rows(seq)
    if seq.shape[-2] < 3:
        raise ContractError(f"need at least 3 points, got {seq.shape[-2]}")
    rates = angular_velocity(seq[..., :-2, :], seq[..., 1:-1, :], seq[..., 2:, :])
    return np.abs(rates).sum(axis=-1)


def l3_longitudinal_velocity(seq):
    """Summed per-step forward speed, each step clamped to the highway band (m/s)."""
    seq = _rows(seq)
    if seq.shape[-2] < 2:
        raise ContractError(f"need at least 2 points, got {seq.shape[-2]}")
    step = np.diff(seq, axis=-2)
    vy = step[..., 1] / _checked_dt(step[..., 2])
    return np.clip(vy, V_MIN_MPS, V_MAX_MPS).sum(axis=-1)


def l3_minimized(seq):
    """Non-negative minimization form: (tau - 1) * v_max - raw sum."""
    seq = _rows(seq)
    return (seq.shape[-2] - 1) * V_MAX_MPS - l3_longitudinal_velocity(seq)


def _matched(predicted, actual) -> tuple[np.ndarray, np.ndarray]:
    predicted, actual = _rows(predicted), _rows(actual)
    if predicted.shape != actual.shape:
        raise ContractError(f"predicted shape {predicted.shape} vs actual {actual.shape}")
    if not predicted.size:
        raise ContractError("empty evaluation set")
    return predicted, actual


def rmse(predicted, actual) -> float:
    """Mean Euclidean position error over all points of the set (m)."""
    predicted, actual = _matched(predicted, actual)
    error = predicted[..., :2] - actual[..., :2]
    return float(np.hypot(error[..., 0], error[..., 1]).mean())


def _sign(x: np.ndarray) -> np.ndarray:
    return np.where(np.abs(x) < SIGN_EPS, 0.0, np.sign(x))


def signloss(predicted, actual) -> float:
    """Lateral-magnitude error scaled up when predicted lateral directions disagree.

    Numerator: mean over points of | |x_pred| - |x_true| |. Denominator:
    count of points whose lateral signs match, floored at 1 so the loss
    stays defined when nothing matches.
    """
    predicted, actual = _matched(predicted, actual)
    x_pred, x_true = predicted[..., 0], actual[..., 0]
    error = np.abs(np.abs(x_pred) - np.abs(x_true)).mean()
    matches = np.count_nonzero(_sign(x_pred) == _sign(x_true))
    return float(error / max(1, matches))


def assemble(ids: Sequence[ObjectiveId], predicted, actual) -> ObjectiveVector:
    """Build the minimization vector for one evaluated model.

    Per-sequence objectives (l1, l2, minimized l3) are computed on the
    predicted sequences and averaged over the set; l1 measures against
    each ground-truth destination. RMSE and SignLoss compare predicted
    against actual directly.
    """
    if not ids:
        raise ContractError("objective id list must not be empty")
    predicted, actual = _matched(predicted, actual)

    values = []
    for oid in ids:
        if oid is ObjectiveId.L1_DISTANCE_FEEDBACK:
            value = l1_distance_feedback(predicted, dest=actual[..., -1, :]).mean()
        elif oid is ObjectiveId.L2_LATERAL_VELOCITY:
            value = l2_lateral_velocity(predicted).mean()
        elif oid is ObjectiveId.L3_LONGITUDINAL_VELOCITY:
            value = l3_minimized(predicted).mean()
        elif oid is ObjectiveId.RMSE:
            value = rmse(predicted, actual)
        elif oid is ObjectiveId.SIGNLOSS:
            value = signloss(predicted, actual)
        else:  # pragma: no cover
            raise ContractError(f"unhandled objective {oid}")
        values.append(float(value))
    return ObjectiveVector(tuple(ids), tuple(values))
