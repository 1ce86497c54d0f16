"""The five trajectory objectives and their assembly into minimization vectors.

A sequence is a (tau, 3) array of (x, y, t) rows. The per-sequence
objectives (l1, l2, l3) reduce the last two axes, so one sequence gives a
scalar and a (P, tau, 3) batch gives one value per window. RMSE and
SignLoss compare a predicted set against the actual one and reduce every
axis: SignLoss counts sign matches over the whole set. Each function also
accepts a `Columns`, which holds a set as its x, y and t columns and keeps
the terms derived from them.

All assembled values are finite and >= 0. The longitudinal-velocity
objective is maximized in its raw form; it enters vectors as the
non-negative complement (tau - 1) * v_max - raw so every component is
minimized on the same footing.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ContractError, DegenerateTimestepError
from .trajectory import V_MAX_MPS, V_MIN_MPS

SIGN_EPS = 1e-9

# An objective vector: one value per objective, in the order of the run's ids.
Objectives = tuple[float, ...]


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


def _steps(a: np.ndarray) -> np.ndarray:
    """`np.diff` along the last axis, without its call overhead."""
    return a[..., 1:] - a[..., :-1]


def _sign(x: np.ndarray) -> np.ndarray:
    return np.where(np.abs(x) < SIGN_EPS, 0.0, np.sign(x))


class Columns:
    """A set of sequences held as its x, y and t columns, each (..., n).

    Every objective accepts a `Columns` wherever it accepts (..., n, 3)
    rows. The terms derived from the columns are computed on first use and
    kept, so a set scored many times (a dataset split's targets) derives
    them once. The columns must not change while the object is in use.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, t: np.ndarray, dt: np.ndarray | None = None):
        self.x, self.y, self.t = x, y, t
        if dt is not None:
            # The checked steps of `t`, taken from a set with the same timestamps.
            self.dt = dt

    @classmethod
    def of(cls, seq) -> "Columns":
        """The columns of (..., n, 3) rows, or `seq` itself if it is already a `Columns`."""
        if isinstance(seq, cls):
            return seq
        seq = _rows(seq)
        return cls(seq[..., 0], seq[..., 1], seq[..., 2])

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of the rows: (..., n, 3)."""
        return self.x.shape + (3,)

    def rows(self) -> np.ndarray:
        """The set as (..., n, 3) rows of (x, y, t)."""
        return np.stack([self.x, self.y, self.t], axis=-1)

    @cached_property
    def dt(self) -> np.ndarray:
        return _checked_dt(_steps(self.t))

    @cached_property
    def dx(self) -> np.ndarray:
        return _steps(self.x)

    @cached_property
    def dy(self) -> np.ndarray:
        return _steps(self.y)

    @cached_property
    def band(self) -> tuple[np.ndarray, np.ndarray]:
        """The least and the greatest longitudinal step of the speed band."""
        return V_MIN_MPS * self.dt, V_MAX_MPS * self.dt

    @cached_property
    def dest(self) -> np.ndarray:
        """(x, y) of each sequence's last point, (..., 2)."""
        return np.stack([self.x[..., -1], self.y[..., -1]], axis=-1)

    @cached_property
    def abs_x(self) -> np.ndarray:
        return np.abs(self.x)

    @cached_property
    def sign_x(self) -> np.ndarray:
        return _sign(self.x)


def l1_distance_feedback(seq, dest=None):
    """Sum of squared distances from every point to the destination.

    The destination row defaults to the sequence's own last point; the
    evaluation pipeline passes the matching ground-truth end points so the
    objective rewards progress toward where the vehicle was meant to go.
    """
    seq = Columns.of(seq)
    dest = seq.dest if dest is None else np.asarray(dest, dtype=float)[..., :2]
    offset = np.stack([seq.x, seq.y], axis=-1) - dest[..., None, :]
    return (offset * offset).sum(axis=(-2, -1))


def _wrap_angle(a):
    """Wrap into (-pi, pi]."""
    a = np.mod(a + math.pi, math.tau) - math.pi
    return np.where(a == -math.pi, math.pi, a)


def _turn_rate(h_in, h_out, dt):
    return _wrap_angle(h_out - h_in) / dt


def angular_velocity(p_prev, p, p_next):
    """Heading change rate at the middle rows, wrapped into (-pi, pi] (rad/s)."""
    p_prev, p, p_next = (np.asarray(q, dtype=float) for q in (p_prev, p, p_next))
    dt = _checked_dt(p[..., 2] - p_prev[..., 2])
    h_in = np.arctan2(p[..., 0] - p_prev[..., 0], p[..., 1] - p_prev[..., 1])
    h_out = np.arctan2(p_next[..., 0] - p[..., 0], p_next[..., 1] - p[..., 1])
    return _turn_rate(h_in, h_out, dt)


def l2_lateral_velocity(seq):
    """Summed angular-velocity magnitude over interior points (rad/s).

    Magnitudes, not signed rates: a signed sum is unbounded below and would
    reward sustained one-direction turning.
    """
    seq = Columns.of(seq)
    if seq.shape[-2] < 3:
        raise ContractError(f"need at least 3 points, got {seq.shape[-2]}")
    dt = seq.dt
    heading = np.arctan2(seq.dx, seq.dy)
    return np.abs(_turn_rate(heading[..., :-1], heading[..., 1:], dt[..., :-1])).sum(axis=-1)


def l3_longitudinal_velocity(seq):
    """Summed per-step forward speed, each step clamped to the highway band (m/s)."""
    seq = Columns.of(seq)
    if seq.shape[-2] < 2:
        raise ContractError(f"need at least 2 points, got {seq.shape[-2]}")
    return np.clip(seq.dy / seq.dt, V_MIN_MPS, V_MAX_MPS).sum(axis=-1)


def l3_minimized(seq):
    """Non-negative minimization form: (tau - 1) * v_max - raw sum."""
    seq = Columns.of(seq)
    return (seq.shape[-2] - 1) * V_MAX_MPS - l3_longitudinal_velocity(seq)


def _matched(predicted, actual) -> tuple[Columns, Columns]:
    predicted, actual = Columns.of(predicted), Columns.of(actual)
    if predicted.shape != actual.shape:
        raise ContractError(f"predicted shape {predicted.shape} vs actual {actual.shape}")
    if not predicted.x.size:
        raise ContractError("empty evaluation set")
    return predicted, actual


def rmse(predicted, actual) -> float:
    """Mean Euclidean position error over all points of the set (m)."""
    predicted, actual = _matched(predicted, actual)
    return float(np.hypot(predicted.x - actual.x, predicted.y - actual.y).mean())


def signloss(predicted, actual) -> float:
    """Lateral-magnitude error scaled up when predicted lateral directions disagree.

    Numerator: mean over points of | |x_pred| - |x_true| |. Denominator:
    count of points whose lateral signs match, floored at 1 so the loss
    stays defined when nothing matches.
    """
    predicted, actual = _matched(predicted, actual)
    error = np.abs(predicted.abs_x - actual.abs_x).mean()
    matches = np.count_nonzero(predicted.sign_x == actual.sign_x)
    return float(error / max(1, matches))


def assemble(ids: Sequence[ObjectiveId], predicted, actual) -> Objectives:
    """Build the minimization vector for one evaluated model: one finite
    float per id, in the order of `ids`.

    Per-sequence objectives (l1, l2, minimized l3) are computed on the
    predicted sequences and averaged over the set; l1 measures against
    each ground-truth destination. RMSE and SignLoss compare predicted
    against actual directly.
    """
    if not ids:
        raise ContractError("objective id list must not be empty")
    if len(set(ids)) != len(ids):
        raise ContractError("duplicate objective ids")
    predicted, actual = _matched(predicted, actual)

    values = []
    for oid in ids:
        if oid is ObjectiveId.L1_DISTANCE_FEEDBACK:
            value = l1_distance_feedback(predicted, dest=actual.dest).mean()
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
        if not math.isfinite(value):
            raise ContractError(f"non-finite value {value} for {oid.token}")
        values.append(float(value))
    return tuple(values)
