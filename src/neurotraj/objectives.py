"""The five trajectory objectives and their assembly into minimization vectors.

A sequence is a (tau, 3) array of (x, y, t) rows. The per-sequence
objectives (l1, l2, l3) reduce the last two axes, so one sequence gives a
scalar and a (P, tau, 3) batch gives one value per window. RMSE and
SignLoss compare a predicted set against the actual one and reduce the
set's axes: SignLoss counts sign matches over the whole set. Each function
also accepts a `trajectory.Columns` and reads the terms the set keeps, so a
set scored many times derives them once.

A predicted `Columns` may be a (G, P, tau) stack of G sets that share the
actual set's timestamps. Every scorer then reduces only the set axes and
gives one value per stacked set, the same value, bit for bit, that the set
alone gives: each set's elements are summed as one contiguous row, as a
single set's are.

All assembled values are finite and >= 0. The longitudinal-velocity
objective is maximized in its raw form; it enters vectors as the
non-negative complement (tau - 1) * v_max - raw so every component is
minimized on the same footing.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ContractError
from .trajectory import V_MAX_MPS, V_MIN_MPS, Columns

# An objective vector: one value per objective, in the order of the run's ids.
Objectives = tuple[float, ...]


class ObjectiveId(Enum):
    # Members are singletons compared by identity, so the identity hash
    # agrees with equality and skips `Enum.__hash__`, which is Python code.
    __hash__ = object.__hash__

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


def l1_distance_feedback(seq, dest=None):
    """Sum of squared distances from every point to the destination.

    The destination row defaults to the sequence's own last point; the
    evaluation pipeline passes the matching ground-truth end points so the
    objective rewards progress toward where the vehicle was meant to go.
    """
    seq = Columns.of(seq)
    dest = seq.dest if dest is None else np.asarray(dest, dtype=float)[..., :2]
    offset = np.empty(seq.x.shape + (2,))
    np.subtract(seq.x, dest[..., :1], out=offset[..., 0])
    np.subtract(seq.y, dest[..., 1:], out=offset[..., 1])
    return np.add.reduce(np.multiply(offset, offset, out=offset), (-2, -1))


def _wrap_angle(a):
    """Wrap into (-pi, pi]: mod(a + pi, tau) - pi, with -pi sent to pi."""
    shifted = a + math.pi
    wrapped = shifted - math.pi
    # Where every shifted value lies in (0, tau), the mod returns it unchanged
    # and no value is -pi, so `wrapped` is already the result, bit for bit.
    # The headings of forward steps differ by less than pi, so predictions
    # always take this path.
    if (wrapped.size and np.minimum.reduce(wrapped, None) > -math.pi
            and np.maximum.reduce(shifted, None) < math.tau):
        return wrapped
    wrapped = np.mod(shifted, math.tau) - math.pi
    return np.where(wrapped == -math.pi, math.pi, wrapped)


def l2_lateral_velocity(seq):
    """Summed angular-velocity magnitude over interior points (rad/s): the
    heading change, wrapped into (-pi, pi], over the incoming step's dt.

    Magnitudes, not signed rates: a signed sum is unbounded below and would
    reward sustained one-direction turning.
    """
    seq = Columns.of(seq)
    if seq.shape[-2] < 3:
        raise ContractError(f"need at least 3 points, got {seq.shape[-2]}")
    heading = np.arctan2(seq.dx, seq.dy)
    # In place on the fresh wrapped array: the same operations as out of place.
    rate = _wrap_angle(heading[..., 1:] - heading[..., :-1])
    np.divide(rate, seq.dt[..., :-1], out=rate)
    return np.add.reduce(np.abs(rate, out=rate), -1)


def l3_longitudinal_velocity(seq):
    """Summed per-step forward speed, each step clamped to the highway band (m/s)."""
    seq = Columns.of(seq)
    if seq.shape[-2] < 2:
        raise ContractError(f"need at least 2 points, got {seq.shape[-2]}")
    # `np.clip`'s own kernel, without its Python wrappers, in place.
    speed = seq.dy / seq.dt
    np.minimum(np.maximum(speed, V_MIN_MPS, out=speed), V_MAX_MPS, out=speed)
    return np.add.reduce(speed, -1)


def l3_minimized(seq):
    """Non-negative minimization form: (tau - 1) * v_max - raw sum."""
    seq = Columns.of(seq)
    return (seq.shape[-2] - 1) * V_MAX_MPS - l3_longitudinal_velocity(seq)


def _mean(a: np.ndarray) -> np.ndarray:
    """The mean over the last axis: each row summed as `a.mean()` sums a
    1-D array, over its count."""
    return np.add.reduce(a, -1) / a.shape[-1]


def _points(a: np.ndarray) -> np.ndarray:
    """Each set's (P, n) values as one contiguous row."""
    return a.reshape(a.shape[:-2] + (-1,))


def _matched(predicted, actual) -> tuple[Columns, Columns]:
    predicted, actual = Columns.of(predicted), Columns.of(actual)
    if predicted.shape[predicted.x.ndim - actual.x.ndim:] != actual.shape:
        raise ContractError(f"predicted shape {predicted.shape} vs actual {actual.shape}")
    if not predicted.x.size:
        raise ContractError("empty evaluation set")
    return predicted, actual


def rmse(predicted, actual):
    """Mean Euclidean position error over all points of the set (m): a float,
    or a list of one per set of a predicted stack."""
    return _rmse(*_matched(predicted, actual)).tolist()


def _rmse(predicted: Columns, actual: Columns) -> np.ndarray:
    error = predicted.x - actual.x
    return _mean(_points(np.hypot(error, predicted.y - actual.y, out=error)))


def signloss(predicted, actual):
    """Lateral-magnitude error scaled up when predicted lateral directions disagree.

    Numerator: mean over points of | |x_pred| - |x_true| |. Denominator:
    count of points whose lateral signs match, floored at 1 so the loss
    stays defined when nothing matches. A float, or a list of one per set of
    a predicted stack.
    """
    return _signloss(*_matched(predicted, actual)).tolist()


def _signloss(predicted: Columns, actual: Columns) -> np.ndarray:
    error = predicted.abs_x - actual.abs_x
    error = _mean(_points(np.abs(error, out=error)))
    same = predicted.sign_x == actual.sign_x
    matches = np.add.reduce(_points(same), -1, dtype=np.intp)
    return error / np.maximum(matches, 1)


# Each objective's scorer of a matched (predicted, actual) pair, as `assemble`
# describes: one value per predicted set.
_SCORES = {
    ObjectiveId.L1_DISTANCE_FEEDBACK: lambda p, a: _mean(l1_distance_feedback(p, dest=a.dest)),
    ObjectiveId.L2_LATERAL_VELOCITY: lambda p, a: _mean(l2_lateral_velocity(p)),
    ObjectiveId.L3_LONGITUDINAL_VELOCITY: lambda p, a: _mean(l3_minimized(p)),
    ObjectiveId.RMSE: _rmse,
    ObjectiveId.SIGNLOSS: _signloss,
}


def assemble(ids: Sequence[ObjectiveId], predicted, actual):
    """Build the minimization vector for one evaluated model: one finite
    float per id, in the order of `ids`. For a predicted (G, P, tau) stack,
    a list of G such vectors.

    Per-sequence objectives (l1, l2, minimized l3) are computed on the
    predicted sequences and averaged over the set; l1 measures against
    each ground-truth destination. RMSE and SignLoss compare predicted
    against actual directly. A non-finite value of any set raises
    ContractError naming its objective, and nothing is returned.
    """
    if not ids:
        raise ContractError("objective id list must not be empty")
    if len(set(ids)) != len(ids):
        raise ContractError("duplicate objective ids")
    predicted, actual = _matched(predicted, actual)

    # Per objective, its value of each predicted set.
    columns = [_SCORES[oid](predicted, actual).reshape(-1).tolist() for oid in ids]
    for oid, column in zip(ids, columns):
        if not all(map(math.isfinite, column)):
            value = next(v for v in column if not math.isfinite(v))
            raise ContractError(f"non-finite value {value} for {oid.token}")
    vectors = list(zip(*columns))
    return vectors if predicted.x.ndim > actual.x.ndim else vectors[0]
