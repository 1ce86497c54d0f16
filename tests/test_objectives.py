import math
from random import Random

import numpy as np
import pytest

from conftest import make_seq, straight_seq
from neurotraj.errors import ContractError, DegenerateTimestepError
from neurotraj.objectives import (
    ObjectiveId,
    angular_velocity,
    assemble,
    l1_distance_feedback,
    l2_lateral_velocity,
    l3_longitudinal_velocity,
    l3_minimized,
    rmse,
    signloss,
)
from neurotraj.trajectory import V_MAX_MPS, V_MIN_MPS

TOL = 1e-9


class TestL1:
    def test_all_points_identical_zero(self):
        seq = make_seq([(1.0, 2.0)] * 5)
        assert l1_distance_feedback(seq) == 0.0

    def test_hand_sum(self):
        seq = make_seq([(0, 0), (0, 3), (0, 6)])
        assert abs(l1_distance_feedback(seq) - 45.0) <= TOL

    def test_doubling_quadruples(self):
        seq = make_seq([(0, 0), (1, 3), (2, 7), (0, 11)])
        doubled = make_seq([(0, 0), (2, 6), (4, 14), (0, 22)])
        assert abs(l1_distance_feedback(doubled) - 4.0 * l1_distance_feedback(seq)) <= TOL

    def test_translation_invariant(self):
        seq = make_seq([(0, 0), (1, 3), (2, 7), (0, 11)])
        shifted = make_seq([(10, 100), (11, 103), (12, 107), (10, 111)])
        assert abs(l1_distance_feedback(seq) - l1_distance_feedback(shifted)) <= TOL

    def test_explicit_destination(self):
        seq = make_seq([(0, 0), (0, 3)])
        dest = np.array((0.0, 6.0, 0.5))
        assert abs(l1_distance_feedback(seq, dest=dest) - (36.0 + 9.0)) <= TOL


class TestAngularVelocity:
    def test_collinear_zero(self):
        seq = straight_seq(3)
        assert angular_velocity(*seq) == 0.0

    def test_quarter_turn_rate(self):
        # headings 0 then pi/4 over dt = 0.25 s
        p0, p1, p2 = np.array([(0.0, 0.0, 0.0), (0.0, 1.0, 0.25), (1.0, 2.0, 0.5)])
        assert abs(angular_velocity(p0, p1, p2) - math.pi) <= TOL

    def test_wraparound(self):
        # headings +3.1 then -3.1: difference wraps to ~0.083, not ~6.2
        p0 = np.array((0.0, 0.0, 0.0))
        p1 = np.array((p0[0] + math.sin(3.1), p0[1] + math.cos(3.1), 1.0))
        p2 = np.array((p1[0] + math.sin(-3.1), p1[1] + math.cos(-3.1), 2.0))
        expected = 2.0 * math.pi - 6.2
        assert abs(angular_velocity(p0, p1, p2) - expected) <= 1e-3

    def test_zero_dt_rejected(self):
        p0, p1, p2 = np.array([(0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (0.0, 2.0, 1.25)])
        with pytest.raises(DegenerateTimestepError):
            angular_velocity(p0, p1, p2)


def oracle_l2(seq):
    """Vectorized re-derivation of the summed |angular velocity|."""
    xs, ys, ts = seq.T
    headings = np.arctan2(np.diff(xs), np.diff(ys))
    diffs = np.diff(headings)
    wrapped = np.mod(diffs + np.pi, 2 * np.pi) - np.pi
    wrapped[wrapped == -np.pi] = np.pi
    dts = ts[1:-1] - ts[:-2]
    return float(np.sum(np.abs(wrapped / dts)))


class TestL2:
    def test_straight_line_zero(self):
        assert l2_lateral_velocity(straight_seq(8)) == 0.0

    def test_mirror_invariant(self):
        xys = [(0, 0), (0.5, 7), (1.5, 14), (1.0, 21), (0.0, 28)]
        seq = make_seq(xys)
        mirrored = make_seq([(-x, y) for x, y in xys])
        assert abs(l2_lateral_velocity(seq) - l2_lateral_velocity(mirrored)) <= TOL

    def test_s_curve_matches_oracle(self):
        xys = [(0, 0), (0.4, 7), (1.2, 14), (2.4, 21), (3.1, 28), (3.5, 35), (3.5, 42), (3.5, 49)]
        seq = make_seq(xys)
        assert abs(l2_lateral_velocity(seq) - oracle_l2(seq)) <= TOL

    def test_too_short_rejected(self):
        with pytest.raises(ContractError):
            l2_lateral_velocity(straight_seq(2))

    def test_zero_last_step_rejected(self):
        # The last step's dt divides no heading change, but l2 checks the
        # whole sequence's timestamps, as l3 does.
        seq = straight_seq(4)
        seq[-1, 2] = seq[-2, 2]
        with pytest.raises(DegenerateTimestepError):
            l2_lateral_velocity(seq)


class TestL3:
    def test_constant_speed_sum(self):
        seq = straight_seq(8, v=30.0)
        assert abs(l3_longitudinal_velocity(seq) - 210.0) <= TOL

    def test_fast_step_clamped_to_vmax(self):
        seq = make_seq([(0, 0), (0, 12.5)])  # 50 m/s raw
        assert abs(l3_longitudinal_velocity(seq) - V_MAX_MPS) <= TOL
        assert abs(V_MAX_MPS - 36.11) < 0.005

    def test_zero_forward_motion_clamps_to_floor(self):
        seq = make_seq([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert abs(l3_longitudinal_velocity(seq) - 3 * V_MIN_MPS) <= TOL


class TestL3Minimized:
    def test_all_steps_at_vmax_zero(self):
        seq = straight_seq(8, v=V_MAX_MPS)
        assert abs(l3_minimized(seq)) <= TOL

    def test_all_steps_at_vmin(self):
        seq = straight_seq(8, v=V_MIN_MPS)
        assert abs(l3_minimized(seq) - 7 * (V_MAX_MPS - V_MIN_MPS)) <= TOL
        assert abs(7 * (V_MAX_MPS - V_MIN_MPS) - 97.2) < 0.05

    def test_faster_sequence_strictly_smaller(self):
        slow = straight_seq(8, v=25.0)
        fast = straight_seq(8, v=30.0)
        assert l3_minimized(fast) < l3_minimized(slow)


class TestRmse:
    def test_perfect_prediction_zero(self):
        seq = straight_seq(8)
        assert rmse([seq], [seq]) == 0.0

    def test_three_four_five(self):
        actual = make_seq([(0.0, 0.0)])
        predicted = make_seq([(3.0, 4.0)])
        assert abs(rmse([predicted], [actual]) - 5.0) <= TOL

    def test_mean_of_point_errors(self):
        actual = make_seq([(0, 0), (0, 10)])
        predicted = make_seq([(0, 0), (0, 20)])
        assert abs(rmse([predicted], [actual]) - 5.0) <= TOL

    def test_symmetric(self):
        a = make_seq([(0, 0), (1, 8), (0, 16)])
        b = make_seq([(1, 1), (0, 9), (2, 15)])
        assert abs(rmse([a], [b]) - rmse([b], [a])) <= TOL

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            rmse([straight_seq(8)], [straight_seq(7)])
        with pytest.raises(ContractError):
            rmse([], [])


class TestSignloss:
    def test_perfect_prediction_zero(self):
        seq = make_seq([(1.0, 0), (-2.0, 8)])
        assert signloss([seq], [seq]) == 0.0

    def test_magnitude_match_with_sign_flip_is_zero(self):
        predicted = make_seq([(-2.0, 0.0)])
        actual = make_seq([(2.0, 0.0)])
        assert signloss([predicted], [actual]) == 0.0

    def test_sign_mismatch_keeps_denominator_floor(self):
        predicted = make_seq([(-3.0, 0.0)])
        actual = make_seq([(2.0, 0.0)])
        assert abs(signloss([predicted], [actual]) - 1.0) <= TOL

    def test_all_matching_signs_divides_by_count(self):
        predicted = make_seq([(1.0, 0), (2.0, 8), (3.0, 16), (4.0, 24)])
        actual = make_seq([(2.0, 0), (2.0, 8), (2.0, 16), (2.0, 24)])
        numerator = (1.0 + 0.0 + 1.0 + 2.0) / 4.0
        assert abs(signloss([predicted], [actual]) - numerator / 4.0) <= TOL
        assert signloss([predicted], [actual]) <= numerator


class TestAssemble:
    def _pairs(self):
        rng = Random(5)
        actual, predicted = [], []
        for _ in range(4):
            base = [(rng.uniform(-2, 2), 7.0 * i + rng.uniform(0, 1)) for i in range(8)]
            noisy = [(x + rng.uniform(-0.3, 0.3), y + rng.uniform(-0.5, 0.5)) for x, y in base]
            actual.append(make_seq(base))
            predicted.append(make_seq(noisy))
        return predicted, actual

    def test_order_matches_ids(self):
        predicted, actual = self._pairs()
        ids = (ObjectiveId.RMSE, ObjectiveId.L2_LATERAL_VELOCITY, ObjectiveId.L3_LONGITUDINAL_VELOCITY)
        v = assemble(ids, predicted, actual)
        assert len(v) == 3
        assert v[0] == rmse(predicted, actual)
        assert v[1] == l2_lateral_velocity(predicted).mean()

    def test_perfect_prediction_rmse_component_zero(self):
        _, actual = self._pairs()
        v = assemble((ObjectiveId.RMSE,), actual, actual)
        assert v == (0.0,)

    def test_compositional_oracle(self):
        predicted, actual = self._pairs()
        ids = (ObjectiveId.L1_DISTANCE_FEEDBACK, ObjectiveId.L2_LATERAL_VELOCITY,
               ObjectiveId.L3_LONGITUDINAL_VELOCITY, ObjectiveId.RMSE, ObjectiveId.SIGNLOSS)
        v = assemble(ids, predicted, actual)
        n = len(predicted)
        l1 = sum(l1_distance_feedback(p, dest=a[-1]) for p, a in zip(predicted, actual)) / n
        l2 = sum(l2_lateral_velocity(p) for p in predicted) / n
        l3m = sum(l3_minimized(p) for p in predicted) / n
        expected = (l1, l2, l3m, rmse(predicted, actual), signloss(predicted, actual))
        for got, want in zip(v, expected, strict=True):
            assert abs(got - want) <= TOL

    def test_all_values_finite_nonnegative(self):
        predicted, actual = self._pairs()
        ids = tuple(ObjectiveId)
        v = assemble(ids, predicted, actual)
        assert all(math.isfinite(x) and x >= 0 for x in v)

    def test_empty_ids_rejected(self):
        predicted, actual = self._pairs()
        with pytest.raises(ContractError):
            assemble((), predicted, actual)

    def test_empty_set_rejected(self):
        with pytest.raises(ContractError):
            assemble((ObjectiveId.RMSE,), [], [])

    def test_duplicate_ids_rejected(self):
        predicted, actual = self._pairs()
        with pytest.raises(ContractError, match="duplicate"):
            assemble((ObjectiveId.RMSE, ObjectiveId.RMSE), predicted, actual)

    def test_non_finite_prediction_rejected(self):
        predicted, actual = self._pairs()
        predicted[0][3, 0] = float("nan")
        with pytest.raises(ContractError, match="non-finite"):
            assemble((ObjectiveId.RMSE,), predicted, actual)


def loop_objectives(predicted, actual):
    """The five objectives of a set as per-point loops, the reference for the
    array code: (l1, l2, minimized l3) averaged per window, rmse, signloss."""
    def sign(v):
        return 0 if abs(v) < 1e-9 else (1 if v > 0 else -1)

    l1 = l2 = l3 = err = dist = 0.0
    matches = 0
    pred, true = predicted.tolist(), actual.tolist()
    for p_seq, a_seq in zip(pred, true):
        dest_x, dest_y, _ = a_seq[-1]
        for (px, py, _), (ax, ay, _) in zip(p_seq, a_seq):
            l1 += (px - dest_x) ** 2 + (py - dest_y) ** 2
            dist += math.hypot(px - ax, py - ay)
            err += abs(abs(px) - abs(ax))
            matches += sign(px) == sign(ax)
        for (x0, y0, t0), (x1, y1, t1), (x2, y2, _) in zip(p_seq, p_seq[1:], p_seq[2:]):
            turn = math.atan2(x2 - x1, y2 - y1) - math.atan2(x1 - x0, y1 - y0)
            turn = (turn + math.pi) % math.tau - math.pi
            l2 += abs(math.pi if turn == -math.pi else turn) / (t1 - t0)
        for (_, y0, t0), (_, y1, t1) in zip(p_seq, p_seq[1:]):
            l3 += V_MAX_MPS - min(V_MAX_MPS, max(V_MIN_MPS, (y1 - y0) / (t1 - t0)))
    n, points = len(pred), len(pred) * len(pred[0])
    return l1 / n, l2 / n, l3 / n, dist / points, (err / points) / max(1, matches)


class TestLoopReference:
    def test_batch_matches_per_point_loops(self, small_dataset):
        from neurotraj.evaluator import SurrogateConfig, predict_split
        from neurotraj.genome import default_allele_table, random_genome

        actual = small_dataset.validation[:, 8:]
        rng = Random(11)
        for skills in ((0.1, 0.2, 0.9), (0.7, 0.4, 0.1), (1.0, 1.0, 0.5)):
            genome = random_genome(default_allele_table(), rng)
            predicted = predict_split(genome, skills, SurrogateConfig(), small_dataset.validation,
                                      "val")
            got = assemble(tuple(ObjectiveId), predicted, actual)
            for g, want in zip(got, loop_objectives(predicted, actual)):
                assert abs(g - want) <= 1e-9 * max(1.0, abs(want))


class TestObjectiveVector:
    def test_tokens(self):
        assert [o.token for o in ObjectiveId] == ["l1", "l2", "l3", "rmse", "signloss"]
        assert ObjectiveId.from_token("rmse") is ObjectiveId.RMSE
        with pytest.raises(ContractError):
            ObjectiveId.from_token("nope")
