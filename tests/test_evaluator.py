from dataclasses import fields
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurotraj.analysis import classify_validity
from neurotraj.errors import ConfigurationError, ContractError
from neurotraj.evaluator import (
    EvaluationResult,
    SurrogateConfig,
    evaluate,
    predict_split,
    skill_scores,
)
from neurotraj.genome import Genome, default_allele_table, random_genome
from neurotraj.objectives import ObjectiveId, l3_minimized, rmse
from neurotraj.trajectory import Dataset, validate_sequence

TABLE = default_allele_table()
IDS = (ObjectiveId.RMSE, ObjectiveId.L2_LATERAL_VELOCITY, ObjectiveId.L3_LONGITUDINAL_VELOCITY)
CFG = SurrogateConfig()


class TestSurrogateConfig:
    def test_defaults_valid(self):
        assert CFG.noise_scales[2] <= 0.2

    def test_speed_span_cap(self):
        with pytest.raises(ConfigurationError):
            SurrogateConfig(speed_span=0.25)

    def test_scales_positive(self):
        with pytest.raises(ConfigurationError):
            SurrogateConfig(lateral_noise_max_m=0.0)

    def test_round_trip(self):
        assert SurrogateConfig.from_dict(CFG.to_dict()) == CFG


class TestSkillScores:
    def test_deterministic(self):
        g = random_genome(TABLE, Random(3))
        assert skill_scores(g, CFG) == skill_scores(g, CFG)

    def test_in_unit_interval(self):
        rng = Random(8)
        for _ in range(1000):
            s = skill_scores(random_genome(TABLE, rng), CFG)
            assert all(0.0 <= v <= 1.0 for v in s)

    def test_momentum_locus_inert(self):
        rng = Random(4)
        base = random_genome(TABLE, rng)
        for idx in range(4):
            variant = Genome(base.indices[:2] + (idx,) + base.indices[3:])
            assert skill_scores(variant, CFG) == skill_scores(base, CFG)

    def test_span_covers_wide_range(self):
        rng = Random(123)
        mins = [1.0] * 3
        maxs = [0.0] * 3
        for _ in range(10_000):
            s = skill_scores(random_genome(TABLE, rng), CFG)
            for i in range(3):
                mins[i] = min(mins[i], s[i])
                maxs[i] = max(maxs[i], s[i])
        assert all(v <= 0.1 for v in mins)
        assert all(v >= 0.9 for v in maxs)

    def test_different_quality_seed_changes_landscape(self):
        g = random_genome(TABLE, Random(5))
        other = SurrogateConfig(quality_seed=99)
        assert skill_scores(g, CFG) != skill_scores(g, other)


class TestPredictSequence:
    def test_perfect_skills_identity(self, small_dataset):
        g = random_genome(TABLE, Random(7))
        pred = predict_split(g, (1.0, 1.0, 0.5), CFG, small_dataset.test[:20], "test")
        assert rmse(pred, small_dataset.test[:20, 8:]) == 0.0

    def test_speed_skill_monotone_in_l3(self, small_dataset):
        g = random_genome(TABLE, Random(7))
        fast = predict_split(g, (1.0, 1.0, 1.0), CFG, small_dataset.validation, "val")
        slow = predict_split(g, (1.0, 1.0, 0.0), CFG, small_dataset.validation, "val")
        assert l3_minimized(fast).mean() < l3_minimized(slow).mean()

    def test_predictions_keep_velocity_invariants(self, small_dataset):
        g = random_genome(TABLE, Random(2))
        pred = predict_split(g, skill_scores(g, CFG), CFG, small_dataset.test[:40], "test")
        validate_sequence(pred, tau=8)

    def test_timestamps_preserved(self, small_dataset):
        g = random_genome(TABLE, Random(0))
        pred = predict_split(g, (0.2, 0.3, 0.9), CFG, small_dataset.test[:1], "test")
        assert pred[0, :, 2].tolist() == small_dataset.test[0, 8:, 2].tolist()

    @settings(max_examples=50, deadline=None)
    @given(genes=st.tuples(*(st.integers(0, c - 1) for c in TABLE.counts)),
           skills=st.tuples(*[st.floats(0.0, 1.0)] * 3))
    def test_predict_split_properties(self, small_dataset, genes, skills):
        g = Genome(genes)
        for split, role in ((small_dataset.validation, "val"), (small_dataset.test, "test")):
            target = split[:, 8:]
            pred = predict_split(g, skills, CFG, split, role)
            assert pred.shape == target.shape
            assert np.array_equal(pred[..., 2], target[..., 2])
            validate_sequence(pred, tau=8)
            assert np.array_equal(predict_split(g, (1.0, 1.0, 0.5), CFG, split, role), target)


class TestEvaluate:
    def test_bit_identical_repeat(self, small_dataset):
        g = random_genome(TABLE, Random(6))
        a = evaluate(g, small_dataset, IDS, CFG)
        b = evaluate(g, small_dataset, IDS, CFG)
        assert a.objectives.values == b.objectives.values
        assert a.rmse_validation == b.rmse_validation
        assert a.skills == b.skills

    def test_order_independent(self, small_dataset):
        rng = Random(9)
        genomes = [random_genome(TABLE, rng) for _ in range(4)]
        forward = {g: evaluate(g, small_dataset, IDS, CFG).objectives.values for g in genomes}
        backward = {g: evaluate(g, small_dataset, IDS, CFG).objectives.values
                    for g in reversed(genomes)}
        assert forward == backward

    def test_vector_order_matches_ids(self, small_dataset):
        g = random_genome(TABLE, Random(1))
        res = evaluate(g, small_dataset, IDS, CFG)
        assert res.objectives.ids == IDS

    def test_skill_fields_logged(self, small_dataset):
        g = random_genome(TABLE, Random(1))
        res = evaluate(g, small_dataset, IDS, CFG)
        assert res.skills == skill_scores(g, CFG)
        assert res.rmse_validation >= 0.0

    def test_result_holds_validation_fields_only(self):
        assert [f.name for f in fields(EvaluationResult)] == [
            "objectives", "skills", "rmse_validation"]

    def test_test_split_streams_keyed_by_role(self, small_dataset):
        g = random_genome(TABLE, Random(6))
        skills = skill_scores(g, CFG)
        a = predict_split(g, skills, CFG, small_dataset.test, "test")
        assert np.array_equal(a, predict_split(g, skills, CFG, small_dataset.test, "test"))
        assert not np.array_equal(a, predict_split(g, skills, CFG, small_dataset.test, "val"))

    def test_values_are_python_floats(self, small_dataset):
        # numpy scalars would be persisted as "np.float64(...)" by repr().
        g = random_genome(TABLE, Random(6))
        res = evaluate(g, small_dataset, tuple(ObjectiveId), CFG)
        assert all(type(v) is float for v in res.objectives.values)
        assert type(res.rmse_validation) is float
        predicted = predict_split(g, res.skills, CFG, small_dataset.test, "test")
        assert all(type(v) is float for v in classify_validity(predicted).measured)

    def test_empty_split_rejected(self, small_dataset):
        empty = Dataset(train=small_dataset.train, validation=small_dataset.validation[:0],
                        test=small_dataset.test, seed=0)
        g = random_genome(TABLE, Random(1))
        with pytest.raises(ContractError):
            evaluate(g, empty, IDS, CFG)
