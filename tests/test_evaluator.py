import gc
import itertools
import weakref
from dataclasses import fields
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurotraj.analysis import classify_validity
from neurotraj.errors import ContractError
from neurotraj.evaluator import (
    EvaluationResult,
    SurrogateConfig,
    evaluate,
    predict_targets,
    skill_scores,
)
from neurotraj.experiment import PRESETS
from neurotraj.genome import Genome, default_allele_table, random_genome
from neurotraj.objectives import Columns, ObjectiveId, assemble, l3_minimized, rmse
from neurotraj.trajectory import Dataset, generate_scenario, validate_sequence, window_and_split

TABLE = default_allele_table()
IDS = (ObjectiveId.RMSE, ObjectiveId.L2_LATERAL_VELOCITY, ObjectiveId.L3_LONGITUDINAL_VELOCITY)
CFG = SurrogateConfig()


class TestSurrogateConfig:
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

    @pytest.mark.parametrize("quality_seed", range(4))
    def test_bounds_are_reached(self, quality_seed):
        """Over every allele combination of one skill's loci, the other loci
        fixed, the skill's least score is exactly 0 and its greatest exactly 1."""
        cfg = SurrogateConfig(quality_seed=quality_seed)
        base = random_genome(TABLE, Random(quality_seed))
        skills = (((1, 2, 4, 5), 280), ((6, 7, 8), 168), ((9, 10, 11, 12, 13), 1280))
        for skill, (loci, combinations) in enumerate(skills):
            scores = []
            for alleles in itertools.product(*(range(TABLE.counts[locus - 1]) for locus in loci)):
                indices = list(base.indices)
                for locus, allele in zip(loci, alleles):
                    indices[locus - 1] = allele
                scores.append(skill_scores(Genome(tuple(indices)), cfg)[skill])
            assert len(scores) == combinations
            assert (min(scores), max(scores)) == (0.0, 1.0)

    def test_different_quality_seed_changes_landscape(self):
        g = random_genome(TABLE, Random(5))
        other = SurrogateConfig(quality_seed=99)
        assert skill_scores(g, CFG) != skill_scores(g, other)


class TestPredictSequence:
    def test_perfect_skills_identity(self, small_dataset):
        g = random_genome(TABLE, Random(7))
        pred = predict_targets(g, (1.0, 1.0, 0.5), CFG, Columns.of(small_dataset.test[:20, 8:]),
                               "test").rows()
        assert rmse(pred, small_dataset.test[:20, 8:]) == 0.0

    def test_speed_skill_monotone_in_l3(self, small_dataset):
        g = random_genome(TABLE, Random(7))
        targets = small_dataset.validation_targets
        fast = predict_targets(g, (1.0, 1.0, 1.0), CFG, targets, "val").rows()
        slow = predict_targets(g, (1.0, 1.0, 0.0), CFG, targets, "val").rows()
        assert l3_minimized(fast).mean() < l3_minimized(slow).mean()

    def test_predictions_keep_velocity_invariants(self, small_dataset):
        g = random_genome(TABLE, Random(2))
        targets = Columns.of(small_dataset.test[:40, 8:])
        pred = predict_targets(g, skill_scores(g, CFG), CFG, targets, "test").rows()
        validate_sequence(pred, tau=8)

    def test_timestamps_preserved(self, small_dataset):
        g = random_genome(TABLE, Random(0))
        pred = predict_targets(g, (0.2, 0.3, 0.9), CFG, Columns.of(small_dataset.test[:1, 8:]),
                               "test").rows()
        assert pred[0, :, 2].tolist() == small_dataset.test[0, 8:, 2].tolist()

    @settings(max_examples=50, deadline=None)
    @given(genes=st.tuples(*(st.integers(0, c - 1) for c in TABLE.counts)),
           skills=st.tuples(*[st.floats(0.0, 1.0)] * 3))
    def test_predict_split_properties(self, small_dataset, genes, skills):
        g = Genome(genes)
        for split, role in ((small_dataset.validation, "val"), (small_dataset.test, "test")):
            target = split[:, 8:]
            pred = predict_targets(g, skills, CFG, Columns.of(target), role).rows()
            assert pred.shape == target.shape
            assert np.array_equal(pred[..., 2], target[..., 2])
            validate_sequence(pred, tau=8)
            perfect = predict_targets(g, (1.0, 1.0, 0.5), CFG, Columns.of(target), role).rows()
            assert np.array_equal(perfect, target)


class TestEvaluate:
    def test_bit_identical_repeat(self, small_dataset):
        g = random_genome(TABLE, Random(6))
        a = evaluate(g, small_dataset, IDS, CFG)
        b = evaluate(g, small_dataset, IDS, CFG)
        assert a.objectives == b.objectives
        assert a.rmse_validation == b.rmse_validation
        assert a.skills == b.skills

    def test_order_independent(self, small_dataset):
        rng = Random(9)
        genomes = [random_genome(TABLE, rng) for _ in range(4)]
        forward = {g: evaluate(g, small_dataset, IDS, CFG).objectives for g in genomes}
        backward = {g: evaluate(g, small_dataset, IDS, CFG).objectives
                    for g in reversed(genomes)}
        assert forward == backward

    def test_vector_order_matches_ids(self, small_dataset):
        g = random_genome(TABLE, Random(1))
        res = evaluate(g, small_dataset, IDS, CFG)
        assert type(res.objectives) is tuple and len(res.objectives) == len(IDS)
        assert all(type(v) is float for v in res.objectives)
        assert res.objectives[IDS.index(ObjectiveId.RMSE)] == res.rmse_validation

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
        targets = small_dataset.test_targets
        a = predict_targets(g, skills, CFG, targets, "test").rows()
        assert np.array_equal(a, predict_targets(g, skills, CFG, targets, "test").rows())
        assert not np.array_equal(a, predict_targets(g, skills, CFG, targets, "val").rows())

    def test_values_are_python_floats(self, small_dataset):
        # numpy scalars would be persisted as "np.float64(...)" by repr().
        g = random_genome(TABLE, Random(6))
        res = evaluate(g, small_dataset, tuple(ObjectiveId), CFG)
        assert all(type(v) is float for v in res.objectives)
        assert type(res.rmse_validation) is float
        predicted = predict_targets(g, res.skills, CFG, small_dataset.test_targets, "test").rows()
        assert all(type(v) is float for v in classify_validity(predicted).measured)

    @pytest.mark.parametrize("ids, calls", [
        (IDS, 0),
        ((ObjectiveId.L2_LATERAL_VELOCITY, ObjectiveId.L3_LONGITUDINAL_VELOCITY), 1),
    ])
    def test_validation_rmse_computed_once(self, small_dataset, monkeypatch, ids, calls):
        import neurotraj.evaluator as evaluator_mod

        g = random_genome(TABLE, Random(6))
        predicted = predict_targets(g, skill_scores(g, CFG), CFG, small_dataset.validation_targets,
                                    "val").rows()
        expected = rmse(predicted, small_dataset.validation[:, small_dataset.tau:])
        counted = []

        def counting_rmse(*args):
            counted.append(1)
            return rmse(*args)

        monkeypatch.setattr(evaluator_mod, "rmse", counting_rmse)
        assert evaluate(g, small_dataset, ids, CFG).rmse_validation == expected
        assert len(counted) == calls

    def test_empty_split_rejected(self, small_dataset):
        empty = Dataset(train=small_dataset.train, validation=small_dataset.validation[:0],
                        test=small_dataset.test, seed=0)
        g = random_genome(TABLE, Random(1))
        with pytest.raises(ContractError):
            evaluate(g, empty, IDS, CFG)


# Every preset's objective tuple, then all five objectives.
ID_TUPLES = list(dict.fromkeys(tuple(ObjectiveId.from_token(t) for t in entry["objectives"])
                               for entry in PRESETS.values())) + [tuple(ObjectiveId)]
GENES = st.tuples(*(st.integers(0, c - 1) for c in TABLE.counts))


@pytest.fixture(scope="module")
def scenario_pair():
    """Datasets of a 30 s and a 150 s scenario."""
    return tuple(window_and_split(generate_scenario(duration_s=d, lane_change_rate=0.03, seed=11),
                                  tau=8, seed=11) for d in (30.0, 150.0))


def reference(genome, data, ids):
    """`evaluate`'s values from the public functions on the split arrays,
    without the terms the dataset keeps."""
    actual = data.validation[:, data.tau:]
    predicted = predict_targets(genome, skill_scores(genome, CFG), CFG, Columns.of(actual),
                                "val").rows()
    values = assemble(ids, predicted, actual)
    if ObjectiveId.RMSE in ids:
        return values, values[ids.index(ObjectiveId.RMSE)]
    return values, rmse(predicted, actual)


class TestDatasetTerms:
    @pytest.mark.parametrize("ids", ID_TUPLES, ids=lambda ids: "+".join(o.token for o in ids))
    @settings(max_examples=20, deadline=None)
    @given(genes=GENES)
    def test_evaluate_equals_public_reference(self, scenario_pair, ids, genes):
        g = Genome(genes)
        first, second = scenario_pair
        # Interleaved, so terms kept for one dataset cannot serve the other.
        for data in (first, second, first):
            result = evaluate(g, data, ids, CFG)
            assert (result.objectives, result.rmse_validation) == reference(g, data, ids)
            predicted = predict_targets(g, result.skills, CFG, data.test_targets, "test")
            fresh = Columns.of(data.test[:, data.tau:])
            assert np.array_equal(predicted.rows(),
                                  predict_targets(g, result.skills, CFG, fresh, "test").rows())

    def test_dataset_freed_after_evaluate(self):
        data = window_and_split(generate_scenario(duration_s=30.0, seed=2), tau=8, seed=2)
        evaluate(random_genome(TABLE, Random(0)), data, tuple(ObjectiveId), CFG)
        assert "validation_targets" in vars(data)
        ref = weakref.ref(data)
        del data
        gc.collect()
        assert ref() is None
