import gc
import hashlib
import itertools
import math
import pickle
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import predict_one, validate_sequence
from neurotraj.analysis import classify_validity
from neurotraj.errors import ContractError
from neurotraj import objectives
from neurotraj.evaluator import (
    _noise,
    _skill_table,
    _thread,
    evaluate,
    evaluate_all,
    skill_scores,
    validation_rmse,
)
from neurotraj.experiment import (
    PRESETS,
    DatasetConfig,
    FrontEntry,
    _front_entries,
    build_dataset,
    execute_run,
    preset_config,
    scenario_dataset,
)
from neurotraj.genome import Genome, default_allele_table, random_genome
from neurotraj.nsga2 import Individual
from neurotraj.objectives import ObjectiveId, assemble, l3_minimized, rmse
from neurotraj.trajectory import (
    TAU,
    Columns,
    Dataset,
    generate_scenario,
    window_and_split,
)

TABLE = default_allele_table()
IDS = (ObjectiveId.RMSE, ObjectiveId.L2_LATERAL_VELOCITY, ObjectiveId.L3_LONGITUDINAL_VELOCITY)
NO_RMSE = (ObjectiveId.L2_LATERAL_VELOCITY, ObjectiveId.L3_LONGITUDINAL_VELOCITY)


def front_entries(genomes, data, ids):
    """The final-front entries of `genomes` as a run searching `ids` on
    `data` writes them."""
    members = [Individual(genome=g, objectives=evaluate(g, data, ids)) for g in genomes]
    return _front_entries(members, data, ids)


def front_entry(genome, data, ids):
    return front_entries([genome], data, ids)[0]


class TestSkillScores:
    def test_deterministic(self):
        g = random_genome(TABLE, Random(3))
        assert skill_scores(g) == skill_scores(g)

    def test_in_unit_interval(self):
        rng = Random(8)
        for _ in range(1000):
            s = skill_scores(random_genome(TABLE, rng))
            assert all(0.0 <= v <= 1.0 for v in s)

    def test_momentum_locus_inert(self):
        rng = Random(4)
        base = random_genome(TABLE, rng)
        for idx in range(4):
            variant = Genome(base.indices[:2] + (idx,) + base.indices[3:])
            assert skill_scores(variant) == skill_scores(base)

    def test_span_covers_wide_range(self):
        rng = Random(123)
        mins = [1.0] * 3
        maxs = [0.0] * 3
        for _ in range(10_000):
            s = skill_scores(random_genome(TABLE, rng))
            for i in range(3):
                mins[i] = min(mins[i], s[i])
                maxs[i] = max(maxs[i], s[i])
        assert all(v <= 0.1 for v in mins)
        assert all(v >= 0.9 for v in maxs)

    def test_every_skill_spans_a_range(self):
        # skill_scores divides by the greatest raw score less the least.
        assert all(hi > lo for *_, lo, hi in _skill_table())

    def test_bounds_are_reached(self):
        """Over every allele combination of one skill's loci, the other loci
        fixed, the skill's least score is exactly 0 and its greatest exactly 1."""
        base = random_genome(TABLE, Random(0))
        skills = (((1, 2, 4, 5), 280), ((6, 7, 8), 168), ((9, 10, 11, 12, 13), 1280))
        for skill, (loci, combinations) in enumerate(skills):
            scores = []
            for alleles in itertools.product(*(range(TABLE.counts[locus - 1]) for locus in loci)):
                indices = list(base.indices)
                for locus, allele in zip(loci, alleles):
                    indices[locus - 1] = allele
                scores.append(skill_scores(Genome(tuple(indices)))[skill])
            assert len(scores) == combinations
            assert (min(scores), max(scores)) == (0.0, 1.0)


class TestPredictSequence:
    def test_perfect_skills_identity(self, small_dataset):
        g = random_genome(TABLE, Random(7))
        pred = predict_one(g, (1.0, 1.0, 0.5), Columns.of(small_dataset.test[:20, 8:]),
                               "test").rows()
        assert rmse(pred, small_dataset.test[:20, 8:]) == 0.0

    def test_speed_skill_monotone_in_l3(self, small_dataset):
        g = random_genome(TABLE, Random(7))
        targets = small_dataset.validation_targets
        fast = predict_one(g, (1.0, 1.0, 1.0), targets, "val").rows()
        slow = predict_one(g, (1.0, 1.0, 0.0), targets, "val").rows()
        assert l3_minimized(fast).mean() < l3_minimized(slow).mean()

    def test_predictions_keep_velocity_invariants(self, small_dataset):
        g = random_genome(TABLE, Random(2))
        targets = Columns.of(small_dataset.test[:40, 8:])
        pred = predict_one(g, skill_scores(g), targets, "test").rows()
        validate_sequence(pred)

    def test_timestamps_preserved(self, small_dataset):
        g = random_genome(TABLE, Random(0))
        pred = predict_one(g, (0.2, 0.3, 0.9), Columns.of(small_dataset.test[:1, 8:]),
                               "test").rows()
        assert pred[0, :, 2].tolist() == small_dataset.test[0, 8:, 2].tolist()

    @settings(max_examples=50, deadline=None)
    @given(genes=st.tuples(*(st.integers(0, c - 1) for c in TABLE.counts)),
           skills=st.tuples(*[st.floats(0.0, 1.0)] * 3))
    def test_predict_split_properties(self, small_dataset, genes, skills):
        g = Genome(genes)
        for split, role in ((small_dataset.validation, "val"), (small_dataset.test, "test")):
            target = split[:, 8:]
            pred = predict_one(g, skills, Columns.of(target), role).rows()
            assert pred.shape == target.shape
            assert np.array_equal(pred[..., 2], target[..., 2])
            validate_sequence(pred)
            perfect = predict_one(g, (1.0, 1.0, 0.5), Columns.of(target), role).rows()
            assert np.array_equal(perfect, target)


class TestEvaluate:
    def test_bit_identical_repeat(self, small_dataset):
        g = random_genome(TABLE, Random(6))
        a = evaluate(g, small_dataset, IDS)
        b = evaluate(g, replace(small_dataset), IDS)  # a copy, so not the memo's result
        assert a == b
        for ids in (IDS, NO_RMSE):
            assert front_entry(g, small_dataset, ids) == front_entry(g, replace(small_dataset), ids)

    def test_order_independent(self, small_dataset):
        rng = Random(9)
        genomes = [random_genome(TABLE, rng) for _ in range(4)]
        # Each pass on its own copy, so that both compute and neither reads the memo.
        data = replace(small_dataset)
        forward = {g: evaluate(g, data, IDS) for g in genomes}
        data = replace(small_dataset)
        backward = {g: evaluate(g, data, IDS) for g in reversed(genomes)}
        assert forward == backward

    def test_vector_order_matches_ids(self, small_dataset):
        g = random_genome(TABLE, Random(1))
        res = evaluate(g, small_dataset, IDS)
        assert type(res) is tuple and len(res) == len(IDS)
        assert all(type(v) is float for v in res)
        searched = res[IDS.index(ObjectiveId.RMSE)]
        assert searched == front_entry(g, small_dataset, IDS).rmse_validation
        assert [searched] == validation_rmse([g], [skill_scores(g)], small_dataset)

    def test_skill_fields_logged(self, small_dataset):
        g = random_genome(TABLE, Random(1))
        for ids in (IDS, NO_RMSE):
            entry = front_entry(g, small_dataset, ids)
            assert entry.skills == skill_scores(g)
            assert entry.rmse_validation >= 0.0

    def test_result_holds_validation_fields_only(self, small_dataset):
        """`evaluate` returns the searched validation objectives alone; the
        validation RMSE of an unsearched objective is kept on `FrontEntry`."""
        g = random_genome(TABLE, Random(1))
        assert evaluate(g, small_dataset, NO_RMSE) == reference(g, small_dataset, NO_RMSE)[0]
        assert "rmse_validation" in [f.name for f in fields(FrontEntry)]

    def test_test_split_streams_keyed_by_role(self, small_dataset):
        g = random_genome(TABLE, Random(6))
        skills = skill_scores(g)
        targets = small_dataset.test_targets
        a = predict_one(g, skills, targets, "test").rows()
        assert np.array_equal(a, predict_one(g, skills, targets, "test").rows())
        assert not np.array_equal(a, predict_one(g, skills, targets, "val").rows())

    def test_values_are_python_floats(self, small_dataset):
        # numpy scalars would be persisted as "np.float64(...)" by repr().
        g = random_genome(TABLE, Random(6))
        res = evaluate(g, small_dataset, tuple(ObjectiveId))
        assert all(type(v) is float for v in res)
        for ids in (tuple(ObjectiveId), NO_RMSE):
            assert type(front_entry(g, small_dataset, ids).rmse_validation) is float
        predicted = predict_one(g, skill_scores(g), small_dataset.test_targets, "test").rows()
        assert all(type(v) is float for v in classify_validity(predicted).measured)

    @pytest.mark.parametrize("ids, calls", [(IDS, 0), (NO_RMSE, 1)])
    def test_validation_rmse_computed_once(self, small_dataset, monkeypatch, ids, calls):
        """`evaluate` predicts the validation split once per genome, for its
        objectives alone; a final-front entry predicts it again once per
        member where RMSE is not searched, and takes the searched value
        where it is."""
        import neurotraj.evaluator as evaluator_mod

        # A copy with an empty memo: the shared dataset may already hold the genomes.
        small_dataset = replace(small_dataset)
        rng = Random(6)
        genomes = [random_genome(TABLE, rng) for _ in range(3)]
        expected = []
        for g in genomes:
            predicted = predict_one(g, skill_scores(g), small_dataset.validation_targets,
                                        "val").rows()
            expected.append(rmse(predicted, small_dataset.validation[:, TAU:]))
        drawn = []
        real = evaluator_mod._noise

        def counting_noise(genome, role, *args, **kwargs):
            drawn.append((genome.indices, role))
            return real(genome, role, *args, **kwargs)

        monkeypatch.setattr(evaluator_mod, "_noise", counting_noise)
        for g in genomes:
            evaluate(g, small_dataset, ids)
        assert drawn == [(g.indices, "val") for g in genomes]
        drawn.clear()
        entries = front_entries(genomes, small_dataset, ids)
        assert [e.rmse_validation for e in entries] == expected
        assert [d for d in drawn if d[1] == "val"] == calls * [(g.indices, "val") for g in genomes]
        assert [d for d in drawn if d[1] == "test"] == [(g.indices, "test") for g in genomes]

    def test_landscape_pinned(self):
        """The skill weights and the noise streams stay as they are: one
        genome's skills and its five objectives on the exp6 dataset."""
        g = random_genome(TABLE, Random(0))
        assert g.indices == (3, 3, 0, 1, 4, 3, 3, 6, 2, 3, 2, 1, 4)
        res = evaluate(g, build_dataset(preset_config("exp6")), tuple(ObjectiveId))
        assert skill_scores(g) == (0.843726072454173, 0.8434643022461273, 0.8824064570117562)
        assert res == (6562.185493775429, 0.2471572409792909, 30.85996808822853,
                                  2.8309927573501983, 4.7259848031705645e-05)

    def test_empty_split_rejected(self, small_dataset):
        empty = Dataset(train=small_dataset.train, validation=small_dataset.validation[:0],
                        test=small_dataset.test, seed=0)
        g = random_genome(TABLE, Random(1))
        with pytest.raises(ContractError):
            evaluate(g, empty, IDS)


# Every preset's objective tuple, then all five objectives.
ID_TUPLES = list(dict.fromkeys(tuple(ObjectiveId.from_token(t) for t in entry["objectives"])
                               for entry in PRESETS.values())) + [tuple(ObjectiveId)]
GENES = st.tuples(*(st.integers(0, c - 1) for c in TABLE.counts))


@pytest.fixture(scope="module")
def scenario_pair():
    """Datasets of a 30 s and a 150 s scenario."""
    return tuple(window_and_split(generate_scenario(duration_s=d, lane_change_rate=0.03, seed=11),
                                  seed=11) for d in (30.0, 150.0))


def reference(genome, data, ids):
    """`evaluate`'s values from the public functions on the split arrays,
    without the terms the dataset keeps."""
    actual = data.validation[:, TAU:]
    predicted = predict_one(genome, skill_scores(genome), Columns.of(actual), "val").rows()
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
            objectives = evaluate(g, data, ids)
            assert (objectives, front_entry(g, data, ids).rmse_validation) == reference(g, data, ids)
            skills = skill_scores(g)
            predicted = predict_one(g, skills, data.test_targets, "test")
            fresh = Columns.of(data.test[:, TAU:])
            assert np.array_equal(predicted.rows(), predict_one(g, skills, fresh, "test").rows())

    def test_dataset_freed_after_evaluate(self):
        data = window_and_split(generate_scenario(duration_s=30.0, lane_change_rate=0.0, seed=2),
                                seed=2)
        evaluate(random_genome(TABLE, Random(0)), data, tuple(ObjectiveId))
        assert "validation_targets" in vars(data)
        ref = weakref.ref(data)
        del data
        gc.collect()
        assert ref() is None


class TestNoise:
    @settings(max_examples=40, deadline=None)
    @given(draws=st.lists(st.tuples(GENES, st.sampled_from(("val", "test")),
                                    st.tuples(st.integers(1, 7), st.integers(1, 10)),
                                    st.integers(0, 3)), min_size=2, max_size=6))
    def test_rekeyed_stream_equals_a_fresh_philox(self, draws):
        """Each stream is the one a new Philox keyed by the digest gives. The
        shapes vary, and float32 draws, which read 32-bit halves of words,
        leave the thread's generator mid-buffer between streams, so a word
        or a half left over from the previous draw would show."""
        for genes, role, shape, words in draws:
            key = f"0|{','.join(map(str, genes))}|{role}"
            digest = hashlib.blake2b(key.encode(), digest_size=16).digest()
            fresh = np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "big")))
            assert np.array_equal(_noise(Genome(genes), role, shape), fresh.random(shape))
            _thread.generator.random(words, dtype=np.float32)

    def test_threads_draw_their_own_streams(self, small_dataset):
        """Threads switching every microsecond, each on its own dataset copy
        so that the memo hides nothing, score as one thread does."""
        genomes = [random_genome(TABLE, Random(i)) for i in range(30)]
        expected = [evaluate(g, replace(small_dataset), IDS) for g in genomes]
        got = {}

        def work(k):
            got[k] = [evaluate(g, replace(small_dataset), IDS) for g in genomes]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {k: expected for k in range(4)}


@pytest.fixture()
def predictions(monkeypatch):
    """The genome of each prediction that `evaluate` makes: each draws its
    genome's noise once."""
    import neurotraj.evaluator as evaluator_mod

    genomes = []
    real = evaluator_mod._noise

    def counting(genome, *args, **kwargs):
        genomes.append(genome.indices)
        return real(genome, *args, **kwargs)

    monkeypatch.setattr(evaluator_mod, "_noise", counting)
    return genomes


class TestMemo:
    def test_each_distinct_genome_predicted_once_per_dataset(self, small_dataset, predictions):
        data = replace(small_dataset)
        genomes = [random_genome(TABLE, Random(i % 3)) for i in range(9)]
        results = [evaluate(g, data, IDS) for g in genomes]
        assert sorted(predictions) == sorted({g.indices for g in genomes})
        assert results[3] is results[0]
        copy = replace(small_dataset)
        again = [evaluate(g, copy, list(IDS)) for g in genomes]
        assert len(predictions) == 6
        assert again == results

    def test_other_ids_recompute(self, small_dataset, predictions):
        data = replace(small_dataset)
        g = random_genome(TABLE, Random(5))
        for ids in (IDS, IDS[:2], IDS[::-1], IDS, IDS[:2]):
            assert evaluate(g, data, ids) == evaluate(g, replace(small_dataset), ids)
        assert len(predictions) == 8  # 3 on `data`, one per fresh copy

    def test_pickled_dataset_starts_empty(self, small_dataset, predictions):
        data = replace(small_dataset)
        g = random_genome(TABLE, Random(5))
        first = evaluate(g, data, IDS)
        copy = pickle.loads(pickle.dumps(data))
        assert data.evaluations and copy.evaluations == {}
        assert evaluate(g, copy, IDS) == first
        assert len(predictions) == 2

    def test_failed_evaluation_not_kept(self, small_dataset, monkeypatch, predictions):
        import neurotraj.evaluator as evaluator_mod

        def boom(*args):
            raise ContractError("boom")

        data = replace(small_dataset)
        g = random_genome(TABLE, Random(5))
        with monkeypatch.context() as patch:
            patch.setattr(evaluator_mod, "assemble", boom)
            with pytest.raises(ContractError, match="boom"):
                evaluate(g, data, IDS)
        assert data.evaluations == {}
        assert evaluate(g, data, IDS) == evaluate(g, replace(small_dataset), IDS)
        assert len(predictions) == 3


    def test_request_predicts_each_distinct_missing_genome_once(self, small_dataset, predictions):
        """One request with duplicates and genomes already scored predicts
        each distinct genome missing from the memo once, and returns one
        vector per requested genome, in order."""
        pool = [random_genome(TABLE, Random(i)) for i in range(5)]
        request = [pool[k] for k in (1, 0, 2, 1, 3, 3, 0, 2)]
        expected = [evaluate(g, replace(small_dataset), IDS) for g in request]
        data = replace(small_dataset)
        evaluate(pool[0], data, IDS)
        predictions.clear()
        got = evaluate_all(request, data, IDS)
        assert sorted(predictions) == sorted(g.indices for g in pool[1:4])
        assert got == expected
        assert all(v is data.evaluations[g.indices, IDS] for g, v in zip(request, got))
        assert evaluate_all(request, data, list(IDS)) == got
        assert len(predictions) == 3


    @pytest.mark.parametrize("preset", ["exp1", "exp7"])
    def test_run_reads_every_request_and_predicts_each_genome_once(self, monkeypatch, preset):
        """A run reads each requested genome through `experiment.evaluate`,
        duplicates included, and predicts each distinct genome's validation
        split once, for its objectives, and once more only for its test split."""
        import neurotraj.evaluator as evaluator_mod
        import neurotraj.experiment as experiment_mod

        cfg = preset_config(preset, scale=0.2)
        data = replace(build_dataset(cfg))
        drawn, reads = [], []
        real_noise, real_evaluate = evaluator_mod._noise, experiment_mod.evaluate

        def counting_noise(genome, role, *args, **kwargs):
            drawn.append((genome.indices, role))
            return real_noise(genome, role, *args, **kwargs)

        def counting_evaluate(genome, *args):
            reads.append(genome.indices)
            return real_evaluate(genome, *args)

        monkeypatch.setattr(evaluator_mod, "_noise", counting_noise)
        monkeypatch.setattr(experiment_mod, "evaluate", counting_evaluate)
        record = execute_run(cfg, data, 0)
        assert record.error is None
        scored = [g for g, role in drawn if role == "val"]
        assert sorted(scored) == sorted(set(reads))
        assert len(reads) == cfg.population * (cfg.generations + 1)
        assert sorted(g for g, role in drawn if role == "test") == \
            sorted(tuple(e.genome) for e in record.final_front)


def _pinned_dataset(duration_s):
    return scenario_dataset(DatasetConfig(duration_s=duration_s))


def _ids_of(preset):
    return tuple(ObjectiveId.from_token(t) for t in PRESETS[preset]["objectives"])


def _digest(vectors):
    return hashlib.sha256(repr(vectors).encode()).hexdigest()


# sha256 of the repr of the objective vectors of 300 `Random(0)` genomes,
# each scored alone: on the `search` workload's exp2 (30 s) and exp13
# (150 s) datasets, and on the preset dataset for every preset's objective
# set and for all five objectives.
PINNED = [
    (30.0, _ids_of("exp2"), "95964745689c3e930a77ff08c44972592a518717abb4670106e89bb11e055724"),
    (150.0, _ids_of("exp13"), "1219e8a41bac5f0f76d4f64282808f1bb84aeac496f6ba0d07f93ccef221c84c"),
    (600.0, _ids_of("exp1"), "d6e9a733d6c41a7d9786d09ac77cd5849737c2387325bbb8d99a7dcac47db160"),
    (600.0, _ids_of("exp2"), "7d4c7d350464f0a50d8d5d22f631685483511c37913c161537e73ff5ffb31320"),
    (600.0, _ids_of("exp3"), "160deb7815eae3b44c5362966fc29a023312b43a28ccc0d5ad5bb6a5262a456f"),
    (600.0, _ids_of("exp4"), "7b75293d4ce80ea476dc1a7b403645e73a1b556d4e58aaed61cc5f853737797f"),
    (600.0, _ids_of("exp5"), "c05232e3e6e025fc058812d10204453e7d5f443775cb3b0aa5a23c8c2c8002cf"),
    (600.0, _ids_of("exp10"), "22c862d0b8fd82261af8c630dd6168caa42e73faf8a63afece67e72a825c286d"),
    (600.0, _ids_of("exp12"), "dd700a8ebbee88498dfad6cf43db841cde2b9972025ef02cd8789378b4b7c1f1"),
    (600.0, tuple(ObjectiveId), "42a892aee256dc18e0b7f527ac9f405e69062153282384094617c8663e2acbcb"),
]
PINNED_IDS = [f"{d:g}s-" + "+".join(o.token for o in ids) for d, ids, _ in PINNED]


@pytest.fixture(scope="module")
def pinned_datasets():
    return {d: _pinned_dataset(d) for d in sorted({d for d, _, _ in PINNED})}


def _pinned_genomes():
    rng = Random(0)
    return [random_genome(TABLE, rng) for _ in range(300)]


class TestPinnedValues:
    """Objective vectors pinned bit for bit, whether each genome is scored
    alone or all 300 are scored as stacks."""

    @pytest.mark.parametrize("duration_s, ids, digest", PINNED, ids=PINNED_IDS)
    def test_each_genome_alone(self, pinned_datasets, duration_s, ids, digest):
        data = replace(pinned_datasets[duration_s])
        assert _digest([evaluate(g, data, ids) for g in _pinned_genomes()]) == digest

    @pytest.mark.parametrize("duration_s, ids, digest", PINNED, ids=PINNED_IDS)
    def test_one_request(self, pinned_datasets, duration_s, ids, digest):
        data = replace(pinned_datasets[duration_s])
        assert _digest(evaluate_all(_pinned_genomes(), data, ids)) == digest


# sha256 of the repr of every field of the final-front entries of 40
# `Random(0)` genomes on the preset dataset, for exp2's and exp5's
# objectives (validation RMSE predicted by the judge) and exp6's (searched).
PINNED_JUDGE = [
    ("exp2", "7dceaec8de3e346ca6f90acc3bf8a1e05ce3073ece9797867cce71d465f82bc5"),
    ("exp5", "8e5f80a3b93af82b03cf89be5855e9c72cb235357729a33cdc45d8debb2f5422"),
    ("exp6", "4c5bf75d11889040c0640aeeb86debb2e48d00d0f2fb41de5b9e0501d7b49997"),
]


class TestPinnedJudge:
    @pytest.mark.parametrize("preset, digest", PINNED_JUDGE, ids=[p for p, _ in PINNED_JUDGE])
    def test_front_entries(self, pinned_datasets, preset, digest):
        data = replace(pinned_datasets[600.0])
        entries = front_entries(_pinned_genomes()[:40], data, _ids_of(preset))
        assert _digest([[getattr(e, f.name) for f in fields(FrontEntry)] for e in entries]) == digest

    @settings(max_examples=30, deadline=None)
    @given(pool=st.lists(GENES, min_size=1, max_size=5, unique=True),
           picks=st.lists(st.integers(0, 4), min_size=1, max_size=9),
           block=st.sampled_from([1, 3, None]), which=st.integers(0, 1))
    def test_validation_rmse_is_the_searched_rmse(self, scenario_pair, pool, picks, block, which):
        """With blocks of 1, 3 or the default number of genomes, the judge's
        validation RMSE of each model of a list holding duplicates is, bit
        for bit, the RMSE objective the search scores for it."""
        import neurotraj.evaluator as evaluator_mod

        data = scenario_pair[which]
        genomes = [Genome(pool[k % len(pool)]) for k in picks]
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(evaluator_mod, "_block_size", lambda targets: block)
            got = validation_rmse(genomes, [skill_scores(g) for g in genomes], data)
            searched = evaluate_all(genomes, replace(data), (ObjectiveId.RMSE,))
        assert got == [v for (v,) in searched]
        assert all(type(v) is float for v in got)


class TestStacking:
    @settings(max_examples=30, deadline=None)
    @given(pool=st.lists(GENES, min_size=1, max_size=5, unique=True),
           picks=st.lists(st.integers(0, 4), min_size=1, max_size=9),
           seen=st.lists(st.integers(0, 4), max_size=3),
           block=st.sampled_from([1, 3, None]),
           ids=st.sampled_from(ID_TUPLES), which=st.integers(0, 1))
    def test_stack_scores_each_genome_as_alone(self, scenario_pair, pool, picks, seen, block,
                                               ids, which):
        """With blocks of 1, 3 or the default number of genomes, a request
        holding duplicates and genomes already in the memo gets, bit for
        bit, each genome's vector scored alone, and a final front of those
        genomes gets each member's entry judged alone."""
        import neurotraj.evaluator as evaluator_mod

        base = scenario_pair[which]
        genomes = [Genome(pool[k % len(pool)]) for k in picks]
        alone = {g: evaluate(g, replace(base), ids) for g in genomes}
        entries_alone = {g: front_entry(g, replace(base), ids) for g in genomes}
        data = replace(base)
        for k in seen:
            evaluate(Genome(pool[k % len(pool)]), data, ids)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(evaluator_mod, "_block_size", lambda targets: block)
            got = evaluate_all(genomes, data, ids)
            members = [Individual(genome=g, objectives=v) for g, v in zip(genomes, got)]
            entries = _front_entries(members, data, ids)
        assert got == [alone[g] for g in genomes]
        assert all(type(v) is float for vector in got for v in vector)
        assert entries == [entries_alone[g] for g in genomes]

    @pytest.mark.parametrize("block", [2, None])
    def test_non_finite_block_keeps_none_of_its_vectors(self, small_dataset, monkeypatch, block):
        """A block whose scorer gives NaN for one set raises ContractError
        naming the objective; earlier blocks stay in the memo, that block's
        vectors do not, and later blocks are not scored."""
        import neurotraj.evaluator as evaluator_mod

        data = replace(small_dataset)
        genomes = [random_genome(TABLE, Random(i)) for i in range(5)]
        real = objectives._SCORES[ObjectiveId.L2_LATERAL_VELOCITY]
        calls = []

        def one_nan(p, a):
            values = real(p, a)
            calls.append(values.shape)
            if len(calls) == (2 if block else 1):
                values = values.copy()
                values[-1] = math.nan
            return values

        if block is not None:
            monkeypatch.setattr(evaluator_mod, "_block_size", lambda targets: block)
        monkeypatch.setitem(objectives._SCORES, ObjectiveId.L2_LATERAL_VELOCITY, one_nan)
        with pytest.raises(ContractError, match="non-finite value nan for l2"):
            evaluate_all(genomes, data, IDS)
        kept = genomes[:2] if block else []
        assert sorted(data.evaluations) == sorted((g.indices, IDS) for g in kept)
        assert calls == ([(2,), (2,)] if block else [(5,)])

    def test_non_finite_block_fails_the_run(self, monkeypatch):
        """`execute_run` records a run whose request hits a non-finite value
        as failed, naming the objective."""
        cfg = preset_config("exp1", scale=0.2)
        data = replace(build_dataset(cfg))
        real = objectives._SCORES[ObjectiveId.L2_LATERAL_VELOCITY]

        def one_nan(p, a):
            values = real(p, a).copy()
            values[-1] = math.nan
            return values

        monkeypatch.setitem(objectives._SCORES, ObjectiveId.L2_LATERAL_VELOCITY, one_nan)
        record = execute_run(cfg, data, 0)
        assert record.error == "ContractError: non-finite value nan for l2"
        assert record.final_front == [] and data.evaluations == {}

    @pytest.mark.parametrize("duration_s", [30.0, 600.0])
    def test_scoring_500_genomes_peaks_below_a_megabyte(self, pinned_datasets, duration_s):
        """Blocks keep a request's temporaries small: 500 genomes on the
        `search` exp2 dataset (18 validation windows) or the preset dataset
        (475) peak below 1 MB, the memo's 500 vectors included."""
        data = replace(pinned_datasets[duration_s])
        ids = tuple(ObjectiveId)
        rng = Random(5)
        evaluate(random_genome(TABLE, rng), data, ids)  # derives the split's terms
        genomes = [random_genome(TABLE, rng) for _ in range(500)]
        tracemalloc.start()
        try:
            evaluate_all(genomes, data, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
