import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BreedingLog, RecordingEval, vals_dominate, vec
import neurotraj.genome as genome_mod
from neurotraj.errors import ConfigurationError, ContractError
from neurotraj.genome import GeneticOperators, Genome, default_allele_table, random_genome
from neurotraj.moead import (
    MoeadState,
    archive_insert,
    build_neighborhoods,
    init_state,
    lattice_resolution_for,
    moead_step,
    simplex_lattice,
    tchebycheff,
    update_ideal,
)
from neurotraj.nsga2 import Individual, dominates, scored

TABLE = default_allele_table()


class TestSimplexLattice:
    def test_batch_population_size(self):
        assert simplex_lattice(3, 8).size == 45

    def test_minimal_two_objective_lattice(self):
        lattice = simplex_lattice(2, 1)
        assert lattice.weights == ((0.0, 1.0), (1.0, 0.0))

    def test_small_three_objective_lattice(self):
        lattice = simplex_lattice(3, 2)
        assert lattice.size == 6
        for w in lattice.weights:
            assert abs(sum(w) - 1.0) <= 1e-12

    def test_cardinality_formula(self):
        for h in range(1, 13):
            assert simplex_lattice(2, h).size == h + 1
            assert simplex_lattice(3, h).size == (h + 1) * (h + 2) // 2

    def test_vectors_distinct_and_on_grid(self):
        lattice = simplex_lattice(3, 5)
        assert len(set(lattice.weights)) == lattice.size
        for w in lattice.weights:
            for c in w:
                assert abs(c * 5 - round(c * 5)) <= 1e-12

    def test_lexicographic_order(self):
        lattice = simplex_lattice(3, 3)
        assert list(lattice.weights) == sorted(lattice.weights)

    def test_unsupported_m_rejected(self):
        with pytest.raises(ConfigurationError):
            simplex_lattice(4, 3)
        with pytest.raises(ConfigurationError):
            simplex_lattice(3, 0)

    def test_equals_nested_loops(self):
        """The weights equal, with `==`, those of one nested loop per m."""
        def nested(m, h):
            if m == 2:
                return tuple((i / h, (h - i) / h) for i in range(h + 1))
            return tuple((i / h, j / h, (h - i - j) / h)
                         for i in range(h + 1) for j in range(h - i + 1))

        for m in (2, 3):
            for h in range(1, 61):
                assert simplex_lattice(m, h).weights == nested(m, h), (m, h)

    def test_resolution_for_population(self):
        assert lattice_resolution_for(3, 45) == 8
        assert lattice_resolution_for(3, 15) == 4
        assert lattice_resolution_for(3, 14) == 4  # snaps up to 15
        assert lattice_resolution_for(2, 45) == 44


class TestNeighborhoods:
    def test_t1_is_self(self):
        lattice = simplex_lattice(3, 4)
        nbhd = build_neighborhoods(lattice, 1)
        assert all(nbhd[i] == (i,) for i in range(lattice.size))

    def test_t_equals_n_full_permutation(self):
        lattice = simplex_lattice(2, 6)
        nbhd = build_neighborhoods(lattice, lattice.size)
        for b in nbhd:
            assert sorted(b) == list(range(lattice.size))

    def test_batch_neighborhood_size(self):
        lattice = simplex_lattice(3, 8)
        nbhd = build_neighborhoods(lattice, 7)
        for i, b in enumerate(nbhd):
            assert len(b) == 7
            assert i in b

    def test_distance_ties_broken_by_lower_index(self):
        lattice = simplex_lattice(2, 4)
        nbhd = build_neighborhoods(lattice, 3)
        # weights are evenly spaced on a line; the two equidistant
        # neighbors of an interior point resolve to the lower index first
        assert nbhd[2] == (2, 1, 3)

    @pytest.mark.parametrize("m, population", [(2, 2), (2, 15), (2, 45), (3, 3), (3, 15),
                                               (3, 45), (3, 100)])
    def test_matches_loop_reference(self, m, population):
        lattice = simplex_lattice(m, lattice_resolution_for(m, population))
        for t in sorted({1, 2, 7, lattice.size} & set(range(1, lattice.size + 1))):
            expected = []
            for wi in lattice.weights:
                dists = sorted((sum((a - b) ** 2 for a, b in zip(wi, wj)), j)
                               for j, wj in enumerate(lattice.weights))
                expected.append(tuple(j for _, j in dists[:t]))
            got = build_neighborhoods(lattice, t)
            assert got == expected
            assert all(type(j) is int for nbhd in got for j in nbhd)


class TestTchebycheff:
    def test_at_ideal_point_zero(self):
        f = vec(("rmse", "l2"), (1.0, 2.0))
        assert tchebycheff(f, (0.5, 0.5), (1.0, 2.0)) == 0.0

    def test_max_of_weighted_gaps(self):
        f = vec(("rmse", "l2"), (2.0, 4.0))
        assert tchebycheff(f, (0.5, 0.5), (0.0, 0.0)) == 2.0

    def test_zero_weight_masks_component(self):
        f = vec(("rmse", "l2"), (5.0, 100.0))
        assert tchebycheff(f, (1.0, 0.0), (0.0, 0.0)) == 5.0

    def test_dimension_mismatch_rejected(self):
        f = vec(("rmse", "l2"), (1.0, 2.0))
        with pytest.raises(ContractError):
            tchebycheff(f, (1.0,), (0.0, 0.0))


class TestUpdateIdeal:
    def test_better_everywhere_replaces(self):
        f = vec(("rmse", "l2"), (0.5, 1.0))
        assert update_ideal((1.0, 2.0), f) == (0.5, 1.0)

    def test_equal_unchanged(self):
        f = vec(("rmse", "l2"), (1.0, 2.0))
        assert update_ideal((1.0, 2.0), f) == (1.0, 2.0)

    def test_componentwise_min(self):
        f = vec(("rmse", "l2"), (3.0, 2.0))
        assert update_ideal((1.0, 5.0), f) == (1.0, 2.0)


class TestArchive:
    def test_dominated_candidate_rejected(self):
        archive = [Individual(genome=Genome((0,) * 13), objectives=vec(("rmse", "l2"), (1, 1)))]
        cand = Individual(genome=Genome((1,) + (0,) * 12), objectives=vec(("rmse", "l2"), (2, 2)))
        archive_insert(archive, cand)
        assert len(archive) == 1

    def test_candidate_removes_dominated_members(self):
        archive = [
            Individual(genome=Genome((0,) * 13), objectives=vec(("rmse", "l2"), (3, 3))),
            Individual(genome=Genome((1,) + (0,) * 12), objectives=vec(("rmse", "l2"), (1, 5))),
        ]
        cand = Individual(genome=Genome((2,) + (0,) * 12), objectives=vec(("rmse", "l2"), (2, 2)))
        archive_insert(archive, cand)
        values = {i.objectives for i in archive}
        assert values == {(1.0, 5.0), (2.0, 2.0)}

    def test_exact_duplicate_is_noop(self):
        member = Individual(genome=Genome((0,) * 13), objectives=vec(("rmse", "l2"), (1, 1)))
        archive = [member]
        dup = Individual(genome=Genome((0,) * 13), objectives=vec(("rmse", "l2"), (1, 1)))
        archive_insert(archive, dup)
        assert archive == [member]

    def test_equal_values_different_genome_kept(self):
        archive = [Individual(genome=Genome((0,) * 13), objectives=vec(("rmse", "l2"), (1, 1)))]
        cand = Individual(genome=Genome((1,) + (0,) * 12), objectives=vec(("rmse", "l2"), (1, 1)))
        archive_insert(archive, cand)
        assert len(archive) == 2

    @settings(deadline=None)
    @given(data=st.data(), tokens=st.sampled_from((("rmse", "l2"), ("rmse", "l1", "l3"))))
    def test_any_insert_sequence_keeps_a_nondominated_archive(self, data, tokens):
        # Few genes and grid values, so that ties and exact repeats are common.
        candidates = data.draw(st.lists(st.tuples(
            st.integers(0, 2), st.tuples(*[st.sampled_from((0.0, 0.5, 1.0, 2.0))] * len(tokens))),
            min_size=1, max_size=30))
        archive = []
        for gene, values in candidates:
            archive_insert(archive, Individual(genome=Genome((gene,) + (0,) * 12),
                                               objectives=vec(tokens, values)))
        members = [m.objectives for m in archive]
        assert not any(vals_dominate(a, b) for a in members for b in members)
        # Every candidate is covered: a member is at least as good everywhere.
        assert all(any(all(x <= y for x, y in zip(kept, values)) for kept in members)
                   for _, values in candidates)

        member = data.draw(st.sampled_from(archive))
        before = list(archive)
        archive_insert(archive, Individual(genome=Genome(member.genome.indices),
                                           objectives=vec(tokens, member.objectives)))
        assert len(archive) == len(before)
        assert all(a is b for a, b in zip(archive, before))


def two_pass_archive_insert(archive, candidate):
    """`archive_insert` as two passes over the archive through `dominates`:
    the reference for the one-pass form."""
    for member in archive:
        if dominates(member.objectives, candidate.objectives):
            return
        if (member.genome.indices == candidate.genome.indices
                and member.objectives == candidate.objectives):
            return
    archive[:] = [m for m in archive if not dominates(candidate.objectives, m.objectives)]
    archive.append(candidate)


# Few genes and grid values with both zeros, so that equal objectives,
# signed-zero ties and same-genome repeats are common.
TIE_VALUES = st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0))


class TestArchiveAgainstTwoPassReference:
    @settings(deadline=None)
    @given(data=st.data(), m=st.sampled_from((2, 3)))
    def test_same_members_in_the_same_order(self, data, m):
        entries = st.tuples(st.integers(0, 2), st.tuples(*[TIE_VALUES] * m))
        start = [Individual(genome=Genome((gene,) + (0,) * 12), objectives=values)
                 for gene, values in data.draw(st.lists(entries, max_size=8))]
        one_pass, two_pass = list(start), list(start)
        for gene, values in data.draw(st.lists(entries, min_size=1, max_size=30)):
            if one_pass and data.draw(st.booleans()):
                # A copy or the very object of a member offered again.
                member = data.draw(st.sampled_from(one_pass))
                candidate = data.draw(st.sampled_from((
                    member, Individual(genome=Genome(member.genome.indices),
                                       objectives=member.objectives))))
            else:
                candidate = Individual(genome=Genome((gene,) + (0,) * 12), objectives=values)
            archive_insert(one_pass, candidate)
            two_pass_archive_insert(two_pass, candidate)
            assert [id(x) for x in one_pass] == [id(x) for x in two_pass]


def rescoring_moead_step(state, lattice, neighborhoods, evaluate_fn, ops, rng, replacement_log=None):
    """`moead_step` scoring every incumbent afresh at every comparison, with
    the two-pass archive: the reference for kept incumbent scores."""
    for i in range(lattice.size):
        nbhd = neighborhoods[i]
        k = rng.choice(nbhd)
        l = rng.choice(nbhd)
        while l == k and len(set(nbhd)) > 1:
            l = rng.choice(nbhd)
        children = ops.offspring(state.solutions[k].genome, state.solutions[l].genome, rng)
        child = scored(children[:1], evaluate_fn)[0]

        state.ideal = update_ideal(state.ideal, child.objectives)
        for j in nbhd:
            g_child = tchebycheff(child.objectives, lattice.weights[j], state.ideal)
            g_incumbent = tchebycheff(state.solutions[j].objectives, lattice.weights[j], state.ideal)
            if g_child <= g_incumbent:
                if replacement_log is not None:
                    replacement_log.append((g_child, g_incumbent))
                state.solutions[j] = child
        two_pass_archive_insert(state.archive, child)
    return state


def grid_eval(m, values):
    """Objectives drawn per genome from `values`, the same on every call."""
    def objectives(genome):
        rng = Random(hash(genome.indices))
        return tuple(rng.choice(values) for _ in range(m))

    return lambda genomes: [objectives(g) for g in genomes]


def members(individuals):
    return [(i.genome.indices, i.objectives) for i in individuals]


class TestStepAgainstRescoringReference:
    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from((2, 3)), resolution=st.integers(2, 8), t=st.integers(1, 7),
           seed=st.integers(0, 2 ** 32), values=st.sampled_from((
               (0.0, -0.0, 0.5, 1.0, 2.0), (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
               tuple(i / 7 for i in range(50)))))
    def test_three_generations_equal(self, m, resolution, t, seed, values):
        lattice = simplex_lattice(m, resolution)
        nbhd = build_neighborhoods(lattice, min(t, lattice.size))
        ops = GeneticOperators(table=TABLE)
        eval_fn = grid_eval(m, values)
        start = init_state(lattice, eval_fn, ops, Random(seed))
        kept, rescored = (MoeadState(list(start.solutions), start.ideal, list(start.archive))
                          for _ in range(2))
        kept_log, rescored_log = [], []
        kept_rng, rescored_rng = Random(seed + 1), Random(seed + 1)
        for _ in range(3):
            moead_step(kept, lattice, nbhd, eval_fn, ops, kept_rng, replacement_log=kept_log)
            rescoring_moead_step(rescored, lattice, nbhd, eval_fn, ops, rescored_rng,
                                 replacement_log=rescored_log)
            # Compared as repr, which tells -0.0 from 0.0.
            assert repr(members(kept.solutions)) == repr(members(rescored.solutions))
            assert repr(kept.ideal) == repr(rescored.ideal)
            assert repr(members(kept.archive)) == repr(members(rescored.archive))
            assert repr(kept_log) == repr(rescored_log)


def synth_eval(seed_offset=0):
    cache = {}

    def eval_fn(genomes):
        for genome in genomes:
            if genome.indices not in cache:
                r = Random((hash(genome.indices) ^ seed_offset) & 0xFFFFF)
                cache[genome.indices] = (r.uniform(0, 5), r.uniform(0, 5))
        return [vec(("rmse", "l2"), cache[g.indices]) for g in genomes]

    return eval_fn


class TestStep:
    def _setup(self, h=5, t=3, seed=2):
        lattice = simplex_lattice(2, h)
        nbhd = build_neighborhoods(lattice, t)
        ops = GeneticOperators(table=TABLE)
        rng = Random(seed)
        eval_fn = synth_eval()
        state = init_state(lattice, eval_fn, ops, rng)
        return state, lattice, nbhd, eval_fn, ops, rng

    def test_identical_solutions_zero_mutation_is_noop(self, monkeypatch):
        monkeypatch.setattr(genome_mod, "MUTATION_RATE", 0.0)
        lattice = simplex_lattice(2, 4)
        nbhd = build_neighborhoods(lattice, 3)
        ops = GeneticOperators(table=TABLE)
        g = Genome((1, 2, 0, 1, 3, 0, 2, 4, 1, 0, 3, 2, 4))
        obj = vec(("rmse", "l2"), (1.0, 2.0))
        state = MoeadState(
            solutions=[Individual(genome=g, objectives=obj) for _ in range(lattice.size)],
            ideal=(1.0, 2.0),
            archive=[Individual(genome=g, objectives=obj)],
        )
        eval_fn = lambda genomes: [obj for _ in genomes]
        moead_step(state, lattice, nbhd, eval_fn, ops, Random(4))
        assert all(i.genome == g and i.objectives == (1.0, 2.0) for i in state.solutions)
        assert len(state.archive) == 1

    def test_archive_nondominated_after_steps(self):
        state, lattice, nbhd, eval_fn, ops, rng = self._setup()
        for _ in range(5):
            moead_step(state, lattice, nbhd, eval_fn, ops, rng)
            for a in state.archive:
                for b in state.archive:
                    if a is not b:
                        assert not vals_dominate(a.objectives, b.objectives)

    def test_ideal_is_lower_bound_of_all_evaluations(self):
        seen = []
        base = synth_eval()

        def tracking_eval(genomes):
            objs = base(genomes)
            seen.extend(objs)
            return objs

        lattice = simplex_lattice(2, 5)
        nbhd = build_neighborhoods(lattice, 3)
        ops = GeneticOperators(table=TABLE)
        rng = Random(6)
        state = init_state(lattice, tracking_eval, ops, rng)
        for _ in range(4):
            moead_step(state, lattice, nbhd, tracking_eval, ops, rng)
        for j in range(2):
            assert state.ideal[j] <= min(v[j] for v in seen) + 1e-12

    def test_replacements_never_worsen_scalar_at_decision_time(self):
        state, lattice, nbhd, eval_fn, ops, rng = self._setup(seed=9)
        log = []
        for _ in range(4):
            moead_step(state, lattice, nbhd, eval_fn, ops, rng, replacement_log=log)
        assert log, "expected at least one replacement"
        for g_child, g_incumbent in log:
            assert g_child <= g_incumbent

    def test_deterministic_per_seed(self):
        a_state, lattice, nbhd, _, ops, _ = self._setup(seed=3)
        b_state, _, _, _, _, _ = self._setup(seed=3)
        eval_fn = synth_eval()
        moead_step(a_state, lattice, nbhd, eval_fn, ops, Random(8))
        moead_step(b_state, lattice, nbhd, eval_fn, ops, Random(8))
        assert [i.objectives for i in a_state.solutions] == \
               [i.objectives for i in b_state.solutions]


class TestScoring:
    """The engine scores its lattice population in one `evaluate_fn` call, then
    each genome it breeds for a subproblem in a call of its own, in draw order."""

    def test_init_state_and_step_score_once_per_subproblem(self):
        lattice = simplex_lattice(2, 7)
        nbhd = build_neighborhoods(lattice, 3)
        evaluate_fn = RecordingEval()
        ops = BreedingLog(GeneticOperators(table=TABLE))
        state = init_state(lattice, evaluate_fn, ops, Random(3))
        rng = Random(3)
        assert evaluate_fn.calls == [[random_genome(TABLE, rng) for _ in range(lattice.size)]]
        for _ in range(2):
            evaluate_fn.calls.clear()
            evaluate_fn.genomes.clear()
            ops.children.clear()
            moead_step(state, lattice, nbhd, evaluate_fn, ops, Random(4))
            # Each subproblem breeds a pair and scores its first child only, alone.
            assert len(evaluate_fn.genomes) == lattice.size
            assert evaluate_fn.calls == [[child] for child in ops.children[::2]]
