import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BreedingLog, RecordingEval, SeqRng, brute_force_fronts, vals_dominate, vec
import neurotraj.genome as genome_mod
from neurotraj.errors import ContractError
from neurotraj.genome import GeneticOperators, Genome, default_allele_table, random_genome
from neurotraj.nsga2 import (
    Individual,
    crowding_distance,
    dominates,
    init_population,
    nondominated_sort,
    nsga2_step,
    tournament_select,
)

TABLE = default_allele_table()


def ind(values, tokens=("rmse", "l2")):
    g = Genome((0,) * 13)
    return Individual(genome=g, objectives=vec(tokens[: len(values)], values))


def random_values(rng, m, grid=None):
    if grid:
        return tuple(float(rng.randrange(grid)) for _ in range(m))
    return tuple(rng.uniform(0, 10) for _ in range(m))


class TestDominates:
    def test_strict_improvement_everywhere(self):
        assert dominates(vec(("rmse", "l2", "l3"), (1, 1, 1)), vec(("rmse", "l2", "l3"), (2, 2, 2)))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates(vec(("rmse", "l2"), (1, 1)), vec(("rmse", "l2"), (1, 1)))

    def test_incomparable(self):
        a = vec(("rmse", "l2"), (1, 3))
        b = vec(("rmse", "l2"), (2, 2))
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            dominates(vec(("rmse", "l2"), (1, 1)), vec(("rmse", "l2", "l3"), (2, 2, 2)))

    def test_strict_partial_order_properties(self):
        rng = Random(42)
        vectors = [vec(("rmse", "l2", "l3"), random_values(rng, 3, grid=4)) for _ in range(60)]
        for a in vectors:
            assert not dominates(a, a)
        for a in vectors[:25]:
            for b in vectors[:25]:
                assert not (dominates(a, b) and dominates(b, a))
        for a in vectors[:15]:
            for b in vectors[:15]:
                for c in vectors[:15]:
                    if dominates(a, b) and dominates(b, c):
                        assert dominates(a, c)


def two_matrix_fronts(values):
    """The fronts of `values`, as index lists in release order, peeled from
    a dominance matrix built from both the "better somewhere" and the
    "worse somewhere" matrices: the reference for the one-matrix sort."""
    f = np.array(values, dtype=float)
    first, *rest = f.T
    worse, better = first[:, None] > first, first[:, None] < first
    for col in rest:
        worse |= col[:, None] > col
        better |= col[:, None] < col
    dom = better & ~worse
    counts = dom.sum(0)
    front = np.flatnonzero(counts == 0)
    fronts = []
    while front.size:
        fronts.append(front.tolist())
        below = dom[front]
        counts[front] = -1
        counts -= below.sum(0)
        nxt = np.flatnonzero(counts == 0)
        last = len(front) - 1 - below[::-1, nxt].argmax(0)
        front = nxt[np.argsort(last, kind="stable")]
    return fronts


class TestNondominatedSort:
    def test_identical_vectors_single_front(self):
        pop = [ind((1.0, 2.0)) for _ in range(6)]
        fronts = nondominated_sort(pop)
        assert len(fronts) == 1
        assert all(i.rank == 0 for i in pop)

    def test_chain_gives_singleton_fronts(self):
        pop = [ind((3.0, 3.0)), ind((1.0, 1.0)), ind((2.0, 2.0))]
        fronts = nondominated_sort(pop)
        assert [len(f) for f in fronts] == [1, 1, 1]
        assert [f[0].objectives[0] for f in fronts] == [1.0, 2.0, 3.0]

    def test_matches_brute_force_oracle(self):
        rng = Random(7)
        for _ in range(50):
            m = rng.choice((2, 3))
            size = rng.randint(2, 40)
            tokens = ("rmse", "l2", "l3")[:m]
            values = [random_values(rng, m, grid=rng.choice((4, 6, 0)) or None)
                      for _ in range(size)]
            pop = [Individual(genome=Genome((0,) * 13), objectives=vec(tokens, v)) for v in values]
            tag = {id(member): i for i, member in enumerate(pop)}
            fronts = nondominated_sort(pop)
            got = [sorted(tag[id(i)] for i in front) for front in fronts]
            assert got == brute_force_fronts(values)

    def test_matches_brute_force_oracle_at_bench_size(self):
        # 300 rows of 3 objectives, as the bench sorts, on a 6-point grid:
        # many ties and duplicate rows.
        rng = Random(11)
        values = [random_values(rng, 3, grid=6) for _ in range(300)]
        pop = [Individual(genome=Genome((0,) * 13), objectives=vec(("rmse", "l2", "l3"), v))
               for v in values]
        tag = {id(member): i for i, member in enumerate(pop)}
        fronts = nondominated_sort(pop)
        assert len(set(values)) < len(values)
        assert [sorted(tag[id(i)] for i in front) for front in fronts] == \
            brute_force_fronts(values)
        assert all(i.rank == k for k, front in enumerate(fronts) for i in front)

    @settings(deadline=None)
    @given(data=st.data(), m=st.sampled_from((2, 3)))
    def test_fronts_ranks_and_release_order(self, data, m):
        # A coarse grid gives ties and duplicate rows; arbitrary floats mix in.
        coord = st.sampled_from((0.0, -0.0, 1.0, 2.0, 3.0)) | st.floats(0.0, 3.0)
        rows = data.draw(st.lists(st.tuples(*[coord] * m), min_size=1, max_size=60))
        tokens = ("rmse", "l2", "l3")[:m]
        pop = [Individual(genome=Genome((0,) * 13), objectives=vec(tokens, v)) for v in rows]
        tag = {id(member): i for i, member in enumerate(pop)}
        fronts = [[tag[id(member)] for member in front] for front in nondominated_sort(pop)]
        assert [sorted(front) for front in fronts] == brute_force_fronts(rows)
        assert all(pop[i].rank == k for k, front in enumerate(fronts) for i in front)
        # Release rule: the first front in index order; each later one by the
        # position of a member's last dominator in the previous front, then index.
        assert fronts[0] == sorted(fronts[0])
        for prev, front in zip(fronts, fronts[1:]):
            def release_key(q):
                last = max(pos for pos, d in enumerate(prev) if vals_dominate(rows[d], rows[q]))
                return last, q
            assert front == sorted(front, key=release_key)

    @settings(deadline=None)
    @given(data=st.data(), m=st.sampled_from((2, 3)), grid=st.integers(1, 6))
    def test_equals_two_matrix_reference(self, data, m, grid):
        # Integer grids: duplicate rows and ties in every objective.
        rows = data.draw(st.lists(st.tuples(*[st.integers(-grid, grid)] * m),
                                  min_size=1, max_size=120))
        pop = [Individual(genome=Genome((0,) * 13), objectives=tuple(map(float, v))) for v in rows]
        tag = {id(member): i for i, member in enumerate(pop)}
        fronts = [[tag[id(member)] for member in front] for front in nondominated_sort(pop)]
        assert fronts == two_matrix_fronts(rows)
        rank = {i: k for k, front in enumerate(fronts) for i in front}
        assert [member.rank for member in pop] == [rank[i] for i in range(len(pop))]

    def test_empty_population_rejected(self):
        with pytest.raises(ContractError):
            nondominated_sort([])

    def test_fronts_partition_population(self):
        rng = Random(3)
        pop = [ind(random_values(rng, 2, grid=5)) for _ in range(30)]
        fronts = nondominated_sort(pop)
        assert sum(len(f) for f in fronts) == len(pop)


class TestCrowdingDistance:
    def test_small_front_all_infinite(self):
        front = [ind((1.0, 2.0)), ind((2.0, 1.0))]
        crowding_distance(front)
        assert all(math.isinf(i.crowding) for i in front)

    @settings(deadline=None, max_examples=50)
    @given(m=st.integers(1, 3), size=st.integers(1, 2), data=st.data())
    def test_one_or_two_members_all_infinite(self, m, size, data):
        # Values from a three-point grid, so members tie in some objectives or in all.
        grid = st.sampled_from((0.0, 1.0, 2.5))
        front = [ind(data.draw(st.tuples(*[grid] * m)), ("rmse", "l2", "l3")) for _ in range(size)]
        crowding_distance(front)
        assert [i.crowding for i in front] == [math.inf] * size

    def test_single_objective_middle_gap(self):
        front = [ind((1.0,), ("rmse",)), ind((2.0,), ("rmse",)), ind((10.0,), ("rmse",))]
        crowding_distance(front)
        middle = next(i for i in front if i.objectives[0] == 2.0)
        assert abs(middle.crowding - 1.0) <= 1e-12
        assert math.isinf(front[0].crowding) and math.isinf(front[-1].crowding)

    def test_interior_duplicates_finite(self):
        front = [ind((1.0, 5.0)), ind((3.0, 3.0)), ind((3.0, 3.0)), ind((5.0, 1.0))]
        crowding_distance(front)
        dups = [i for i in front if i.objectives == (3.0, 3.0)]
        assert any(math.isfinite(i.crowding) for i in dups)

    def test_zero_range_objective_skipped(self):
        front = [ind((1.0, 7.0)), ind((2.0, 7.0)), ind((3.0, 7.0))]
        crowding_distance(front)  # must not divide by zero
        middle = next(i for i in front if i.objectives[0] == 2.0)
        assert math.isfinite(middle.crowding)


class TestTournament:
    def test_k1_uniform_reaches_everyone(self):
        pop = [ind((float(i), float(i))) for i in range(5)]
        for i, p in enumerate(pop):
            p.rank = 0
            p.crowding = 1.0
        rng = Random(0)
        seen = {id(tournament_select(pop, 1, rng)) for _ in range(300)}
        assert len(seen) == len(pop)

    def test_lowest_rank_wins(self):
        pop = [ind((1.0, 1.0)), ind((2.0, 2.0)), ind((3.0, 3.0))]
        for i, p in enumerate(pop):
            p.rank = i
            p.crowding = 1.0
        winner = tournament_select(pop, 3, SeqRng([0, 1, 2]))
        assert winner is pop[0]
        winner = tournament_select(pop, 3, SeqRng([2, 1, 0]))
        assert winner is pop[0]

    def test_crowding_breaks_rank_ties(self):
        pop = [ind((1.0, 1.0)) for _ in range(3)]
        for p, c in zip(pop, (float("inf"), 0.5, 0.1)):
            p.rank = 0
            p.crowding = c
        winner = tournament_select(pop, 3, SeqRng([1, 2, 0]))
        assert winner is pop[0]

    def test_draw_order_breaks_remaining_ties(self):
        pop = [ind((1.0, 1.0)) for _ in range(2)]
        for p in pop:
            p.rank = 0
            p.crowding = 1.0
        winner = tournament_select(pop, 2, SeqRng([1, 0]))
        assert winner is pop[1]


class _LookupEval:
    """Deterministic synthetic evaluator keyed by genome."""

    def __init__(self, mapping, default=(10.0, 10.0), tokens=("rmse", "l2")):
        self.mapping = mapping
        self.default = default
        self.tokens = tokens

    def __call__(self, genomes):
        return [vec(self.tokens, self.mapping.get(g.indices, self.default)) for g in genomes]


class TestStep:
    def test_clone_population_fixed_point_with_zero_mutation(self, monkeypatch):
        monkeypatch.setattr(genome_mod, "MUTATION_RATE", 0.0)
        g = Genome((1, 2, 0, 1, 3, 0, 2, 4, 1, 0, 3, 2, 4))
        eval_fn = _LookupEval({g.indices: (1.0, 1.0)})
        ops = GeneticOperators(table=TABLE)
        pop = [Individual(genome=g, objectives=eval_fn([g])[0]) for _ in range(6)]
        nondominated_sort(pop)
        crowding_distance(pop)
        nxt = nsga2_step(pop, eval_fn, ops, Random(3))
        assert len(nxt) == 6
        assert all(i.genome == g for i in nxt)
        assert all(i.objectives == (1.0, 1.0) for i in nxt)

    def test_exact_front_fill(self):
        # Parents form a non-dominated front of size N while every bred
        # child evaluates to a dominated vector, so the elite front must
        # survive intact.
        rng = Random(11)
        parents = [random_genome(TABLE, rng) for _ in range(8)]
        child_eval = lambda genomes: [vec(("rmse", "l2"), (50.0, 50.0)) for _ in genomes]
        ops = GeneticOperators(table=TABLE)
        pop = [Individual(genome=p, objectives=vec(("rmse", "l2"), (float(i), float(8 - i))))
               for i, p in enumerate(parents)]
        for front in nondominated_sort(pop):
            crowding_distance(front)
        nxt = nsga2_step(pop, child_eval, ops, Random(5))
        assert sorted(i.objectives for i in nxt) == \
               sorted((float(i), float(8 - i)) for i in range(8))

    def test_population_size_invariant_and_front_nondominated(self):
        rng = Random(21)
        values = {}

        def eval_fn(genomes):
            for genome in genomes:
                if genome.indices not in values:
                    r = Random(hash(genome.indices) & 0xFFFF)
                    values[genome.indices] = (r.uniform(0, 5), r.uniform(0, 5))
            return [vec(("rmse", "l2"), values[g.indices]) for g in genomes]

        ops = GeneticOperators(table=TABLE)
        pop = init_population(10, eval_fn, ops, rng)
        for _ in range(3):
            pop = nsga2_step(pop, eval_fn, ops, rng)
            assert len(pop) == 10
            front = [i for i in pop if i.rank == 0]
            for a in front:
                for b in front:
                    assert not dominates(a.objectives, b.objectives) or a is b


class TestScoring:
    """The engine scores each genome it breeds for the next population once,
    in draw order, the whole population in one `evaluate_fn` call."""

    def test_init_population_scores_each_drawn_genome(self):
        evaluate_fn = RecordingEval()
        pop = init_population(7, evaluate_fn, GeneticOperators(table=TABLE), Random(2))
        rng = Random(2)
        assert evaluate_fn.calls == [[random_genome(TABLE, rng) for _ in range(7)]]
        assert [i.genome for i in pop] == evaluate_fn.genomes
        assert [i.objectives for i in pop] == [RecordingEval.value(g) for g in evaluate_fn.genomes]

    @pytest.mark.parametrize("n", [6, 7])
    def test_step_scores_the_first_n_children(self, n):
        rng = Random(n)
        pop = init_population(n, RecordingEval(), GeneticOperators(table=TABLE), rng)
        evaluate_fn = RecordingEval()
        ops = BreedingLog(GeneticOperators(table=TABLE))
        nsga2_step(pop, evaluate_fn, ops, rng)
        assert evaluate_fn.calls == [ops.children[:n]]
        # An odd n breeds one child more than it scores: the last pair's second.
        assert len(ops.children) == n + n % 2
