import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BreedingLog, RecordingEval, SeqRng, brute_force_fronts, vals_dominate, vec
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
            pop = [Individual(genome=Genome((0,) * 13), objectives=vec(tokens, v),
                              evaluation=i) for i, v in enumerate(values)]
            fronts = nondominated_sort(pop)
            got = [sorted(i.evaluation for i in front) for front in fronts]
            assert got == brute_force_fronts(values)

    @settings(deadline=None)
    @given(data=st.data(), m=st.sampled_from((2, 3)))
    def test_fronts_ranks_and_release_order(self, data, m):
        # A coarse grid gives ties and duplicate rows; arbitrary floats mix in.
        coord = st.sampled_from((0.0, -0.0, 1.0, 2.0, 3.0)) | st.floats(0.0, 3.0)
        rows = data.draw(st.lists(st.tuples(*[coord] * m), min_size=1, max_size=60))
        tokens = ("rmse", "l2", "l3")[:m]
        pop = [Individual(genome=Genome((0,) * 13), objectives=vec(tokens, v), evaluation=i)
               for i, v in enumerate(rows)]
        fronts = [[member.evaluation for member in front] for front in nondominated_sort(pop)]
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

    def __call__(self, genome):
        values = self.mapping.get(genome.indices, self.default)
        return vec(self.tokens, values), None


class TestStep:
    def test_clone_population_fixed_point_with_zero_mutation(self):
        g = Genome((1, 2, 0, 1, 3, 0, 2, 4, 1, 0, 3, 2, 4))
        eval_fn = _LookupEval({g.indices: (1.0, 1.0)})
        ops = GeneticOperators(table=TABLE, crossover_rate=1.0, mutation_rate=0.0)
        pop = [Individual(genome=g, objectives=eval_fn(g)[0]) for _ in range(6)]
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
        child_eval = lambda genome: (vec(("rmse", "l2"), (50.0, 50.0)), None)
        ops = GeneticOperators(table=TABLE, crossover_rate=1.0, mutation_rate=0.5)
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

        def eval_fn(genome):
            if genome.indices not in values:
                r = Random(hash(genome.indices) & 0xFFFF)
                values[genome.indices] = (r.uniform(0, 5), r.uniform(0, 5))
            return vec(("rmse", "l2"), values[genome.indices]), None

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
    """The engine scores each genome it breeds for the next population once, in draw order."""

    def test_init_population_scores_each_drawn_genome(self):
        evaluate_fn = RecordingEval()
        pop = init_population(7, evaluate_fn, GeneticOperators(table=TABLE), Random(2))
        rng = Random(2)
        assert evaluate_fn.genomes == [random_genome(TABLE, rng) for _ in range(7)]
        assert [i.genome for i in pop] == evaluate_fn.genomes

    @pytest.mark.parametrize("n", [6, 7])
    def test_step_scores_the_first_n_children(self, n):
        rng = Random(n)
        pop = init_population(n, RecordingEval(), GeneticOperators(table=TABLE), rng)
        evaluate_fn = RecordingEval()
        ops = BreedingLog(GeneticOperators(table=TABLE))
        nsga2_step(pop, evaluate_fn, ops, rng)
        assert evaluate_fn.genomes == ops.children[:n]
        # An odd n breeds one child more than it scores: the last pair's second.
        assert len(ops.children) == n + n % 2
