from random import Random

import pytest

from conftest import SeqRng
from neurotraj.errors import ContractError
from neurotraj.genome import (
    GeneticOperators,
    Genome,
    N_LOCI,
    default_allele_table,
    mutate,
    random_genome,
    single_point_crossover,
)

TABLE = default_allele_table()


class TestAlleleTable:
    def test_thirteen_loci_in_order(self):
        names = TABLE.gene_names()
        assert len(names) == 13
        assert names[0] == "Batch Size"
        assert names[-1] == "Flattened Dropout"

    def test_allele_counts(self):
        assert TABLE.counts == (4, 5, 4, 2, 7, 4, 6, 7, 4, 4, 4, 4, 5)

    def test_allele_values(self):
        table = dict(TABLE.loci)
        assert table["Batch Size"] == (50, 75, 100, 125)
        assert table["Loss Function"] == ("MSE", "Log Cosh")
        assert table["Optimiser"] == ("RMSprop", "NAdam", "SGD", "AdaGrad", "Adadelta", "Adam", "AdaMax")
        assert table["Hidden Units"] == (100, 125, 150, 175, 200, 225, 250)
        assert table["Flattened Dropout"] == (0.05, 0.1, 0.15, 0.2, 0.25)

    def test_decode(self):
        g = Genome((0,) * 13)
        decoded = TABLE.decode(g)
        assert decoded["Batch Size"] == 50
        assert decoded["Optimiser"] == "RMSprop"

    def test_validate_rejects_out_of_bounds(self):
        with pytest.raises(ContractError):
            TABLE.validate_genome(Genome((4,) + (0,) * 12))


class TestRandomGenome:
    def test_all_indices_in_bounds(self):
        for seed in range(200):
            g = random_genome(TABLE, Random(seed))
            TABLE.validate_genome(g)

    def test_loss_function_index_binary(self):
        rng = Random(0)
        seen = {random_genome(TABLE, rng).indices[3] for _ in range(500)}
        assert seen == {0, 1}

    def test_locus_one_uniform(self):
        rng = Random(7)
        counts = [0, 0, 0, 0]
        n = 10_000
        for _ in range(n):
            counts[random_genome(TABLE, rng).indices[0]] += 1
        for c in counts:
            assert abs(c / n - 0.25) <= 0.02

    def test_deterministic_per_seed(self):
        assert random_genome(TABLE, Random(42)) == random_genome(TABLE, Random(42))


class TestCrossover:
    def test_identical_parents_identical_children(self, rng):
        g = random_genome(TABLE, rng)
        c1, c2 = single_point_crossover(g, g, rng)
        assert c1 == g and c2 == g

    def test_closure_every_locus_from_a_parent(self, rng):
        for _ in range(1000):
            p1 = random_genome(TABLE, rng)
            p2 = random_genome(TABLE, rng)
            c1, c2 = single_point_crossover(p1, p2, rng)
            for child in (c1, c2):
                TABLE.validate_genome(child)
                for i in range(N_LOCI):
                    assert child.indices[i] in (p1.indices[i], p2.indices[i])

    def test_cut_at_six(self):
        p1 = Genome((0,) * 13)
        p2 = Genome(tuple(min(1, c - 1) for c in TABLE.counts))
        c1, c2 = single_point_crossover(p1, p2, SeqRng([6]))
        assert c1.indices == p1.indices[:6] + p2.indices[6:]
        assert c2.indices == p2.indices[:6] + p1.indices[6:]

    def test_deterministic_per_seed(self):
        p1 = random_genome(TABLE, Random(1))
        p2 = random_genome(TABLE, Random(2))
        assert single_point_crossover(p1, p2, Random(5)) == single_point_crossover(p1, p2, Random(5))


class TestMutate:
    def test_rate_zero_is_identity(self, rng):
        g = random_genome(TABLE, rng)
        assert mutate(TABLE, g, 0.0, rng) == g

    def test_rate_one_changes_exactly_one_locus(self, rng):
        for _ in range(500):
            g = random_genome(TABLE, rng)
            m = mutate(TABLE, g, 1.0, rng)
            TABLE.validate_genome(m)
            hamming = sum(a != b for a, b in zip(g.indices, m.indices))
            assert hamming == 1

    def test_empirical_rate_half(self):
        rng = Random(11)
        g = random_genome(TABLE, rng)
        n = 10_000
        mutated = sum(mutate(TABLE, g, 0.5, rng) != g for _ in range(n))
        assert abs(mutated / n - 0.5) <= 0.02

    def test_invalid_rate_rejected(self, rng):
        g = random_genome(TABLE, rng)
        with pytest.raises(ContractError):
            mutate(TABLE, g, 1.5, rng)

    def test_deterministic_per_seed(self):
        g = random_genome(TABLE, Random(3))
        assert mutate(TABLE, g, 0.5, Random(9)) == mutate(TABLE, g, 0.5, Random(9))


class TestOperators:
    def test_offspring_valid_and_deterministic(self):
        ops = GeneticOperators(table=TABLE)
        p1 = random_genome(TABLE, Random(1))
        p2 = random_genome(TABLE, Random(2))
        o1 = ops.offspring(p1, p2, Random(77))
        o2 = ops.offspring(p1, p2, Random(77))
        assert o1 == o2
        for child in o1:
            TABLE.validate_genome(child)
