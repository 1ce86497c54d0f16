"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines and
per-criterion timings. The whole module targets well under 15 minutes on a
4-core laptop with no GPU.
"""

import math
import time
from random import Random

import numpy as np
import pytest
import scipy.stats

from conftest import (
    brute_force_fronts,
    make_seq,
    mc_hypervolume,
    straight_seq,
    vals_dominate,
    vec,
)
from neurotraj.analysis import (
    bonferroni,
    classify_validity,
    hypervolume,
    permutation_test,
    ranksum_test,
    spearman,
)
from neurotraj.cli import main
from neurotraj.evaluator import SurrogateConfig, evaluate
from neurotraj.experiment import (
    DatasetConfig,
    ExperimentConfig,
    build_dataset,
    execute_run,
    preset_config,
)
from neurotraj.genome import GeneticOperators, Genome, default_allele_table, random_genome
from neurotraj.moead import (
    build_neighborhoods,
    init_state,
    moead_step,
    simplex_lattice,
    tchebycheff,
    update_ideal,
)
from neurotraj.nsga2 import Individual, nondominated_sort
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

TABLE = default_allele_table()


def _report(criterion: str, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: PASS in {elapsed:.1f}s{suffix}")


def test_criterion_1_dominance_sort_oracle():
    started = time.perf_counter()
    rng = Random(2024)
    tokens = ("rmse", "l2", "l3")
    for trial in range(200):
        m = rng.choice((2, 3))
        size = rng.randint(2, 50)
        # small integer grids force deliberate duplicates
        grid = rng.choice((3, 5, 8, 0))
        values = []
        for _ in range(size):
            if grid:
                values.append(tuple(float(rng.randrange(grid)) for _ in range(m)))
            else:
                values.append(tuple(rng.uniform(0, 10) for _ in range(m)))
        pop = [Individual(genome=Genome((0,) * 13), objectives=vec(tokens[:m], v),
                          evaluation=i) for i, v in enumerate(values)]
        fronts = [sorted(ind.evaluation for ind in front)
                  for front in nondominated_sort(pop)]
        assert fronts == brute_force_fronts(values), f"trial {trial} disagrees with oracle"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report("1 dominance-sort oracle", started, "200 populations")


def test_criterion_2_lattice_cardinality():
    started = time.perf_counter()
    assert simplex_lattice(3, 8).size == 45
    for h in range(1, 13):
        assert simplex_lattice(2, h).size == h + 1
        assert simplex_lattice(3, h).size == (h + 1) * (h + 2) // 2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("2 lattice cardinality", started, "H in 1..12, m in {2,3}")


def test_criterion_3_tchebycheff_and_ideal():
    started = time.perf_counter()
    # worked examples, exact
    f = vec(("rmse", "l2"), (1.0, 2.0))
    assert tchebycheff(f, (0.5, 0.5), (1.0, 2.0)) == 0.0
    assert tchebycheff(vec(("rmse", "l2"), (2.0, 4.0)), (0.5, 0.5), (0.0, 0.0)) == 2.0
    assert tchebycheff(vec(("rmse", "l2"), (5.0, 100.0)), (1.0, 0.0), (0.0, 0.0)) == 5.0
    assert update_ideal((1.0, 2.0), vec(("rmse", "l2"), (0.5, 1.0))) == (0.5, 1.0)
    assert update_ideal((1.0, 2.0), vec(("rmse", "l2"), (1.0, 2.0))) == (1.0, 2.0)
    assert update_ideal((1.0, 5.0), vec(("rmse", "l2"), (3.0, 2.0))) == (1.0, 2.0)

    # every accepted replacement is a non-increase of the subproblem scalar
    # at the ideal point fixed at decision time
    dataset_cfg = DatasetConfig(duration_s=60.0, lane_change_rate=0.05, seed=3)
    cfg = ExperimentConfig(algorithm="moead",
                           objective_ids=(ObjectiveId.RMSE, ObjectiveId.L3_LONGITUDINAL_VELOCITY),
                           population=10, generations=3, runs=1, dataset=dataset_cfg)
    data = build_dataset(cfg)
    ops = GeneticOperators(table=TABLE)
    lattice = simplex_lattice(2, 9)
    nbhd = build_neighborhoods(lattice, 4)
    replacements = 0
    for seed in range(5):
        rng = Random(seed)

        def eval_fn(genome):
            res = evaluate(genome, data, cfg.objective_ids, cfg.surrogate)
            return res.objectives, res

        state = init_state(lattice, eval_fn, ops, rng)
        log = []
        for _ in range(cfg.generations):
            moead_step(state, lattice, nbhd, eval_fn, ops, rng, replacement_log=log)
        assert log, f"seed {seed}: expected replacements"
        for g_child, g_incumbent in log:
            assert g_child <= g_incumbent
        replacements += len(log)
    _report("3 tchebycheff and ideal point", started, f"{replacements} replacements checked")


def test_criterion_4_hypervolume_oracle():
    started = time.perf_counter()
    assert hypervolume([(1.0, 1.0)], (3.0, 3.0)) == 4.0
    assert hypervolume([(1.0, 2.0), (2.0, 1.0)], (3.0, 3.0)) == 3.0

    rng = Random(77)
    worst_rel = 0.0
    for trial in range(100):
        n_pts = rng.randint(1, 20)
        pts = [tuple(rng.uniform(0.0, 1.0) for _ in range(3)) for _ in range(n_pts)]
        ref = (1.1, 1.1, 1.1)
        exact = hypervolume(pts, ref)
        approx = mc_hypervolume(pts, ref, 1_000_000, seed=trial)
        rel = abs(exact - approx) / exact
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.01, f"trial {trial}: relative error {rel:.4f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report("4 hypervolume vs Monte Carlo", started, f"worst rel err {worst_rel:.4f}")


def test_criterion_5_archive_invariant_scaled_exp9():
    started = time.perf_counter()
    base = preset_config("exp9", scale=1 / 3)  # pop 45 -> 15, 15 gens -> 5
    assert base.population == 15 and base.generations == 5
    cfg = ExperimentConfig.from_dict({**base.to_dict(), "runs": 3})
    data = build_dataset(cfg)
    scanned = 0
    for k in range(cfg.runs):
        rec = execute_run(cfg, data, k)
        assert rec.error is None
        assert len(rec.snapshots) == cfg.generations
        for snap in rec.snapshots:
            archive = [tuple(e["objectives"]) for e in snap["archive"]]
            for i, a in enumerate(archive):
                for j, b in enumerate(archive):
                    if i != j:
                        assert not vals_dominate(a, b), "archive holds a dominated member"
            scanned += len(archive)
    _report("5 archive invariant (scaled exp9)", started, f"{scanned} members scanned")


def test_criterion_6_conflict_sign_reproduction():
    started = time.perf_counter()
    data_cfg = DatasetConfig(duration_s=240.0, lane_change_rate=0.02, seed=7)
    cfg = ExperimentConfig(algorithm="nsga2",
                           objective_ids=(ObjectiveId.L1_DISTANCE_FEEDBACK,
                                          ObjectiveId.L2_LATERAL_VELOCITY,
                                          ObjectiveId.L3_LONGITUDINAL_VELOCITY),
                           population=4, generations=1, runs=1, dataset=data_cfg)
    data = build_dataset(cfg)
    rng = Random(99)
    surrogate = SurrogateConfig()
    tau = data.tau
    l1s, l2s, l3_raw = [], [], []
    for _ in range(500):
        g = random_genome(TABLE, rng)
        values = evaluate(g, data, cfg.objective_ids, surrogate).objectives
        l1s.append(values[0])
        l2s.append(values[1])
        l3_raw.append((tau - 1) * V_MAX_MPS - values[2])  # recover the raw sum
    rho_13 = spearman(l1s, l3_raw).coefficient
    rho_12 = spearman(l1s, l2s).coefficient
    assert rho_13 <= -0.5, f"rho(l1, raw l3) = {rho_13:.3f}"
    assert rho_12 >= 0.0, f"rho(l1, l2) = {rho_12:.3f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report("6 conflict signs", started,
            f"rho(l1,l3_raw)={rho_13:.3f}, rho(l1,l2)={rho_12:.3f}")


def test_criterion_7_search_effectiveness():
    started = time.perf_counter()
    data_cfg = DatasetConfig(duration_s=300.0, lane_change_rate=0.02, seed=0)
    outcomes = {}
    for preset in ("exp6", "exp7"):  # NSGA-II and MOEA/D on (rmse, l2, l3)
        base = preset_config(preset, scale=0.3)
        cfg = ExperimentConfig.from_dict({**base.to_dict(), "runs": 10,
                                          "dataset": data_cfg.to_dict()})
        data = build_dataset(cfg)
        wins = 0
        for k in range(10):
            rec = execute_run(cfg, data, k)
            assert rec.error is None
            initial = rec.initial_front_objectives
            final = [e.objectives for e in rec.final_front]
            pts = initial + final
            ref = tuple(1.1 * max(p[j] for p in pts) for j in range(3))
            if hypervolume(final, ref) >= hypervolume(initial, ref):
                wins += 1
        outcomes[cfg.algorithm] = wins
        assert wins >= 9, f"{cfg.algorithm}: improved in only {wins}/10 seeds"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report("7 search effectiveness", started,
            f"nsga2 {outcomes['nsga2']}/10, moead {outcomes['moead']}/10")


def test_criterion_8_valid_model_classifier():
    started = time.perf_counter()
    flat = [make_seq([(0.0, 50.0 / 7 * i) for i in range(8)]) for _ in range(4)]
    report = classify_validity(flat)
    assert (report.spread_ok, report.symmetry_ok, report.final_position_ok) == (False, True, True)
    assert not report.valid

    left = make_seq([(-3.5 * i / 7, 45.0 / 7 * i) for i in range(8)])
    right = make_seq([(3.5 * i / 7, 45.0 / 7 * i) for i in range(8)])
    assert classify_validity([left, right] * 3).valid

    drifting = [make_seq([(3.0 * i / 7, 50.0 / 7 * i) for i in range(8)]) for _ in range(5)]
    assert not classify_validity(drifting).symmetry_ok

    # thresholds are boundary-exact
    at_two = [make_seq([(2.0, 50.0 / 7 * i) for i in range(8)])]
    assert not classify_validity(at_two).spread_ok
    at_forty = [make_seq([(0.0, 40.0 / 7 * i) for i in range(8)])]
    assert not classify_validity(at_forty).final_position_ok
    at_one = [make_seq([(1.0, 50.0 / 7 * i) for i in range(8)])]
    assert classify_validity(at_one).symmetry_ok
    _report("8 valid-model classifier", started)


def test_criterion_9_statistics():
    started = time.perf_counter()
    assert bonferroni(0.05, 2) == 0.025

    rng = Random(31)
    near_a = [rng.gauss(0, 1) for _ in range(12)]
    near_b = [rng.gauss(0, 1) for _ in range(12)]
    far_b = [rng.gauss(100, 1) for _ in range(12)]
    threshold = bonferroni(0.05, 2)
    for b, expect_reject in ((far_b, True), (near_b, False)):
        p_perm = permutation_test(near_a, b)
        p_rank = ranksum_test(near_a, b)
        assert (p_perm < threshold) == expect_reject
        assert (p_rank < threshold) == expect_reject
    assert permutation_test(near_a, list(near_a)) >= 0.99

    # null permutation p-values are approximately uniform
    null_rng = Random(17)
    p_values = []
    for i in range(250):
        a = [null_rng.gauss(0, 1) for _ in range(12)]
        b = [null_rng.gauss(0, 1) for _ in range(12)]
        p_values.append(permutation_test(a, b, resamples=499, seed=i))
    ks = scipy.stats.kstest(p_values, "uniform")
    assert ks.pvalue > 0.01, f"KS uniformity p = {ks.pvalue:.4f}"
    _report("9 statistics", started, f"KS p = {ks.pvalue:.3f}")


def test_criterion_10_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    dirs = []
    for label in ("a", "b"):
        out = tmp_path / label
        code = main(["run", "--preset", "exp6", "--scale", "0.2", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        dirs.append(out)
    compared = 0
    names = sorted(p.name for p in dirs[0].glob("final_front_*.csv")) + ["summary.json"]
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
        compared += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    _report("10 end-to-end determinism", started, f"{compared} artifacts byte-identical")


def test_criterion_11_objective_examples():
    started = time.perf_counter()
    tol = 1e-9

    # distance feedback
    assert l1_distance_feedback(make_seq([(1.0, 2.0)] * 5)) == 0.0
    assert abs(l1_distance_feedback(make_seq([(0, 0), (0, 3), (0, 6)])) - 45.0) <= tol
    seq = make_seq([(0, 0), (1, 3), (2, 7), (0, 11)])
    doubled = make_seq([(0, 0), (2, 6), (4, 14), (0, 22)])
    assert abs(l1_distance_feedback(doubled) - 4 * l1_distance_feedback(seq)) <= tol

    # angular velocity
    assert angular_velocity(*straight_seq(3)) == 0.0
    p0, p1, p2 = np.array([(0, 0, 0), (0, 1, 0.25), (1, 2, 0.5)], dtype=float)
    assert abs(angular_velocity(p0, p1, p2) - math.pi) <= tol
    q0 = np.array((0.0, 0.0, 0.0))
    q1 = np.array((q0[0] + math.sin(3.1), q0[1] + math.cos(3.1), 1.0))
    q2 = np.array((q1[0] + math.sin(-3.1), q1[1] + math.cos(-3.1), 2.0))
    assert abs(angular_velocity(q0, q1, q2) - (2 * math.pi - 6.2)) <= 1e-3

    # lateral velocity
    assert l2_lateral_velocity(straight_seq(8)) == 0.0
    xys = [(0, 0), (0.5, 7), (1.5, 14), (1.0, 21), (0.0, 28)]
    mirrored = [(-x, y) for x, y in xys]
    assert abs(l2_lateral_velocity(make_seq(xys)) - l2_lateral_velocity(make_seq(mirrored))) <= tol

    # longitudinal velocity and its minimization form
    assert abs(l3_longitudinal_velocity(straight_seq(8, v=30.0)) - 210.0) <= tol
    assert abs(l3_longitudinal_velocity(make_seq([(0, 0), (0, 12.5)])) - V_MAX_MPS) <= tol
    assert abs(l3_longitudinal_velocity(make_seq([(0, 0), (1, 0), (2, 0), (3, 0)]))
               - 3 * V_MIN_MPS) <= tol
    assert abs(l3_minimized(straight_seq(8, v=V_MAX_MPS))) <= tol
    assert abs(l3_minimized(straight_seq(8, v=V_MIN_MPS)) - 7 * (V_MAX_MPS - V_MIN_MPS)) <= tol
    assert l3_minimized(straight_seq(8, v=30.0)) < l3_minimized(straight_seq(8, v=25.0))

    # rmse
    assert rmse([straight_seq(8)], [straight_seq(8)]) == 0.0
    assert abs(rmse([make_seq([(3.0, 4.0)])], [make_seq([(0.0, 0.0)])]) - 5.0) <= tol
    assert abs(rmse([make_seq([(0, 0), (0, 20)])], [make_seq([(0, 0), (0, 10)])]) - 5.0) <= tol

    # signloss
    perfect = make_seq([(1.0, 0), (-2.0, 8)])
    assert signloss([perfect], [perfect]) == 0.0
    assert signloss([make_seq([(-2.0, 0.0)])], [make_seq([(2.0, 0.0)])]) == 0.0
    assert abs(signloss([make_seq([(-3.0, 0.0)])], [make_seq([(2.0, 0.0)])]) - 1.0) <= tol

    # assembly
    rng = Random(5)
    actual, predicted = [], []
    for _ in range(4):
        base = [(rng.uniform(-2, 2), 7.0 * i + rng.uniform(0, 1)) for i in range(8)]
        noisy = [(x + rng.uniform(-0.3, 0.3), y + rng.uniform(-0.5, 0.5)) for x, y in base]
        actual.append(make_seq(base))
        predicted.append(make_seq(noisy))
    ids = (ObjectiveId.RMSE, ObjectiveId.L2_LATERAL_VELOCITY, ObjectiveId.L3_LONGITUDINAL_VELOCITY)
    v = assemble(ids, predicted, actual)
    assert len(v) == len(ids) == 3
    assert assemble((ObjectiveId.RMSE,), actual, actual)[0] == 0.0
    n = len(predicted)
    expected = (rmse(predicted, actual),
                sum(l2_lateral_velocity(p) for p in predicted) / n,
                sum(l3_minimized(p) for p in predicted) / n)
    for got, want in zip(v, expected, strict=True):
        assert abs(got - want) <= tol
    _report("11 objective examples", started)
