import math
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_seq, mc_hypervolume, predict_one
from neurotraj import analysis
from neurotraj.analysis import (
    _PERMUTATION_BLOCK,
    _average_ranks,
    _t_two_sided,
    bonferroni,
    classify_validity,
    hypervolume,
    kde_density,
    permutation_test,
    ranksum_test,
    scott_bandwidths,
    spearman,
)
from neurotraj.errors import (
    ConfigurationError,
    ContractError,
    DegenerateBandwidthError,
    UndefinedCorrelationError,
)
from neurotraj.evaluator import _block_size, _predicted, skill_scores
from neurotraj.experiment import DatasetConfig, build_dataset, preset_config, scenario_dataset
from neurotraj.genome import Genome, default_allele_table, random_genome
from neurotraj.trajectory import TAU, Columns


def reference_average_ranks(values):
    """The tie-group loop `_average_ranks` replaced."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def reference_spearman_p(x, y, resamples, seed):
    """Spearman's permutation p-value, one `rng.permutation` per resample."""
    rx = reference_average_ranks(np.asarray(x, dtype=float))
    ry = reference_average_ranks(np.asarray(y, dtype=float))
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx * rx).sum()) * float((ry * ry).sum()))
    rho = float((rx * ry).sum()) / denom
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(resamples):
        perm = rng.permutation(ry)
        if abs(float((rx * perm).sum()) / denom) >= abs(rho) - 1e-12:
            count += 1
    return min(1.0, (count + 1) / (resamples + 1))


def reference_permutation_p(a, b, resamples, seed):
    """The permutation test, one `rng.permutation` per resample; ties count
    within 1e-12 times the samples' greatest magnitude, or 1e-12 below 1."""
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    pooled = np.concatenate([aa, bb])
    threshold = abs(float(aa.mean()) - float(bb.mean())) - 1e-12 * max(1.0, float(np.abs(pooled).max()))
    n1 = len(aa)
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(resamples):
        perm = rng.permutation(pooled)
        if abs(float(perm[:n1].mean()) - float(perm[n1:].mean())) >= threshold:
            count += 1
    return (count + 1) / (resamples + 1)


def tied_series(n, seed):
    """Two independent series of n values on a coarse grid, so ties occur."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=n), 1)
    return x, np.round(rng.normal(size=n), 1)


def scaled_tied_samples(data, shape, exponent):
    """An array of `shape` on a grid with signed zeros, 1/3 and 0.1, times
    10^exponent, so values tie within and across rows."""
    grid = st.sampled_from((-1.0, -0.0, 0.0, 0.1, 1 / 3, 0.5, 1.0, 2.5))
    return data.draw(arrays(float, shape, elements=grid)) * 10.0 ** exponent


# A tied grid as exact rationals and as the floats the samples hold.
EXACT_GRID = (Fraction(-1), Fraction(0), Fraction(0), Fraction(1, 10), Fraction(1, 3),
              Fraction(1, 2), Fraction(1), Fraction(5, 2))
FLOAT_GRID = (-1.0, -0.0, 0.0, 0.1, 1 / 3, 0.5, 1.0, 2.5)


def exact_permutation_p(a, b, resamples, seed):
    """The add-one p-value of two samples of EXACT_GRID values, scaled by any
    positive factor, counted without rounding over the shuffles that
    `permutation_test` draws. Every value is an integer over 30, so
    |n2 * sum1 - n1 * sum2| of those integers orders the shuffles as the
    rational |mean1 - mean2| does, whatever the factor."""
    n1, n2 = len(a), len(b)
    numerators = np.array([int(v * 30) for v in list(a) + list(b)], dtype=np.int64)
    rng = np.random.default_rng(seed)
    shuffles = rng.permuted(np.tile(np.arange(n1 + n2), (resamples, 1)), axis=1)
    drawn = numerators[shuffles]
    scores = np.abs(n2 * drawn[:, :n1].sum(axis=1) - n1 * drawn[:, n1:].sum(axis=1))
    observed = abs(n2 * int(numerators[:n1].sum()) - n1 * int(numerators[n1:].sum()))
    return Fraction(int((scores >= observed).sum()) + 1, resamples + 1)


RESAMPLES = (1, 499, 1000, 1001, 2500)
SIZES = (3, 16, 24, 499)


class TestAgainstLoopReferences:
    """Block-drawn shuffles and unique-based ranks give the old loops' values exactly."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("resamples", RESAMPLES)
    def test_spearman_p_value(self, resamples, n):
        x, y = tied_series(n, seed=n)
        got = spearman(x, y, resamples=resamples, seed=n + 1).p_value
        assert got == reference_spearman_p(x, y, resamples, seed=n + 1)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("resamples", RESAMPLES)
    def test_permutation_test_p_value(self, resamples, n):
        x, y = tied_series(n, seed=n)
        a, b = x[: n // 2 or 1], x[n // 2 or 1:] + 0.1
        got = permutation_test(a, b, resamples=resamples, seed=n + 2)
        assert got == reference_permutation_p(a, b, resamples, seed=n + 2)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), k=st.integers(1, 4),
           sizes=st.tuples(st.integers(1, 15), st.integers(1, 15)), exponent=st.integers(-6, 3),
           resamples=st.sampled_from((1, 99, 999, 1001)), seed=st.integers(0, 2 ** 32 - 1))
    def test_permutation_test_on_scaled_tied_grid(self, data, k, sizes, exponent, resamples, seed):
        a, b = (scaled_tied_samples(data, (k, n), exponent) for n in sizes)
        stacked = permutation_test(a, b, resamples=resamples, seed=seed)
        for p, row_a, row_b in zip(stacked.tolist(), a, b):
            expected = reference_permutation_p(row_a, row_b, resamples, seed)
            assert p == expected
            assert permutation_test(row_a, row_b, resamples=resamples, seed=seed) == expected

    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), n=st.integers(3, 40), exponent=st.integers(-6, 3),
           resamples=st.sampled_from((1, 99, 999, 1001)), seed=st.integers(0, 2 ** 32 - 1))
    def test_spearman_on_scaled_tied_grid(self, data, n, exponent, resamples, seed):
        x, y = (scaled_tied_samples(data, (n,), exponent) for _ in range(2))
        assume(not (np.all(x == x[0]) or np.all(y == y[0])))
        got = spearman(x, y, resamples=resamples, seed=seed).p_value
        assert got == reference_spearman_p(x, y, resamples, seed)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 1.5, -0.0, 1.5, 3.0, 0.0, -2.0],
        [2.0, 2.0, 2.0],
        [5.0],
        list(np.round(np.random.default_rng(3).normal(size=200), 1)),
        list(np.random.default_rng(4).integers(-3, 4, size=50).astype(float) * 0.0),
    ], ids=["signed-zeros", "all-tied", "single", "rounded-normal", "zeros-of-both-signs"])
    def test_average_ranks(self, values):
        got = _average_ranks(np.array(values))
        assert got.dtype == np.float64
        assert np.array_equal(got, reference_average_ranks(np.array(values)))


class TestSpearman:
    def test_perfect_positive(self):
        r = spearman([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
        assert abs(r.coefficient - 1.0) <= 1e-12

    def test_perfect_negative(self):
        r = spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
        assert abs(r.coefficient + 1.0) <= 1e-12

    def test_hand_example(self):
        # d^2 sum = 4 -> 1 - 6*4 / (5 * 24) = 0.8
        r = spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4])
        assert abs(r.coefficient - 0.8) <= 1e-12
        assert r.n == 5

    def test_monotone_transform_invariant(self):
        rng = Random(3)
        x = [rng.uniform(0, 10) for _ in range(40)]
        y = [rng.uniform(0, 10) for _ in range(40)]
        base = spearman(x, y).coefficient
        assert abs(spearman([math.exp(v) for v in x], y).coefficient - base) <= 1e-12
        assert abs(spearman(x, [v ** 3 for v in y]).coefficient - base) <= 1e-12

    def test_matches_scipy_coefficient(self):
        rng = Random(9)
        x = [rng.gauss(0, 1) for _ in range(60)]
        y = [xi + rng.gauss(0, 1) for xi in x]
        ours = spearman(x, y)
        ref, ref_p = scipy.stats.spearmanr(x, y)
        assert abs(ours.coefficient - ref) <= 1e-12
        assert abs(ours.p_value - ref_p) <= 0.05

    def test_ties_share_mean_rank(self):
        r = spearman([1, 1, 2, 3], [1, 1, 2, 3])
        assert abs(r.coefficient - 1.0) <= 1e-12

    def test_large_n_uses_t_approximation(self):
        rng = Random(4)
        x = [rng.gauss(0, 1) for _ in range(600)]
        y = [xi * 0.3 + rng.gauss(0, 1) for xi in x]
        ours = spearman(x, y)
        _, ref_p = scipy.stats.spearmanr(x, y)
        assert abs(ours.p_value - ref_p) <= 1e-3

    def test_constant_series_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, 1.0, 1.0], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            spearman([1, 2, 3], [1, 2])

    def test_large_n_perfect_correlation_has_zero_p(self):
        assert spearman(range(600), range(600)).p_value == 0.0
        assert spearman(range(600), range(600, 0, -1)).p_value == 0.0


def oracle_t_tail(rho, n):
    """scipy's two-sided tail of Spearman's t statistic on n - 2 degrees of freedom."""
    t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return float(scipy.special.stdtr(n - 2, -abs(t_stat)) * 2)


class TestTwoSidedTail:
    EDGE_RHOS = (0.0, 1e-170, -1e-170, 1e-9, 0.5, -0.5, 1 - 1e-12, -(1 - 1e-12))

    def test_matches_scipy_stdtr(self):
        rng = Random(13)
        ns = [500, 501, 1_000, 99_999, 100_000]
        ns += [round(math.exp(rng.uniform(math.log(500), math.log(100_000)))) for _ in range(60)]
        smallest = 1.0
        for n in ns:
            # Uniform rho gives p far below 1e-300 at large n; rho of a few
            # standard errors gives p near 1 and takes the symmetric form.
            rhos = list(self.EDGE_RHOS) + [rng.uniform(-1.0, 1.0) for _ in range(8)]
            rhos += [rng.gauss(0.0, 3.0 / math.sqrt(n)) for _ in range(8)]
            for rho in rhos:
                ours, ref = _t_two_sided(rho, n - 2), oracle_t_tail(rho, n)
                if ref >= 1e-290:
                    assert abs(ours - ref) <= 1e-10 * ref, (n, rho, ours, ref)
                else:
                    assert abs(ours - ref) <= 1e-290, (n, rho, ours, ref)
                smallest = min(smallest, ref)
        assert smallest < 1e-300

    @pytest.mark.parametrize("rho", [0.0, -0.0, 1e-170, -1e-170])
    def test_zero_or_underflowing_rho_gives_one(self, rho):
        assert _t_two_sided(rho, 998) == 1.0


NON_FINITE_CASES = {
    # entry point, the shapes of its valid inputs
    "spearman": (lambda x, y: spearman(x, y, resamples=10), ((20,), (20,))),
    "permutation_test": (lambda a, b: permutation_test(a, b, resamples=10), ((7,), (9,))),
    "ranksum_test": (ranksum_test, ((7,), (9,))),
    "kde_density": (kde_density, ((12, 2), (5, 2))),
    "hypervolume": (hypervolume, ((30, 3), (3,))),
    "scott_bandwidths": (scott_bandwidths, ((12, 2),)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CASES))
@settings(deadline=None, max_examples=40)
@given(data=st.data(), bad=st.sampled_from((math.nan, math.inf, -math.inf)))
def test_non_finite_value_rejected(name, data, bad):
    """One NaN or infinity in otherwise valid inputs raises ContractError."""
    fn, shapes = NON_FINITE_CASES[name]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    args = [rng.normal(size=shape) for shape in shapes]
    fn(*args)
    flat = args[data.draw(st.integers(0, len(args) - 1))].reshape(-1)
    flat[data.draw(st.integers(0, flat.size - 1))] = bad
    with pytest.raises(ContractError, match="non-finite"):
        fn(*args)


@pytest.mark.parametrize("call", [
    lambda: hypervolume([[0.5, 0.5]], [[1.0, 2.0], [3.0]]),
    lambda: hypervolume([[0.5, 0.5]], "ab"),
    lambda: spearman([1.0, 2.0, [3.0, 4.0]], [1.0, 2.0, 3.0]),
    lambda: permutation_test([1.0, [2.0, 3.0]], [1.0]),
    lambda: ranksum_test([1.0, [2.0, 3.0]], [1.0]),
    lambda: kde_density([[1.0, 2.0], [3.0]], [[1.0, 2.0]]),
    lambda: scott_bandwidths([[1.0, 2.0], [3.0]]),
], ids=["hypervolume-ragged-reference", "hypervolume-string-reference", "spearman", "permutation_test",
        "ranksum_test", "kde_density", "scott_bandwidths"])
def test_input_that_is_not_an_array_of_numbers_rejected(call):
    with pytest.raises(ContractError, match="not an array of numbers"):
        call()


def per_set_validity(predicted):
    """`classify_validity` of one set, reduced as a single set alone: the
    reference its stacked form must equal."""
    predicted = Columns.of(predicted)
    max_abs_x = float(predicted.abs_x.max())
    mean_final_x = float(predicted.x[:, -1].mean())
    mean_final_dy = float((predicted.y[:, -1] - predicted.y[:, 0]).mean())
    spread_ok = max_abs_x > analysis.SPREAD_THRESHOLD_M
    symmetry_ok = abs(mean_final_x) <= analysis.SYMMETRY_THRESHOLD_M
    final_position_ok = mean_final_dy > analysis.FINAL_POSITION_THRESHOLD_M
    return analysis.ValidityReport(
        valid=spread_ok and symmetry_ok and final_position_ok,
        spread_ok=spread_ok,
        symmetry_ok=symmetry_ok,
        final_position_ok=final_position_ok,
        measured=(max_abs_x, mean_final_x, mean_final_dy),
    )


@pytest.fixture(scope="module")
def validation_splits():
    """The validation targets of 30, 150 and 600 s scenarios, by duration."""
    return {d: scenario_dataset(DatasetConfig(duration_s=d)).validation_targets
            for d in (30.0, 150.0, 600.0)}


class TestClassifyValidity:
    def _flat(self, final_y=50.0, x=0.0, n_seq=4):
        return [make_seq([(x, final_y / 7 * i) for i in range(8)], dt=0.25)
                for _ in range(n_seq)]

    def test_no_lane_changes_fails_spread_only(self):
        report = classify_validity(self._flat())
        assert not report.spread_ok
        assert report.symmetry_ok
        assert report.final_position_ok
        assert not report.valid

    def test_balanced_maneuvers_valid(self):
        left = make_seq([(-3.5 * i / 7, 45.0 / 7 * i) for i in range(8)])
        right = make_seq([(3.5 * i / 7, 45.0 / 7 * i) for i in range(8)])
        report = classify_validity([left, right] * 3)
        assert report.valid
        assert abs(report.measured[1]) <= 1e-12

    def test_one_sided_drift_fails_symmetry(self):
        drifting = [make_seq([(3.0 * i / 7, 50.0 / 7 * i) for i in range(8)])
                    for _ in range(5)]
        report = classify_validity(drifting)
        assert not report.symmetry_ok
        assert not report.valid

    def test_spread_boundary_exact(self):
        at_two = self._flat(x=2.0)
        assert not classify_validity(at_two).spread_ok
        above = self._flat(x=2.0 + 1e-9)
        assert classify_validity(above).spread_ok

    def test_symmetry_boundary_inclusive(self):
        at_one = self._flat(x=1.0)
        assert classify_validity(at_one).symmetry_ok
        beyond = self._flat(x=1.0 + 1e-9)
        assert not classify_validity(beyond).symmetry_ok

    def test_final_position_boundary_exact(self):
        at_forty = self._flat(final_y=40.0)
        assert not classify_validity(at_forty).final_position_ok
        above = self._flat(final_y=40.0 + 1e-6)
        assert classify_validity(above).final_position_ok

    def test_displacement_is_relative_to_sequence_start(self):
        shifted = [make_seq([(0.0, 1000.0 + 50.0 / 7 * i) for i in range(8)])]
        assert classify_validity(shifted).final_position_ok

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            classify_validity([])

    @settings(max_examples=200, deadline=None)
    @given(rows=st.tuples(st.integers(1, 12), st.integers(2, 10)).flatmap(
        lambda shape: arrays(np.float64, shape + (3,), elements=st.floats(-100.0, 100.0))))
    def test_columns_and_rows_give_equal_reports(self, rows):
        # Columns held apart, as a prediction holds them, not views of the rows.
        columns = Columns(*(np.ascontiguousarray(rows[..., k]) for k in range(3)))
        assert classify_validity(columns) == classify_validity(rows)

    def test_predicted_columns_and_rows_give_equal_reports(self):
        data = build_dataset(preset_config("exp6"))
        rng, table = Random(6), default_allele_table()
        for _ in range(300):
            genome = random_genome(table, rng)
            predicted = predict_one(genome, skill_scores(genome), data.test_targets, "test")
            assert classify_validity(predicted) == classify_validity(predicted.rows())

    @pytest.mark.parametrize("duration_s, windows", [(30.0, 18), (150.0, 114), (600.0, 475)])
    @pytest.mark.parametrize("block", [1, 3, None], ids=["1", "3", "default"])
    @settings(max_examples=10, deadline=None)
    @given(genes=st.lists(st.tuples(*(st.integers(0, c - 1) for c in default_allele_table().counts)),
                          min_size=1, max_size=8))
    def test_stack_reports_equal_per_set_reports(self, validation_splits, duration_s, windows,
                                                 block, genes):
        """A (G, P, tau) stack gets, bit for bit, the reports of its sets
        judged one at a time; 475 windows take the pairwise sum's split."""
        targets = validation_splits[duration_s]
        assert len(targets.x) == windows
        genomes = [Genome(g) for g in genes]
        skills = [skill_scores(g) for g in genomes]
        size = block or _block_size(targets)
        for start in range(0, len(genomes), size):
            stack = _predicted(genomes[start:start + size], skills[start:start + size],
                               targets, "val")
            reports = classify_validity(stack)
            # As repr, so that the floats compare bit for bit, signed zeros too.
            assert repr(reports) == repr([per_set_validity(member) for member in stack.sets()])
            assert all(type(v) is float for report in reports for v in report.measured)

    def test_tau_and_final_position_threshold_are_one_decision(self):
        # The presets' ground-truth test targets pass the spread and
        # final-position tests (3.5 m, 46.0 m); one point short, they travel
        # 39.4 m and fail the 40 m test, so TAU cannot move on its own.
        data = build_dataset(preset_config("exp6"))
        report = classify_validity(data.test[:, TAU:])
        assert report.spread_ok and report.final_position_ok
        assert not classify_validity(data.test[:, TAU:2 * TAU - 1]).final_position_ok


# Grid values give ties and duplicate points; 1.2 lies beyond the reference.
HV_COORD = st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0, 1.2)) | st.floats(0.0, 1.2)
# As above, plus negative values and points on the reference (1.1).
HV_GRID = st.sampled_from((-0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.1, 1.2)) | st.floats(-1.0, 1.2)


def reference_hypervolume(front, ref):
    """The per-point sweep `hypervolume` replaced: in 2-D one pass over the
    points sorted by (f1, f2); in 3-D one such pass per distinct z level over
    the points at or below it, times the depth to the next level."""
    def hv_2d(points, ref):
        hv = 0.0
        best_f2 = ref[1]
        for f1, f2 in sorted(points):
            if f2 < best_f2:
                hv += (ref[0] - f1) * (best_f2 - f2)
                best_f2 = f2
        return hv

    def hv_3d(points, ref):
        pts = sorted(points, key=lambda p: p[2])
        hv = 0.0
        active = []
        i, n = 0, len(pts)
        while i < n:
            z = pts[i][2]
            while i < n and pts[i][2] == z:
                active.append((pts[i][0], pts[i][1]))
                i += 1
            z_next = pts[i][2] if i < n else ref[2]
            if z_next > z:
                hv += hv_2d(active, (ref[0], ref[1])) * (z_next - z)
        return hv

    ref = tuple(float(v) for v in ref)
    kept = [tuple(float(v) for v in p) for p in front if all(v <= r for v, r in zip(p, ref))]
    if not kept:
        return 0.0
    return hv_2d(kept, ref) if len(ref) == 2 else hv_3d(kept, ref)


class TestHypervolume:
    def test_single_box(self):
        assert hypervolume([(1.0, 1.0)], (3.0, 3.0)) == 4.0

    def test_two_point_union(self):
        assert hypervolume([(1.0, 2.0), (2.0, 1.0)], (3.0, 3.0)) == 3.0

    def test_single_box_3d(self):
        assert abs(hypervolume([(1.0, 1.0, 1.0)], (2.0, 3.0, 4.0)) - 6.0) <= 1e-12

    def test_dominated_points_contribute_nothing(self):
        base = hypervolume([(1.0, 2.0), (2.0, 1.0)], (3.0, 3.0))
        with_dominated = hypervolume([(1.0, 2.0), (2.0, 1.0), (2.5, 2.5)], (3.0, 3.0))
        assert base == with_dominated

    def test_monotone_under_new_nondominated_point(self):
        rng = Random(5)
        for _ in range(20):
            pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(6)]
            ref = (3.0, 3.0)
            before = hypervolume(pts, ref)
            extra = (rng.uniform(0, 2), rng.uniform(0, 2))
            after = hypervolume(pts + [extra], ref)
            assert after >= before - 1e-12

    @settings(deadline=None)
    @given(data=st.data(), m=st.sampled_from((2, 3)))
    def test_invariant_under_point_order(self, data, m):
        front = data.draw(st.lists(st.tuples(*[HV_COORD] * m), min_size=1, max_size=25))
        order = data.draw(st.permutations(range(len(front))))
        ref = (1.1,) * m
        assert hypervolume([front[i] for i in order], ref) == hypervolume(front, ref)

    @settings(deadline=None)
    @given(data=st.data(), m=st.sampled_from((2, 3)))
    def test_adding_a_point_never_lowers_it(self, data, m):
        front = data.draw(st.lists(st.tuples(*[HV_COORD] * m), min_size=1, max_size=25))
        extra = data.draw(st.tuples(*[HV_COORD] * m))
        ref = (1.1,) * m
        before = hypervolume(front, ref)
        assert hypervolume(front + [extra], ref) >= before - 1e-12 * before

    def test_violators_dropped(self):
        assert hypervolume([(1.0, 1.0), (5.0, 1.0)], (3.0, 3.0)) == 4.0

    def test_empty_after_filter_returns_zero(self):
        assert hypervolume([(5.0, 5.0)], (3.0, 3.0)) == 0.0

    def test_matches_monte_carlo_oracle_3d(self):
        rng = Random(11)
        for trial in range(10):
            n_pts = rng.randint(3, 20)
            pts = [tuple(rng.uniform(0, 1) for _ in range(3)) for _ in range(n_pts)]
            ref = (1.1, 1.1, 1.1)
            exact = hypervolume(pts, ref)
            approx = mc_hypervolume(pts, ref, 200_000, seed=trial)
            assert abs(exact - approx) <= 0.01 * exact

    def test_unsupported_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            hypervolume([(1.0,) * 4], (2.0,) * 4)

    @pytest.mark.parametrize("ref", [5.0, np.float64(5.0), [[1.0, 1.0]], np.ones((2, 2)), np.ones((1, 3))],
                             ids=["float", "0-d-array", "nested-list", "2x2", "1x3"])
    def test_reference_not_one_row_rejected(self, ref):
        with pytest.raises(ConfigurationError, match="reference of 2 or 3"):
            hypervolume([[0.5, 0.5]], ref)

    @settings(deadline=None)
    @given(data=st.data(), m=st.sampled_from((2, 3)))
    def test_matches_reference_sweep_for_lists_and_arrays(self, data, m):
        front = data.draw(st.lists(st.tuples(*[HV_GRID] * m), max_size=60))
        ref = data.draw(st.sampled_from((1.0, 1.1)))
        refs = (ref,) * m
        expected = reference_hypervolume(front, refs)
        assert hypervolume(front, refs) == expected
        array = np.array(front, dtype=float).reshape(len(front), m)
        result = hypervolume(array, refs)
        assert result == expected
        assert type(result) is float

    def test_matches_reference_sweep_across_level_blocks(self):
        # 200,000 // 1,420 = 140 levels per block, so 1,420 distinct z
        # levels take 11 blocks and carry the running sum across them.
        rng = np.random.default_rng(3)
        front = rng.random((1_420, 3))
        front[:, :2] = np.round(front[:, :2] * 20) / 20  # ties in (f1, f2)
        ref = (1.1, 1.1, 1.1)
        assert len(np.unique(front[:, 2])) == 1_420
        assert hypervolume(front, ref) == reference_hypervolume(front.tolist(), ref)

    def test_level_blocks_bound_memory(self):
        front = np.random.default_rng(0).random((4_000, 3))
        tracemalloc.start()
        try:
            hypervolume(front, (1.1, 1.1, 1.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("front", [[], np.empty((0, 3)), np.empty((0, 2))])
    def test_empty_input_returns_zero(self, front):
        assert hypervolume(front, (1.0, 1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("front", [
        [(0.5, 0.5, 0.5), (0.5, 0.5)],
        [(0.5, 0.5)],
        np.zeros((2, 2)),
    ])
    def test_wrong_dimension_rejected(self, front):
        with pytest.raises(ContractError):
            hypervolume(front, (1.0, 1.0, 1.0))


def staircase(n, seed):
    """n mutually non-dominated 2-D points: f1 rising while f2 falls."""
    rng = np.random.default_rng(seed)
    return np.column_stack([np.sort(rng.random(n)), np.sort(rng.random(n))[::-1]])


class TestSweepSummationOrder:
    """The gains add one point at a time, as in the reference sweep. A
    pairwise reduction would change the last digit of a one-column sweep of
    9 or more gains: a 2-D front, or a 3-D front on one z level."""

    @pytest.mark.parametrize("n", [9, 40, 60])
    def test_two_objectives(self, n):
        front = staircase(n, seed=n)
        assert hypervolume(front, (1.1, 1.1)) == reference_hypervolume(front.tolist(), (1.1, 1.1))

    @pytest.mark.parametrize("levels", [(0.3,), (0.2, 0.6)], ids=["one-z", "two-z"])
    def test_three_objectives(self, levels):
        front = np.column_stack([staircase(30, seed=7), np.resize(levels, 30)])
        ref = (1.1, 1.1, 1.1)
        assert hypervolume(front, ref) == reference_hypervolume(front.tolist(), ref)


class TestPermutationTest:
    def test_identical_lists_near_one(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert permutation_test(a, list(a)) >= 0.99

    def test_separated_samples_tiny_p(self):
        rng = Random(2)
        a = [rng.gauss(0, 1) for _ in range(12)]
        b = [rng.gauss(100, 1) for _ in range(12)]
        assert permutation_test(a, b) <= 0.001

    def test_deterministic_per_seed(self):
        rng = Random(3)
        a = [rng.gauss(0, 1) for _ in range(10)]
        b = [rng.gauss(0.5, 1) for _ in range(10)]
        assert permutation_test(a, b, seed=5) == permutation_test(a, b, seed=5)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            permutation_test([], [1.0])

    @settings(deadline=None, max_examples=25)
    @given(data=st.data(), k=st.integers(1, 4),
           sizes=st.tuples(st.integers(1, 15), st.integers(1, 15)).filter(lambda s: s[0] != s[1]),
           resamples=st.sampled_from((1, 999, 1000, 1001, 2500)), seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_rows_equal_their_own_calls(self, data, k, sizes, resamples, seed):
        grid = st.sampled_from((-1.0, -0.0, 0.0, 0.5, 1.0, 2.5))  # ties within and across rows
        a, b = (np.array(data.draw(st.lists(st.lists(grid, min_size=n, max_size=n),
                                            min_size=k, max_size=k))) for n in sizes)
        got = permutation_test(a, b, resamples=resamples, seed=seed)
        assert got.shape == (k,)
        for p, row_a, row_b in zip(got.tolist(), a, b):
            assert p == permutation_test(row_a, row_b, resamples=resamples, seed=seed)
            assert p == reference_permutation_p(row_a, row_b, resamples, seed)

    def test_stack_peak_memory_stays_near_one_pair(self):
        a, b = np.random.default_rng(0).normal(size=(2, 4, 12))

        def peak(x, y):
            tracemalloc.start()
            try:
                permutation_test(x, y, resamples=10_000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(a, b) <= 1.25 * peak(a[0], b[0])

    def test_peak_memory_stays_below_a_gathered_block(self):
        # The statistic gathers no copy of the samples: the peak stays below a
        # (k, block, n) float64 gather beside the (block, n) int64 shuffles,
        # 20 MB here.
        k, n1 = 4, 1_000
        a, b = np.random.default_rng(0).normal(size=(2, k, n1))
        tracemalloc.start()
        try:
            permutation_test(a, b, resamples=_PERMUTATION_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (k + 1) * (_PERMUTATION_BLOCK // k) * 2 * n1 * 8

    @pytest.mark.parametrize("block", [1, 7, 1_000])
    def test_block_size_leaves_p_values_unchanged(self, monkeypatch, block):
        rng = np.random.default_rng(6)
        a, b = np.round(rng.normal(size=(3, 9)), 1), np.round(rng.normal(size=(3, 14)), 1)
        x, y = tied_series(30, seed=7)
        expected = (permutation_test(a, b, resamples=1001, seed=3),
                    spearman(x, y, resamples=1001, seed=3).p_value)
        monkeypatch.setattr(analysis, "_PERMUTATION_BLOCK", block)
        assert np.array_equal(permutation_test(a, b, resamples=1001, seed=3), expected[0])
        assert spearman(x, y, resamples=1001, seed=3).p_value == expected[1]

    @pytest.mark.parametrize("k, n1, n2", [(2, 3, 1), (4, 5, 3), (3, 9, 1), (4, 3, 4), (4, 20, 1)])
    def test_observed_split_counts_itself(self, k, n1, n2):
        # Every `a` exceeds every `b`, so only shuffles that keep the observed
        # groups reach the observed difference, and each of them counts.
        rng = np.random.default_rng(k + n1 + n2)
        a, b = (5 + rng.random(size=(k, n1))) * 1e9, rng.random(size=(k, n2)) * 1e9
        draws = np.random.default_rng(0)
        own = sum(set(draws.permutation(n1 + n2)[:n1]) == set(range(n1)) for _ in range(300))
        assert own > 0
        assert permutation_test(a, b, resamples=300, seed=0).tolist() == [(own + 1) / 301] * k

    @pytest.mark.parametrize("exponent", range(6))
    def test_ties_counted_exactly_at_any_magnitude(self, exponent):
        # 40 seeded cases of 4 to 15 grid samples a side, times 10^exponent:
        # every shuffle that ties the observed difference counts, and no other.
        wrong = []
        for case in range(40):
            rng = Random(case)
            picks = [[rng.randrange(len(EXACT_GRID)) for _ in range(rng.randint(4, 15))] for _ in range(2)]
            a, b = ([FLOAT_GRID[i] * 10.0 ** exponent for i in pick] for pick in picks)
            expected = exact_permutation_p(*([EXACT_GRID[i] for i in pick] for pick in picks), 999, case)
            got = permutation_test(a, b, resamples=999, seed=case)
            if got != float(expected):  # (count + 1) / (resamples + 1), correctly rounded
                wrong.append((case, got, float(expected)))
        assert wrong == []

    @pytest.mark.parametrize("a, b", [
        (np.zeros((2, 3)), np.zeros((3, 3))),
        (np.zeros((2, 3)), np.zeros(3)),
        (np.zeros((1, 2, 3)), np.zeros((1, 2, 3))),
        (np.zeros((0, 3)), np.zeros((0, 4))),
    ], ids=["row-counts-differ", "stack-and-row", "three-dimensional", "no-rows"])
    def test_unpaired_stacks_rejected(self, a, b):
        with pytest.raises(ContractError):
            permutation_test(a, b)


class TestRanksumTest:
    def test_identical_samples_near_one(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert ranksum_test(a, list(a)) >= 0.95

    def test_disjoint_ranges_tiny_p(self):
        a = [float(i) for i in range(12)]
        b = [float(i + 100) for i in range(12)]
        assert ranksum_test(a, b) < 0.001

    def test_agreement_with_permutation(self):
        rng = Random(7)
        near_a = [rng.gauss(0, 1) for _ in range(12)]
        near_b = [rng.gauss(0, 1) for _ in range(12)]
        far_b = [rng.gauss(50, 1) for _ in range(12)]
        alpha = 0.025
        for b, expect_reject in ((far_b, True), (near_b, False)):
            p_perm = permutation_test(near_a, b)
            p_rank = ranksum_test(near_a, b)
            assert (p_perm < alpha) == expect_reject
            assert (p_rank < alpha) == expect_reject

    def test_matches_scipy_direction(self):
        rng = Random(8)
        a = [rng.gauss(0, 1) for _ in range(15)]
        b = [rng.gauss(0.8, 1) for _ in range(15)]
        ours = ranksum_test(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                       use_continuity=False).pvalue
        assert abs(ours - ref) <= 0.01


class TestBonferroni:
    def test_two_comparison_threshold(self):
        assert bonferroni(0.05, 2) == 0.025

    def test_single_comparison_unchanged(self):
        assert bonferroni(0.05, 1) == 0.05

    def test_division(self):
        assert abs(bonferroni(0.06, 3) - 0.02) <= 1e-15

    def test_inverse_for_power_of_two(self):
        for k in (1, 2, 4, 8):
            assert bonferroni(0.05, k) * k == 0.05

    def test_invalid_comparisons(self):
        with pytest.raises(ContractError):
            bonferroni(0.05, 0)

    @pytest.mark.parametrize("alpha", [7.0, -1.0, 0.0, 1.0])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ContractError):
            bonferroni(alpha, 2)


def oracle_kde(samples, grid):
    """Double-loop product-kernel oracle."""
    s = np.asarray(samples, dtype=float)
    g = np.asarray(grid, dtype=float)
    n, d = s.shape
    h = s.std(axis=0, ddof=1) * n ** (-1.0 / (d + 4))
    out = []
    for gp in g:
        total = 0.0
        for sp in s:
            k = 1.0
            for j in range(d):
                z = (gp[j] - sp[j]) / h[j]
                k *= math.exp(-0.5 * z * z) / (h[j] * math.sqrt(2 * math.pi))
            total += k
        out.append(total / n)
    return np.array(out)


class TestKde:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(50, 2))
        grid = rng.uniform(-2, 2, size=(50, 2))
        ours = kde_density(samples, grid)
        ref = oracle_kde(samples, grid)
        assert np.max(np.abs(ours - ref)) <= 1e-9

    def test_matches_oracle_3d(self):
        rng = np.random.default_rng(4)
        samples = rng.normal(size=(30, 3))
        grid = rng.uniform(-1, 1, size=(20, 3))
        assert np.max(np.abs(kde_density(samples, grid) - oracle_kde(samples, grid))) <= 1e-9

    def test_cluster_center_is_grid_maximum(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(loc=(3.0, -1.0), scale=0.05, size=(100, 2))
        grid = np.array([[3.0, -1.0], [0.0, 0.0], [5.0, 5.0], [3.2, -0.8]])
        dens = kde_density(samples, grid)
        assert np.argmax(dens) == 0

    def test_scaling_samples_scales_bandwidths(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(40, 2))
        h1 = scott_bandwidths(samples)
        h2 = scott_bandwidths(samples * 2.0)
        assert np.allclose(h2, 2.0 * h1, rtol=1e-12)

    def test_zero_variance_rejected(self):
        samples = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        with pytest.raises(DegenerateBandwidthError):
            kde_density(samples, samples)

    def test_densities_nonnegative(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=(25, 2))
        assert (kde_density(samples, samples) >= 0).all()

    def test_dimension_checks(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ConfigurationError):
            kde_density(rng.normal(size=(10, 4)), rng.normal(size=(5, 4)))
        with pytest.raises(ContractError):
            kde_density(rng.normal(size=(1, 2)), rng.normal(size=(5, 2)))
