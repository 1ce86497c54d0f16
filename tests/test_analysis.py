import math
import tracemalloc
from random import Random

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_seq, mc_hypervolume
from neurotraj.analysis import (
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
    """The permutation test, one `rng.permutation` per resample."""
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    observed = abs(float(aa.mean()) - float(bb.mean()))
    pooled = np.concatenate([aa, bb])
    n1 = len(aa)
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(resamples):
        perm = rng.permutation(pooled)
        if abs(float(perm[:n1].mean()) - float(perm[n1:].mean())) >= observed - 1e-12:
            count += 1
    return (count + 1) / (resamples + 1)


def tied_series(n, seed):
    """Two independent series of n values on a coarse grid, so ties occur."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=n), 1)
    return x, np.round(rng.normal(size=n), 1)


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
