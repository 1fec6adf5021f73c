import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpgs.estimators import (
    EstimatorConfig,
    _ladder_subset_sizes_and_counts,
    largest_core,
    largest_good_subset,
    pair_and_rescale,
    stable_cov,
    stable_mean,
)
from dpgs.exceptions import (
    EmptyReferenceSet,
    OddRowCount,
    PreconditionViolated,
)
from dpgs.linalg import SINGULAR_RTOL

CFG = EstimatorConfig(lambda0=4.0, k=5)


def test_config_validation():
    with pytest.raises(PreconditionViolated):
        EstimatorConfig(lambda0=0.5, k=5)
    with pytest.raises(PreconditionViolated):
        EstimatorConfig(lambda0=4.0, k=4)


def test_thresholds_ladder():
    th = CFG.thresholds()
    assert th.shape == (11,)
    assert th[0] == pytest.approx(4.0)
    assert th[5] == pytest.approx(4.0 * math.e)
    assert th[10] == pytest.approx(4.0 * math.e**2)
    assert np.all(np.diff(th) > 0)


def test_pair_and_rescale_example():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    y = pair_and_rescale(x)
    want = np.array([[1.0, 0.0], [0.0, 1.0]]) / math.sqrt(2.0)
    assert np.allclose(y, want, atol=0.0)


def test_pair_and_rescale_odd_rows():
    with pytest.raises(OddRowCount):
        pair_and_rescale(np.zeros((5, 2)))


def test_pairing_preserves_covariance():
    rng = np.random.default_rng(21)
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    root = np.linalg.cholesky(cov)
    x = rng.standard_normal((40_000, 2)) @ root.T + np.array([5.0, -3.0])
    y = pair_and_rescale(x)
    emp = (y.T @ y) / y.shape[0]
    assert np.allclose(emp, cov, atol=0.05)


def test_largest_good_subset_keeps_both():
    # scatter of {1, 3} over m = 2 is 5; norms 1/5 and 9/5 both pass at 2
    kept = largest_good_subset(np.array([[1.0], [3.0]]), 2.0)
    assert kept.tolist() == [0, 1]


def test_largest_good_subset_cascades_to_empty():
    # dropping the huge point makes the scatter too small for the other one:
    # second pass has a = 1/2 so the norm of 1 is 2 > 1, then a is singular
    kept = largest_good_subset(np.array([[1.0], [1000.0]]), 1.0)
    assert kept.size == 0


def test_largest_good_subset_all_zero_rows():
    # zero vectors never certify themselves: singular scatter removes all
    kept = largest_good_subset(np.zeros((3, 2)), 5.0)
    assert kept.size == 0


def test_largest_good_subset_gaussian_keeps_everything():
    rng = np.random.default_rng(22)
    y = rng.standard_normal((200, 3))
    kept = largest_good_subset(y, 100.0)
    assert kept.size == 200


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 12), st.integers(1, 3)),
        elements=st.floats(-50.0, 50.0),
    ),
    st.floats(0.5, 30.0),
    st.floats(1.0, 3.0),
)
@settings(max_examples=150, deadline=None)
def test_largest_good_subset_monotone_in_threshold(y, lam, factor):
    tight = set(largest_good_subset(y, lam).tolist())
    loose = set(largest_good_subset(y, lam * factor).tolist())
    assert tight <= loose


def test_largest_good_subset_members_certified():
    rng = np.random.default_rng(23)
    for _ in range(20):
        y = rng.standard_normal((30, 2)) * rng.uniform(0.3, 3.0)
        y[0] *= 40.0  # plant an outlier
        lam = 9.0
        kept = largest_good_subset(y, lam)
        if kept.size == 0:
            continue
        a = (y[kept].T @ y[kept]) / y.shape[0]
        ai = np.linalg.inv(a)
        norms = np.einsum("ij,jk,ik->i", y[kept], ai, y[kept])
        assert np.all(norms <= lam * (1 + 1e-9))


def test_stable_cov_two_point_trace():
    # x = (1, -1): one pair, y = sqrt(2), scatter 2, norm 1 <= 4 everywhere
    out = stable_cov(np.array([[1.0], [-1.0]]), CFG)
    assert out.score == 0
    assert np.allclose(out.weights, [1.0])
    assert out.counts.tolist() == [5]
    assert np.allclose(out.covariance(), [[2.0]])
    assert np.allclose(out.w_matrix, [[math.sqrt(2.0)]])


def test_stable_cov_clean_data_uniform():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((400, 2))
    cfg = EstimatorConfig(lambda0=60.0, k=7)
    out = stable_cov(x, cfg)
    m = 200
    assert out.score == 0
    assert np.allclose(out.weights, np.full(m, 1.0 / m))
    assert np.all(out.counts == 7)
    # under uniform weights the estimate is exactly the pairing scatter
    y = pair_and_rescale(x)
    assert np.allclose(out.covariance(), (y.T @ y) / m, atol=1e-12)


def test_stable_cov_outlier_raises_score():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((400, 2))
    x[0] = [500.0, -500.0]
    cfg = EstimatorConfig(lambda0=60.0, k=7)
    out = stable_cov(x, cfg)
    assert out.score >= 1
    assert out.weights[0] < 1.0 / 200  # the polluted pair is down-weighted


def test_stable_cov_score_and_weight_ranges():
    rng = np.random.default_rng(26)
    for trial in range(15):
        x = rng.standard_normal((60, 2)) * rng.uniform(0.2, 5.0)
        if trial % 3 == 0:
            x[:4] *= 100.0
        out = stable_cov(x, CFG)
        m = 30
        assert 0 <= out.score <= CFG.k
        assert np.all(out.counts >= 0) and np.all(out.counts <= CFG.k)
        assert np.all(out.weights >= 0) and np.all(out.weights <= 1.0 / m + 1e-15)
        assert np.allclose(out.w_matrix.T, pair_and_rescale(x) * np.sqrt(out.weights)[:, None])


def test_stable_cov_score_zero_iff_base_threshold_clean():
    rng = np.random.default_rng(27)
    x = rng.standard_normal((40, 1))
    out = stable_cov(x, CFG)
    y = pair_and_rescale(x)
    a = (y.T @ y) / y.shape[0]
    norms = (y[:, 0] ** 2) / a[0, 0]
    assert (out.score == 0) == bool(np.all(norms <= CFG.lambda0))


def reference_good_subset(y, lam):
    """The pruning loop restarted from the full set, written out on its own
    so that it shares no code with the estimator."""
    m = y.shape[0]
    mask = np.ones(m, dtype=bool)
    while np.any(mask):
        a = (y[mask].T @ y[mask]) / m
        w, u = np.linalg.eigh(a)
        if w[-1] <= 0.0 or w[0] <= SINGULAR_RTOL * w[-1]:
            mask[:] = False
            break
        coords = (y[mask] @ u) / np.sqrt(w)
        out = np.einsum("ij,ij->i", coords, coords) > lam
        if not np.any(out):
            break
        mask[np.flatnonzero(mask)[out]] = False
    return np.flatnonzero(mask)


def restart_ladder(y, cfg):
    """Reference ladder: every rung restarts from the full set."""
    k = cfg.k
    sizes = np.zeros(2 * k + 1, dtype=np.int64)
    counts = np.zeros(y.shape[0], dtype=np.int64)
    for ell, lam in enumerate(cfg.thresholds()):
        subset = reference_good_subset(y, lam)
        assert np.array_equal(largest_good_subset(y, float(lam)), subset)
        sizes[ell] = subset.size
        if ell > k:
            counts[subset] += 1
    return sizes, counts


def _planted(gen, n, d):
    x = gen.standard_normal((n, d))
    for row in gen.choice(n, size=gen.integers(1, max(2, n // 4)), replace=False):
        u = gen.standard_normal(d)
        x[row] += 1e6 * u / np.linalg.norm(u)
    return x


def _rank_deficient(gen, n, d):
    # the last column is a combination of the others except on a few rows,
    # so pruning those rows leaves a singular scatter
    x = gen.standard_normal((n, d))
    x[:, -1] = x[:, : d - 1] @ gen.standard_normal(d - 1)
    few = gen.choice(n, size=max(1, n // 10), replace=False)
    x[few, -1] += gen.uniform(0.1, 100.0) * gen.standard_normal(few.size)
    return x


def _duplicates(gen, n, d):
    x = gen.standard_normal((n, d)) * gen.uniform(0.1, 10.0, size=d)
    x[: n // 3] = x[n - 1]
    x[n // 3 : n // 2] = -x[0]
    return x


def _zero_rows(gen, n, d):
    # rows i and i + n/2 equal: their pair vector y_i is exactly zero
    x = gen.standard_normal((n, d))
    zero = gen.choice(n // 2, size=max(1, n // 6), replace=False)
    x[zero + n // 2] = x[zero]
    return x


LADDER_INPUTS = {
    "clean": lambda gen, n, d: gen.standard_normal((n, d)),
    "planted_1e6": _planted,
    "cauchy": lambda gen, n, d: gen.standard_cauchy((n, d)),
    "rank_deficient": _rank_deficient,
    "duplicates": _duplicates,
    "zero_rows": _zero_rows,
    "all_zero": lambda gen, n, d: np.zeros((n, d)),
    "fewer_pairs_than_dims": lambda gen, n, d: gen.standard_normal((2, d + 2)),
}


@pytest.mark.parametrize("name", sorted(LADDER_INPUTS))
@pytest.mark.parametrize("k", [5, 33])
def test_ladder_matches_restart_from_full_set(name, k):
    # The warm-started sweep must equal the per-rung restart bit for bit,
    # in the ladder sizes and counts and in stable_cov's score and weights.
    gen = np.random.default_rng([k, *name.encode()])
    for m in (1, 2, 5, 40, 120):
        for d in (1, 3):
            for lambda0 in (1.0, 3.0, 12.0):
                x = LADDER_INPUTS[name](gen, 2 * m, d)
                y = pair_and_rescale(x)
                cfg = EstimatorConfig(lambda0=lambda0, k=k)
                sizes, counts = restart_ladder(y, cfg)
                got_sizes, got_counts = _ladder_subset_sizes_and_counts(y, cfg)
                assert np.array_equal(got_sizes, sizes)
                assert np.array_equal(got_counts, counts)
                out = stable_cov(x, cfg)
                pairs = y.shape[0]
                score = int(min(k, np.min(pairs - sizes[: k + 1] + np.arange(k + 1))))
                assert out.score == score
                assert np.array_equal(out.counts, counts)
                assert np.array_equal(out.weights, counts / (k * pairs))


def test_largest_core_counts_neighbors():
    x = np.array([[0.0], [0.1], [10.0]])
    r = np.array([0, 1])
    kept = largest_core(x, np.eye(1), 1.0, 2, r)
    assert kept.tolist() == [0, 1]
    kept_loose = largest_core(x, np.eye(1), 1.0, 1, r)
    assert kept_loose.tolist() == [0, 1]
    kept_all = largest_core(x, np.eye(1), 200.0, 2, r)
    assert kept_all.tolist() == [0, 1, 2]


def test_largest_core_rejects_bad_reference():
    x = np.zeros((4, 1))
    with pytest.raises(EmptyReferenceSet):
        largest_core(x, np.eye(1), 1.0, 1, np.array([], dtype=int))
    with pytest.raises(PreconditionViolated):
        largest_core(x, np.eye(1), 1.0, 1, np.array([0, 0]))
    with pytest.raises(PreconditionViolated):
        largest_core(x, np.eye(1), 1.0, 1, np.array([4]))


def test_stable_mean_identical_points():
    x = np.tile([[2.0, -1.0]], (50, 1))
    out = stable_mean(x, np.eye(2), CFG, np.arange(50))
    assert out.score == 0
    assert np.allclose(out.weights, np.full(50, 1.0 / 50))
    assert np.all(out.counts == CFG.k)
    assert np.allclose(out.weights @ x, [2.0, -1.0])


def test_stable_mean_identical_points_zero_sigma():
    # exact ties are inside the range of a zero matrix, so they still count
    x = np.tile([[1.0]], (40, 1))
    out = stable_mean(x, np.zeros((1, 1)), CFG, np.arange(40))
    assert out.score == 0
    assert np.allclose(out.weights, np.full(40, 1.0 / 40))


def test_stable_mean_two_far_clusters_all_zero():
    # clusters of 16 each: every row has 16 neighbors out of 32, which is
    # below the top-half quotas, so weights vanish and the score maxes out
    x = np.concatenate([np.zeros((16, 1)), np.full((16, 1), 1e6)])
    out = stable_mean(x, np.eye(1), CFG, np.arange(32))
    assert out.score == CFG.k
    assert np.all(out.weights == 0.0)
    assert np.all(out.counts == 0)


def test_stable_mean_small_reference_warns():
    x = np.zeros((20, 1))
    with pytest.warns(RuntimeWarning):
        stable_mean(x, np.eye(1), CFG, np.arange(20))


def test_stable_mean_matches_explicit_core_sweep():
    rng = np.random.default_rng(28)
    cfg = EstimatorConfig(lambda0=2.0, k=5)
    lam = math.e**2 * cfg.lambda0
    for _ in range(10):
        x = rng.standard_normal((45, 2)) * rng.uniform(0.5, 2.0)
        x[:3] += rng.choice([0.0, 25.0]) * rng.standard_normal(2)
        r = np.sort(rng.choice(45, size=40, replace=False))
        sigma = np.cov(x.T) + 0.1 * np.eye(2)
        out = stable_mean(x, sigma, cfg, r, core_lambda=lam)
        counts = np.zeros(45, dtype=int)
        sizes = []
        for ell in range(2 * cfg.k + 1):
            core = largest_core(x, sigma, lam, r.size - ell, r)
            sizes.append(core.size)
            if ell > cfg.k:
                counts[core] += 1
        score = min(cfg.k, min(45 - s + ell for ell, s in enumerate(sizes[: cfg.k + 1])))
        assert out.score == score
        assert np.array_equal(out.counts, counts)
        total = counts.sum()
        if total:
            assert np.allclose(out.weights, counts / total)
        else:
            assert np.all(out.weights == 0.0)


def test_stable_mean_weights_sum():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((40, 3))
    out = stable_mean(x, np.eye(3), EstimatorConfig(lambda0=30.0, k=5), np.arange(40))
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
