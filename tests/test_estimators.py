import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpgs import estimators
from dpgs.estimators import (
    EstimatorConfig,
    _ladder_counts_and_score,
    _ladder_entry_rungs,
    _scatter_norms,
    largest_good_subset,
    neighbor_counts,
    pair_and_rescale,
    stable_cov,
    stable_mean,
)
from dpgs.exceptions import (
    DimensionMismatch,
    EmptyReferenceSet,
    NotPD,
    OddRowCount,
    PreconditionViolated,
)
from dpgs.linalg import RANGE_RTOL, SINGULAR_RTOL
from dpgs.privacy import PrivacyParams, plan

CFG = EstimatorConfig(lambda0=4.0, k=5)


def test_config_validation():
    with pytest.raises(PreconditionViolated):
        EstimatorConfig(lambda0=0.5, k=5)
    with pytest.raises(PreconditionViolated):
        EstimatorConfig(lambda0=4.0, k=4)
    # e^2 lambda0, the top rung, overflows
    for lambda0 in (math.inf, 1e308):
        with pytest.raises(PreconditionViolated, match="e\\^2 lambda0 finite"):
            EstimatorConfig(lambda0=lambda0, k=5)
    assert np.all(np.isfinite(EstimatorConfig(lambda0=1e307, k=5).thresholds()))


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


def test_stable_cov_rejects_zero_columns():
    with pytest.raises(DimensionMismatch):
        stable_cov(np.zeros((10, 0)), CFG)


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


def test_largest_good_subset_rejects_zero_columns():
    with pytest.raises(DimensionMismatch):
        largest_good_subset(np.zeros((10, 0)), 1.0)


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


@pytest.mark.parametrize("m", [2, 319, 833, 28_374])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 20])
def test_scatter_norms_match_a_solve(d, m):
    # Each norm is y_i^T a^{-1} y_i with a = Y^T Y / m, here by a linear solve;
    # with fewer rows than columns the scatter is singular and every norm +inf.
    gen = np.random.default_rng([29, d, m])
    if m < d:
        assert np.all(_scatter_norms(gen.standard_normal((m, d)), m) == np.inf)
        return
    if m == 2:  # too few rows for a random draw to be sure of its conditioning
        y = np.array([[1.0, 0.25], [-0.5, 1.5]])[:, :d]
    else:
        y = gen.standard_normal((m, d)) * 10.0 ** gen.uniform(-3.0, 3.0)
    a = (y.T @ y) / m
    assert np.linalg.cond(a) < 10.0
    want = np.einsum("ij,ij->j", y.T, np.linalg.solve(a, y.T))
    np.testing.assert_allclose(_scatter_norms(y, m), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 20])
def test_scatter_norms_of_a_singular_or_nan_scatter(d):
    gen = np.random.default_rng([31, d])
    y = gen.standard_normal((319, d))
    y[:, -1] = 0.0 if d == 1 else y[:, 0]  # a zero or a repeated column
    assert np.all(_scatter_norms(y, 319) == np.inf)
    # A NaN row reaches every entry of the scatter: the outcome is eigh's,
    # either LinAlgError or a NaN norm for every row.
    y = gen.standard_normal((319, d))
    y[100, d // 2] = np.nan
    try:
        np.linalg.eigh((y.T @ y) / 319)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _scatter_norms(y, 319)
    else:
        assert np.all(np.isnan(_scatter_norms(y, 319)))


def test_stable_cov_two_point_trace():
    # x = (1, -1): one pair, y = sqrt(2), scatter 2, norm 1 <= 4 everywhere
    out = stable_cov(np.array([[1.0], [-1.0]]), CFG)
    assert out.score == 0
    assert np.allclose(out.weights, [1.0])
    assert out.counts.tolist() == [5]
    assert np.allclose(out.covariance(), [[2.0]])
    assert np.allclose(out.w_matrix, [[math.sqrt(2.0)]])
    # no pairs at all: no scatter to form, an empty ladder and score 0
    empty = stable_cov(np.zeros((0, 1)), CFG)
    assert empty.score == 0 and empty.counts.size == 0


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


@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize("d", [1, 2, 5, 20])
def test_clean_block_factor_is_the_general_expression_bit_for_bit(d, far):
    # The clean shortcut builds its weights and factor from one scalar; they
    # and the estimate must be the bytes, in the layout, of the general form.
    # One far pair takes the ladder, and the general form itself.
    m, k = {1: 319, 2: 500, 5: 500, 20: 833}[d], 7
    x = np.random.default_rng([37, d]).standard_normal((2 * m, d))
    if far:
        x[0] += 1e6
    cfg = EstimatorConfig(lambda0=2.0 * d + 40.0, k=k)
    out = stable_cov(x, cfg)
    y = pair_and_rescale(x)
    assert (_scatter_norms(y, m).max() <= cfg.lambda0) != far  # the clean shortcut's test
    assert np.all(out.counts == k) != far and (out.score == 0) != far
    weights = out.counts / (k * m)
    w_matrix = (y * np.sqrt(weights)[:, None]).T
    assert out.weights.dtype == weights.dtype and out.weights.tobytes() == weights.tobytes()
    assert out.w_matrix.flags.f_contiguous and w_matrix.flags.f_contiguous
    assert out.w_matrix.shape == w_matrix.shape and out.w_matrix.tobytes() == w_matrix.tobytes()
    assert out.covariance().tobytes() == (w_matrix @ w_matrix.T).tobytes()


def test_stable_cov_outlier_raises_score():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((400, 2))
    x[0] = [500.0, -500.0]
    cfg = EstimatorConfig(lambda0=60.0, k=7)
    out = stable_cov(x, cfg)
    assert out.score >= 1
    assert out.weights[0] < 1.0 / 200  # the polluted pair is down-weighted


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the singular-scatter cliff")
def test_one_far_row_moves_the_cov_score_by_at_most_two():
    # One replaced row may move the score by at most 2, the sensitivity the
    # gate's privacy rests on. A row at 1e8 makes the full set's scatter
    # fail the relative singularity test, which empties every rung, so the
    # score jumps from 0 to k = 7 (a row at 1e4 to 1e7 gives 1).
    x = np.random.default_rng(1).standard_normal((400, 2))
    cfg = EstimatorConfig(lambda0=60.0, k=7)
    far = x.copy()
    far[0] = [1e8, 0.0]
    assert abs(stable_cov(far, cfg).score - stable_cov(x, cfg).score) <= 2


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
    # One pair whose norm lies in (lambda_0, lambda_1] leaves the sweep at
    # score 1, so the uniform shortcut must decline on it: it keys on
    # lambda_0, not on a higher rung.
    cfg = EstimatorConfig(lambda0=60.0, k=7)
    lam0, lam1 = cfg.thresholds()[:2]
    x = rng.standard_normal((400, 1))
    m = 200
    rest = float(np.sum(pair_and_rescale(x)[1:, 0] ** 2))
    target = 0.5 * (lam0 + lam1)
    x[0, 0] = x[m, 0] + math.sqrt(2.0 * target * rest / (m - target))
    y = pair_and_rescale(x)
    norm0 = m * y[0, 0] ** 2 / np.sum(y[:, 0] ** 2)
    assert lam0 < norm0 <= lam1
    out = stable_cov(x, cfg)
    assert out.score == 1
    assert np.all(out.counts == cfg.k)


def own_scatter_norms(ys, m):
    """Each row's norm under ``a = ys^T ys / m``, or None when a is singular.

    Written out on its own, sharing no code with the estimator, but by the
    estimator's expression (whitened coordinate-major, the sum of squares
    taken along the rows) so that a norm equal to a threshold is one there.
    """
    w, u = np.linalg.eigh((ys.T @ ys) / m)
    if w[-1] <= 0.0 or w[0] <= SINGULAR_RTOL * w[-1]:
        return None
    coords = (u.T @ ys.T) / np.sqrt(w)[:, None]
    return np.einsum("ij,ij->j", coords, coords)


def reference_good_subset(y, lam):
    """The pruning loop restarted from the full set, written out on its own
    so that it shares no code with the estimator."""
    m = y.shape[0]
    mask = np.ones(m, dtype=bool)
    while np.any(mask):
        norms = own_scatter_norms(y[mask], m)
        if norms is None:
            mask[:] = False
            break
        out = norms > lam
        if not np.any(out):
            break
        mask[np.flatnonzero(mask)[out]] = False
    return np.flatnonzero(mask)


def restart_ladder(y, cfg):
    """Reference ladder: every rung restarts from the full set. Returns each
    rung's subset, the sizes and the top-half retention counts."""
    k = cfg.k
    subsets = []
    sizes = np.zeros(2 * k + 1, dtype=np.int64)
    counts = np.zeros(y.shape[0], dtype=np.int64)
    for ell, lam in enumerate(cfg.thresholds()):
        subset = reference_good_subset(y, lam)
        assert np.array_equal(largest_good_subset(y, float(lam)), subset)
        subsets.append(subset)
        sizes[ell] = subset.size
        if ell > k:
            counts[subset] += 1
    return subsets, sizes, counts


def ladder_rule_by_definition(t, k):
    """Counts and score from entry rungs, rung by rung: S_l = {i : t_i <= l},
    counts_i = #{l in k+1..2k : i in S_l}, score = min(k, min_{l<=k}
    (n - |S_l| + l)). Written out on its own, with no shortcut."""
    n = len(t)
    sizes = [sum(1 for ti in t if ti <= ell) for ell in range(2 * k + 1)]
    counts = [sum(1 for ell in range(k + 1, 2 * k + 1) if ti <= ell) for ti in t]
    score = min(k, min(n - sizes[ell] + ell for ell in range(k + 1)))
    return np.array(counts, dtype=np.int64), score


@pytest.mark.parametrize("k", [5, 33])
def test_ladder_rule_matches_definition(k):
    # Every t_i = 0 takes the rule's shortcut; every other vector the
    # bincount form. Both must equal the rung-by-rung definition.
    gen = np.random.default_rng(k)
    cases = [
        np.zeros(40, dtype=np.int64),
        np.full(40, 2 * k + 1, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        *(np.array([v], dtype=np.int64) for v in range(2 * k + 2)),
    ]
    for n in (2, 7, 40, 300):
        cases.append(gen.integers(0, 2 * k + 2, size=n))
        cases.append(np.where(gen.random(n) < 0.9, 0, gen.integers(1, 2 * k + 2, size=n)))
        cases.append(gen.integers(k - 1, k + 3, size=n))
        cases.append(gen.integers(0, 3 * k, size=n))  # stable_mean's t_i can pass 2k+1
    for t in cases:
        counts, score = _ladder_counts_and_score(t, k)
        want_counts, want_score = ladder_rule_by_definition(t.tolist(), k)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, want_counts), t
        assert score == want_score, t
        assert 0 <= score <= k


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


def full_set_top_norm(y):
    """Largest norm of the full set under its own scatter, by the same
    expression as the pruning loop, or None when the scatter is singular."""
    norms = own_scatter_norms(y, y.shape[0])
    return None if norms is None else float(np.max(norms))


def lambda0_for_threshold(top, ell, k):
    """A lambda0 >= 1 whose rung ell threshold equals top exactly, or None."""
    lambda0 = top / math.exp(ell / k)
    for _ in range(64):
        if lambda0 < 1.0:
            return None
        got = EstimatorConfig(lambda0=lambda0, k=k).thresholds()[ell]
        if got == top:
            return lambda0
        lambda0 = np.nextafter(lambda0, -np.inf if got > top else np.inf)
    return None


def assert_ladder_matches_restart(x, cfg):
    k = cfg.k
    y = pair_and_rescale(x)
    subsets, sizes, counts = restart_ladder(y, cfg)
    t = _ladder_entry_rungs(y, cfg)
    for ell, subset in enumerate(subsets):
        assert np.array_equal(np.flatnonzero(t <= ell), subset)
    out = stable_cov(x, cfg)
    pairs = y.shape[0]
    score = int(min(k, np.min(pairs - sizes[: k + 1] + np.arange(k + 1))))
    assert out.score == score
    assert np.array_equal(out.counts, counts)
    assert np.array_equal(out.weights, counts / (k * pairs))


@pytest.mark.parametrize("name", sorted(LADDER_INPUTS))
@pytest.mark.parametrize("k", [5, 33])
def test_ladder_matches_restart_from_full_set(name, k):
    # The warm-started sweep's entry rungs must give the per-rung restart's
    # subsets exactly, and stable_cov its score, counts and weights.
    # Each first dataset also runs at lambda0 values that put a rung
    # threshold exactly on the full set's largest norm: a norm equal to a
    # threshold does not prune, so rung skipping must keep that rung.
    gen = np.random.default_rng([k, *name.encode()])
    for m in (1, 2, 5, 40, 120):
        for d in (1, 3):
            for lambda0 in (1.0, 3.0, 12.0):
                x = LADDER_INPUTS[name](gen, 2 * m, d)
                assert_ladder_matches_restart(x, EstimatorConfig(lambda0=lambda0, k=k))
                if lambda0 != 1.0:
                    continue
                top = full_set_top_norm(pair_and_rescale(x))
                if top is None:
                    continue
                for ell in (0, k // 2, k + 1, 2 * k):
                    at_top = lambda0_for_threshold(top, ell, k)
                    if at_top is not None:
                        assert_ladder_matches_restart(x, EstimatorConfig(lambda0=at_top, k=k))


def dense_mahalanobis_sq(x, ref, sigma):
    """The full n x |ref| matrix of expanded squared Mahalanobis distances,
    written out on its own so that it shares no code with the estimator:
    whitened rows, aa + bb - 2ab clipped at 0, and the pseudoinverse-limit
    convention for a singular or zero sigma."""

    def expanded(a, b):
        aa = np.einsum("ij,ij->i", a, a)
        bb = np.einsum("ij,ij->i", b, b)
        return np.clip(aa[:, None] + bb[None, :] - 2.0 * (a @ b.T), 0.0, None)

    w, u = np.linalg.eigh(sigma)
    top = float(w[-1])
    if top <= 0.0:
        sq = expanded(x, ref)
        dist = np.where(sq <= (RANGE_RTOL**2) * 1e-300, 0.0, np.inf)
        dist[sq == 0.0] = 0.0
    else:
        keep = w > SINGULAR_RTOL * top
        dist = expanded((x @ u[:, keep]) / np.sqrt(w[keep]), (ref @ u[:, keep]) / np.sqrt(w[keep]))
        if not np.all(keep):
            null_mass = expanded(x @ u[:, ~keep], ref @ u[:, ~keep])
            dist = np.where(null_mass > (RANGE_RTOL**2) * expanded(x, ref), np.inf, dist)
    return dist


def whole_block_radius(x, ref, sigma):
    """The radius at which the certificate's whole-block test starts to
    hold (every ref core, and the inside test at the largest offsets r and
    s from the center c, with the slack at 2|c|), from the whitened rows;
    None when sigma is singular."""
    w, u = np.linalg.eigh(sigma)
    if not w[0] > SINGULAR_RTOL * w[-1] > 0.0:
        return None
    a = (x @ u) / np.sqrt(w)
    b = (ref @ u) / np.sqrt(w)
    c = np.partition(b, b.shape[0] // 2, axis=0)[b.shape[0] // 2]
    r, s = (np.sqrt(np.einsum("ij,ij->i", v, v)).max() for v in (a - c, b - c))
    eta = estimators._CERT_ETA
    span = 2.0 * np.linalg.norm(c) + r + s
    inside = (r + s) ** 2 + eta * span**2 + estimators._CERT_FLOOR
    return float(max(4.0 * s**2, inside / (1.0 - eta)))


def _far_refs(gen, x):
    # rows 1e2..1e8 scales out, all of them in the reference set
    rows = gen.choice(x.shape[0], size=max(1, x.shape[0] // 10), replace=False)
    u = gen.standard_normal((rows.size, x.shape[1]))
    x[rows] += 10.0 ** gen.uniform(2.0, 8.0, size=(rows.size, 1)) * u
    return x


def _duplicate_rows(gen, x):
    half = x.shape[0] // 2
    x[:half] = x[half : 2 * half]
    x[-1] = x[0]
    return x


NEIGHBOR_INPUTS = {
    "clean": lambda gen, x: x,
    "far_refs": _far_refs,
    "scaled_1e100": lambda gen, x: x * 1e100,
    "scaled_1e-100": lambda gen, x: x * 1e-100,
    "offset_1e12": lambda gen, x: x + gen.choice([-1.0, 1.0], size=x.shape[1]) * 1e12,
    "offset_1e6": lambda gen, x: x + 1e6 * gen.standard_normal(x.shape[1]),
    "duplicates": _duplicate_rows,
    "lattice": lambda gen, x: np.round(2.0 * x) / 2.0,
}


def _sigmas(gen, x):
    d = x.shape[1]
    v = gen.standard_normal(d)
    scale = float(np.max(np.abs(x - np.median(x, axis=0)))) ** 2 or 1.0
    yield "estimate", np.cov(x.T).reshape(d, d) + scale * 1e-6 * np.eye(d)
    yield "identity", np.eye(d)
    yield "scaled_identity", scale * np.eye(d)
    yield "rank_one", scale * np.outer(v, v) / (v @ v)
    yield "zero", np.zeros((d, d))
    if d > 1:
        yield "singular", scale * np.diag(np.r_[np.ones(d - 1), 0.0])


@pytest.mark.parametrize("name", sorted(NEIGHBOR_INPUTS))
@pytest.mark.parametrize("d", [1, 2, 3, 20])
def test_neighbor_counts_match_dense_matrix(name, d):
    # The certified counts must equal the dense matrix's counts exactly,
    # including at radii set to an exact dense pair value, where a
    # certificate must decline rather than guess.
    gen = np.random.default_rng([d, *name.encode()])
    for n in (3, 40, 150):
        x = NEIGHBOR_INPUTS[name](gen, gen.standard_normal((n, d)) * gen.uniform(0.5, 3.0))
        ref = x[np.sort(gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False))]
        for sigma_name, sigma in _sigmas(gen, x):
            dist = dense_mahalanobis_sq(x, ref, sigma)
            lams = [math.e**2 * lambda0 for lambda0 in (1.0, 30.0, 300.0)]
            pair_values = dist[np.isfinite(dist) & (dist > 0.0)]
            if pair_values.size:
                # exact pair values and the float just below them, among
                # them the largest, which the row-level bound reaches
                picks = np.r_[gen.choice(pair_values, size=3), pair_values.max()]
                lams += [float(v) for v in np.r_[picks, np.nextafter(picks, 0.0)]]
            scale = float(np.max(np.abs(sigma))) or 1.0
            if sigma_name != "estimate":
                lams += [scale * 1e-3, scale * 7.0]
            edge = whole_block_radius(x, ref, sigma)
            if edge is not None and 0.0 < edge < math.inf:
                # either side of the whole-block test's own threshold
                lams += [edge * (1.0 - 1e-9), edge * (1.0 + 1e-9)]
            for lam in lams:
                want = np.sum(dist <= lam, axis=1)
                got = neighbor_counts(x, ref, sigma, lam)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (n, sigma_name, lam)
            if sigma_name in ("estimate", "identity"):
                _check_far_ref_at_the_radius(x, ref, sigma, lams[:3])


def _check_far_ref_at_the_radius(x, ref, sigma, lams):
    # A far ref (1 +- 1e-9) of the radius beyond the row farthest from the
    # ref median, on the line through both: the pair's distance is within
    # rounding of the radius there, so the centered pair product must
    # decide it or pass it on, also at radii equal to its exact dense value.
    w, u = np.linalg.eigh(sigma)
    a, b = (x @ u) / np.sqrt(w), (ref @ u) / np.sqrt(w)
    off = a - np.median(b, axis=0)
    i = int(np.argmax(np.einsum("ij,ij->i", off, off)))
    e = off[i] / (np.linalg.norm(off[i]) or 1.0)
    for lam in lams:
        for rel in (1.0 - 1e-9, 1.0 + 1e-9):
            refs = np.vstack([ref, x[i] + u @ (np.sqrt(w) * e) * (math.sqrt(lam) * rel)])
            dist = dense_mahalanobis_sq(x, refs, sigma)
            pair = dist[i, -1]
            for radius in (lam, float(pair), float(np.nextafter(pair, 0.0))):
                want = np.sum(dist <= radius, axis=1)
                assert np.array_equal(neighbor_counts(x, refs, sigma, radius), want), (
                    lam, rel, radius,
                )


@pytest.mark.parametrize("d", [1, 3, 20])
def test_far_refs_across_a_distant_center(d):
    # Most rows and refs sit 9e6 from the origin, so the center c does too;
    # one row and two refs near the origin are then far refs, all on one
    # line. The centered pair product r_i^2 + s_j^2 - 2 (a_i - c).(b_j - c)
    # of such a pair sums terms near 8e13 and carries a rounding error of
    # a few hundredths, against 2e-9 for eta ((|a_i| + |b_j|)^2 + lam):
    # only a slack that grows with r_i + s_j, or with 2|c|, which is as
    # large here, keeps the row undecided at the exact dense value of its
    # nearest ref. Each trial draws a new center, and so new rounding
    # errors.
    gen = np.random.default_rng(d)
    v = gen.standard_normal(d)
    v /= np.linalg.norm(v)
    sigma = np.eye(d)
    for _ in range(8):
        near_refs = gen.uniform(-5.0, 5.0, 2)
        near_row = near_refs.max() + gen.uniform(20.0, 25.0, 1)
        x = np.r_[9e6 + gen.standard_normal(50), near_row][:, None] * v
        ref = np.r_[9e6 + gen.standard_normal(50), near_refs][:, None] * v
        dist = dense_mahalanobis_sq(x, ref, sigma)
        nearest = dist[-1, 50:].min()  # 400 to 900, above 4 eta (9e6)^2 = 324
        for lam in (float(nearest), float(np.nextafter(nearest, 0.0))):
            want = np.sum(dist <= lam, axis=1)
            assert np.array_equal(neighbor_counts(x, ref, sigma, lam), want), lam


def _self_reference_block(kind, d, gen):
    """A block and sigma for each path of the self-reference kernel, and
    whether that path forms the dense matrix."""
    x = 2.0 * gen.standard_normal((150, d))
    sigma = np.cov(x.T).reshape(d, d)
    if kind == "far_rows":  # the centered pair product decides the far refs
        rows = gen.choice(x.shape[0], size=int(gen.integers(1, 4)), replace=False)
        x[rows] = 1e6 * gen.choice([-1.0, 1.0], size=(rows.size, d))
    elif kind == "offset_1e9":  # the certificate declines: the dense fallback
        x += 1e9 * np.sqrt(np.diag(sigma))
    elif kind == "singular_sigma":  # the null-space path (the zero matrix at d = 1)
        sigma = np.diag(np.r_[np.full(d - 1, 4.0), 0.0])
        x[::2, -1] = 0.5  # zero null mass between these rows
    elif kind == "zero_sigma":  # exact ties only
        sigma = np.zeros((d, d))
        x[:50] = x[50:100]
    return x, sigma, kind in ("offset_1e9", "singular_sigma", "zero_sigma")


@pytest.mark.parametrize(
    "kind", ["clean", "far_rows", "offset_1e9", "singular_sigma", "zero_sigma"]
)
@pytest.mark.parametrize("d", [1, 3, 20])
def test_self_reference_counts_match_a_copy(monkeypatch, kind, d):
    # A block that is its own reference set is whitened and centered once,
    # and its dense products still run against a separate operand, so the
    # counts equal those against a copy bit for bit.
    gen = np.random.default_rng([d, *kind.encode()])
    x, sigma, dense_path = _self_reference_block(kind, d, gen)
    dense = estimators._pairwise_sq_euclid
    calls = []
    monkeypatch.setattr(
        estimators, "_pairwise_sq_euclid", lambda a, b: calls.append(a.shape) or dense(a, b)
    )
    lams = [math.e**2 * lambda0 for lambda0 in (1.0, 30.0, 300.0)]
    neighbor_counts(x, x, sigma, lams[1])
    assert bool(calls) == dense_path
    pair_values = dense_mahalanobis_sq(x, x.copy(), sigma).ravel()
    pair_values = pair_values[np.isfinite(pair_values) & (pair_values > 0.0)]
    if pair_values.size:  # none under a zero sigma: ties are 0, the rest inf
        picks = gen.choice(pair_values, size=4)
        lams += [float(v) for v in np.r_[picks, np.nextafter(picks, 0.0)]]
    for lam in lams:
        want = neighbor_counts(x, x.copy(), sigma, lam)
        got = neighbor_counts(x, x, sigma, lam)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), lam


def test_eigh_of_the_identity_is_exact():
    # neighbor_counts skips the decomposition of an exact identity sigma,
    # on this premise: eigh returns eigenvalues ones and eigenvectors I for
    # it, bit for bit, and the same values when its zeros are -0.0
    for d in (*range(1, 65), 100, 500):
        eye = np.eye(d)
        w, u = np.linalg.eigh(eye)
        assert w.tobytes() == np.ones(d).tobytes() and u.tobytes() == eye.tobytes(), d
        eye[~np.eye(d, dtype=bool)] = -0.0
        w, u = np.linalg.eigh(eye)
        assert np.array_equal(w, np.ones(d)) and np.array_equal(u, np.eye(d)), d


def _identity_route_block(kind, d, gen):
    x = 2.0 * gen.standard_normal((150, d))
    if kind == "negative_zero":
        x[::3] = -0.0
    elif kind == "subnormal":
        x[::4] = 5e-324 * gen.integers(-4, 5, size=(38, d))
    elif kind in ("scaled_1e150", "scaled_1e-150"):
        x *= 1e150 if kind == "scaled_1e150" else 1e-150
    elif kind == "far_rows":
        rows = gen.choice(x.shape[0], size=int(gen.integers(1, 4)), replace=False)
        x[rows] = 1e6 * gen.choice([-1.0, 1.0], size=(rows.size, d))
    elif kind == "offset_1e12":
        x += 1e12 * gen.choice([-1.0, 1.0], size=d)
    return x


def _near_identity(d):
    """The identity, with +0.0 and with -0.0 off the diagonal, and PSD
    matrices next to it, each with whether it is exactly the identity."""
    eye = np.eye(d)
    yield eye, True
    negative_zeros = eye.copy()
    negative_zeros[~np.eye(d, dtype=bool)] = -0.0
    yield negative_zeros, True
    for entry in (np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 4.0, 0.0):
        near = eye.copy()
        near[-1, -1] = entry
        yield near, False
    if d > 1:
        coupled = eye.copy()
        coupled[0, 1] = coupled[1, 0] = 0.5
        yield coupled, False


@pytest.mark.parametrize(
    "kind", ["clean", "negative_zero", "subnormal", "scaled_1e150", "scaled_1e-150",
             "far_rows", "offset_1e12"]
)
@pytest.mark.parametrize("d", [1, 2, 20])
def test_identity_route_matches_the_eigh_route(monkeypatch, kind, d):
    # An exact identity sigma is neither decomposed nor used to whiten; its
    # counts equal, bit for bit, those of the eigh route (forced here) and
    # of the dense matrix, for a block that is its own reference set and
    # for a gathered one, at radii equal to exact pair values. Matrices
    # next to the identity take the eigh route.
    gen = np.random.default_rng([d, *kind.encode()])
    x = _identity_route_block(kind, d, gen)
    gathered = x[np.sort(gen.choice(x.shape[0], size=100, replace=False))]
    eigh, decompositions = estimators._eigh, []
    monkeypatch.setattr(estimators, "_eigh", lambda a: decompositions.append(a.shape) or eigh(a))
    for sigma, identity in _near_identity(d):
        for ref in (x, gathered):
            dist = dense_mahalanobis_sq(x, ref.copy(), sigma)
            lams = [math.e**2 * 30.0]
            pair_values = dist[np.isfinite(dist) & (dist > 0.0)]
            if pair_values.size:  # none under the zero matrix at d = 1
                picks = np.r_[gen.choice(pair_values, size=3), pair_values.max()]
                lams += [*picks, *np.nextafter(picks, 0.0)]
            for lam in lams:
                decompositions.clear()
                got = neighbor_counts(x, ref, sigma, lam)
                assert bool(decompositions) != identity
                assert np.array_equal(got, np.sum(dist <= lam, axis=1)), (sigma, lam)
                if identity:
                    with monkeypatch.context() as m:
                        m.setattr(estimators, "_is_identity", lambda a: False)
                        assert np.array_equal(neighbor_counts(x, ref, sigma, lam), got), lam


def test_far_rows_at_d20_take_no_dense_matrix(monkeypatch):
    # The known-covariance mean block of the d = 20 plan, offset from the
    # origin by up to 1e6 per coordinate, with 1-3 rows moved 1e6 along
    # random directions, is its own reference set under the identity. The
    # centered pair product decides every far pair, so no dense matrix is
    # formed, and the counts are the dense matrix's.
    sp = plan(0.2, PrivacyParams(1.0, 0.05), 20)
    lam = math.e**2 * sp.lambda0
    calls = []
    dense = estimators._pairwise_sq_euclid
    monkeypatch.setattr(
        estimators, "_pairwise_sq_euclid", lambda a, b: calls.append(a.shape) or dense(a, b)
    )
    gen = np.random.default_rng(20)
    for _ in range(10):
        mu = gen.choice([-1.0, 1.0], size=20) * 10.0 ** gen.uniform(0.0, 6.0, size=20)
        x = mu + gen.standard_normal((sp.n1, 20))
        rows = gen.choice(sp.n1, size=int(gen.integers(1, 4)), replace=False)
        u = gen.standard_normal((rows.size, 20))
        x[rows] += 1e6 * u / np.linalg.norm(u, axis=1, keepdims=True)
        got = neighbor_counts(x, x, np.eye(20), lam)
        assert calls == []
        want = np.sum(dense_mahalanobis_sq(x, x.copy(), np.eye(20)) <= lam, axis=1)
        assert np.array_equal(got, want)
        # each far row counts itself only, every other row the rest
        assert np.all(got[rows] == 1)
        assert np.count_nonzero(got == sp.n1 - rows.size) == sp.n1 - rows.size


def test_certificate_skips_the_dense_matrix_on_clean_data(monkeypatch):
    calls = []
    dense = estimators._pairwise_sq_euclid
    monkeypatch.setattr(
        estimators, "_pairwise_sq_euclid", lambda a, b: calls.append(a.shape) or dense(a, b)
    )
    gen = np.random.default_rng(30)
    cfg = EstimatorConfig(lambda0=106.0, k=33)
    x = 3.0 + 2.0 * gen.standard_normal((428, 1))
    sigma = np.array([[4.0]])
    r = np.arange(428)
    out = stable_mean(x, sigma, cfg, r)
    assert calls == []
    assert out.score == 0 and np.all(out.counts == cfg.k)
    # Far from the origin in whitened units the dense expansion's own
    # rounding reaches lambda, so the certificate declines and the dense
    # matrix decides, with the same counts as the reference.
    far = x + 1e12 * 2.0
    lam = math.e**2 * cfg.lambda0
    got = neighbor_counts(far, far[r], sigma, lam)
    assert calls == [(428, 1)]
    assert np.array_equal(got, np.sum(dense_mahalanobis_sq(far, far[r], sigma) <= lam, axis=1))


@pytest.mark.parametrize("d", [1, 3, 20])
def test_certificate_declines_at_the_documented_offset(monkeypatch, d):
    # A clean block that is its own reference set, at whitened offset t
    # from the origin: the center c sits near t, so the certificate declines
    # once eta (2|c| + max r + max s)^2 >= lam, at t of about
    # 5e5 sqrt(lam) (eta = 1e-12). Below that the whole block is decided.
    calls = []
    dense = estimators._pairwise_sq_euclid
    monkeypatch.setattr(
        estimators, "_pairwise_sq_euclid", lambda a, b: calls.append(a.shape) or dense(a, b)
    )
    lam = math.e**2 * 30.0
    gen = np.random.default_rng(d)
    block = 0.1 * math.sqrt(lam / d) * gen.standard_normal((200, d))
    direction = np.full(d, 1.0 / math.sqrt(d))
    for rel, dense_path in ((0.8, False), (1.25, True)):
        x = block + rel * 5e5 * math.sqrt(lam) * direction
        calls.clear()
        counts = neighbor_counts(x, x, np.eye(d), lam)
        assert bool(calls) == dense_path, rel
        if not dense_path:
            assert np.all(counts == x.shape[0])


def test_certificate_declines_from_dimension_2000():
    # eta = 1e-12 covers the rounding bound 4 gamma_{d+4} only for d < 2000;
    # a clean self-referenced block is decided whole below that and declined
    # from it on
    lam = 1e5
    gen = np.random.default_rng(2000)
    for d, decided in ((1999, True), (2000, False)):
        a = gen.standard_normal((4, d))
        counts = estimators._certified_counts(a, a, lam)
        assert (counts is not None) == decided, d
        if decided:
            assert counts.tolist() == [4, 4, 4, 4]


def test_neighbor_counts_small_example():
    x = np.array([[0.0], [0.1], [10.0]])
    ref = x[[0, 1]]
    assert neighbor_counts(x, ref, np.eye(1), 1.0).tolist() == [2, 2, 0]
    assert neighbor_counts(x, ref, np.eye(1), 200.0).tolist() == [2, 2, 2]


def test_stable_mean_rejects_bad_reference():
    x = np.zeros((4, 1))
    with pytest.raises(EmptyReferenceSet):
        stable_mean(x, np.eye(1), CFG, np.array([], dtype=int))
    with pytest.raises(PreconditionViolated):
        stable_mean(x, np.eye(1), CFG, np.array([0, 0]))
    with pytest.raises(PreconditionViolated):
        stable_mean(x, np.eye(1), CFG, np.array([4]))
    # sorted but out of range at either end, and distinct but unsorted
    for r in ([-1, 2], [1, 4]):
        with pytest.raises(PreconditionViolated, match="out of range"):
            stable_mean(x, np.eye(1), CFG, np.array(r))
    with pytest.raises(PreconditionViolated, match="distinct"):
        stable_mean(x, np.eye(1), CFG, np.array([2, 1, 2]))
    with pytest.warns(RuntimeWarning, match="not larger than 6k"):
        assert stable_mean(x, np.eye(1), CFG, np.array([3, 0, 1])).score == 0


@pytest.mark.parametrize("sigma", [-np.eye(2), np.diag([1.0, -1.0])])
def test_stable_mean_rejects_sigma_that_is_not_psd(monkeypatch, sigma):
    # -I is not the zero matrix, and the negative direction of diag(1, -1)
    # is not null space: both raise before any pair is counted
    def never(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(estimators, "_certified_counts", never)
    monkeypatch.setattr(estimators, "_pairwise_sq_euclid", never)
    x = np.random.default_rng(31).standard_normal((40, 2))
    with pytest.raises(NotPD):
        stable_mean(x, sigma, CFG, np.arange(40))


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
        out = stable_mean(x, sigma, cfg, r)
        counts = np.zeros(45, dtype=int)
        sizes = []
        for ell in range(2 * cfg.k + 1):
            core = np.flatnonzero(neighbor_counts(x, x[r], sigma, lam) >= r.size - ell)
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


@pytest.mark.parametrize("bad", [-1.0, -1e-200, -1e300])
def test_negative_one_by_one_sigma_raises_not_pd(bad):
    x = np.arange(6.0).reshape(-1, 1)
    with pytest.raises(NotPD):
        neighbor_counts(x, x, np.array([[bad]]), 4.0)
