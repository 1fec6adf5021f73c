import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from dpgs import estimators, samplers
from dpgs.estimators import EstimatorConfig
from dpgs.exceptions import (
    InvalidParams,
    NonFiniteInput,
    PreconditionViolated,
    ShapeMismatch,
    SubsetTooLarge,
)
from dpgs.linalg import sym_sqrt
from dpgs.privacy import Gate, PrivacyParams, PtrOutcome, plan, truncated_laplace
from dpgs.randomness import RngStream, sphere_point
from dpgs.samplers import cov_aware_mean, sample_known_cov, sample_unbounded
from trace_json import trace_dict

PLAN = plan(0.2, PrivacyParams(1.0, 0.05), 1)
PLAN2 = plan(0.2, PrivacyParams(1.0, 0.05), 2)


def gaussian_data(gen, n, mu, sigma_root):
    d = len(mu)
    return gen.standard_normal((n, d)) @ np.asarray(sigma_root).T + np.asarray(mu)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        sample_unbounded(np.zeros((10, 1)), PLAN, RngStream(0))
    with pytest.raises(ShapeMismatch):
        sample_unbounded(np.zeros((PLAN.n, 2)), PLAN, RngStream(0))
    with pytest.raises(ShapeMismatch):
        sample_known_cov(np.zeros((PLAN.n1 + 1, 1)), PLAN, RngStream(0))


class UntouchedStream(RngStream):
    """A stream whose generator must never be created."""

    def generator(self):
        raise AssertionError("the stream was drawn from")


def test_cov_aware_mean_rejects_zero_columns_before_any_draw():
    with pytest.raises(ShapeMismatch):
        cov_aware_mean(np.zeros((2000, 0)), PrivacyParams(1.0, 0.05), 20.0, UntouchedStream(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected_before_any_draw(bad):
    gen = np.random.default_rng(99)
    x = gaussian_data(gen, PLAN2.n, [1.0, 2.0], np.eye(2))
    mean_row, cov_row = 3, PLAN2.n1 + 5
    for row in (mean_row, cov_row):
        xb = x.copy()
        xb[row, 1] = bad
        with pytest.raises(NonFiniteInput):
            sample_unbounded(xb, PLAN2, UntouchedStream(0))
        with pytest.raises(NonFiniteInput):
            cov_aware_mean(xb, PLAN2.params, PLAN2.lambda0, UntouchedStream(0))
        with pytest.raises(NonFiniteInput):
            cov_aware_mean(
                xb, PLAN2.params, PLAN2.lambda0, UntouchedStream(0), split_n1=PLAN2.n1
            )
    xk = x[: PLAN2.n1].copy()
    xk[mean_row, 0] = bad
    with pytest.raises(NonFiniteInput):
        sample_known_cov(xk, PLAN2, UntouchedStream(0))


# inf and 1e308: e^2 lambda0, the top ladder rung, overflows
@pytest.mark.parametrize("lambda0", [0.5, np.nan, np.inf, 1e308])
def test_bad_lambda0_rejected_before_any_draw(lambda0):
    x = gaussian_data(np.random.default_rng(98), PLAN2.n, [1.0, 2.0], np.eye(2))
    for split_n1 in (None, PLAN2.n1):
        with pytest.raises(PreconditionViolated, match="lambda0 must be >= 1"):
            cov_aware_mean(x, PLAN2.params, lambda0, UntouchedStream(0), split_n1=split_n1)


@pytest.mark.parametrize("lambda0", [1e306, 1e307])
def test_lambda0_whose_noise_scale_overflows_rejected_before_any_draw(lambda0):
    x = gaussian_data(np.random.default_rng(98), PLAN2.n, [1.0, 2.0], np.eye(2))
    with pytest.raises(InvalidParams, match="noise scale"):
        cov_aware_mean(x, PLAN2.params, lambda0, UntouchedStream(0))


def test_unbounded_deterministic_replay():
    gen = np.random.default_rng(100)
    x = gaussian_data(gen, PLAN.n, [3.0], [[math.sqrt(2.0)]])
    r1, t1 = sample_unbounded(x, PLAN, RngStream(7, 1))
    r2, t2 = sample_unbounded(x, PLAN, RngStream(7, 1))
    assert np.array_equal(r1.value, r2.value)
    assert trace_dict(t1) == trace_dict(t2)


def test_full_reference_set_draws_gate_noise_first():
    # At ref_size == n1 the reference set is the whole mean block and takes
    # no draw: the gate's truncated Laplace is the stream's first draw and
    # the release noise its next ones.
    assert PLAN.ref_size == PLAN.n1
    gen = np.random.default_rng(102)
    x = gaussian_data(gen, PLAN.n, [3.0], [[math.sqrt(2.0)]])
    known = gaussian_data(gen, PLAN.n1, [3.0], [[1.0]])
    gate = Gate.of(PLAN.params)
    cfg = EstimatorConfig(PLAN.lambda0, PLAN.k)
    scale = math.sqrt((1.0 - 1.0 / PLAN.n1) * PLAN.n2)
    cases = (
        (sample_unbounded, x, x[: PLAN.n1], x[PLAN.n1 :],
         lambda g, est: scale * (est.cov.w_matrix @ sphere_point(g, PLAN.n2))),
        (sample_known_cov, known, known, None,
         lambda g, est: math.sqrt(1.0 - 1.0 / PLAN.n1) * g.standard_normal(PLAN.d)),
    )
    for run, data, mean_block, cov_block, noise in cases:
        for seed in range(3):
            rng = RngStream(seed, 4)
            result, trace = run(data, PLAN, rng)
            assert np.array_equal(trace.reference_set, np.arange(PLAN.n1))
            est = samplers.estimate(mean_block, cov_block, cfg, np.arange(PLAN.n1))
            g = rng.generator()
            eta = truncated_laplace(g, gate.scale, gate.threshold)
            passed = est.score + eta < gate.threshold
            assert trace.ptr is (PtrOutcome.PASS if passed else PtrOutcome.FAIL)
            assert passed and not result.failed
            assert result.value.tobytes() == (est.mu_hat + noise(g, est)).tobytes()


@pytest.mark.parametrize("d", [1, 2, 5, 20])
def test_clean_release_is_the_idealized_sampler(d):
    # On clean data both scores are 0 and every count is k, so the gate
    # passes surely and the release is the idealized sampler
    # mean(head) + sqrt(1 - 1/n1) Y^T z: Y holds the pairs
    # (x_i - x_{i+m}) / sqrt(2) of the covariance block and z is the
    # stream's sphere point after the gate's draw. sample_known_cov's is
    # mean(x) + sqrt(1 - 1/n1) g, g the standard normal draw after the gate's.
    sp = plan(0.2, PrivacyParams(1.0, 0.05), d)
    gen = np.random.default_rng(800 + d)
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    root = q * np.linspace(0.5, 2.0, d)
    mu = 3.0 + np.arange(d)
    inflation = math.sqrt(1.0 - 1.0 / sp.n1)

    def pairs_times_sphere_point(x, g):
        cov = x[sp.n1 :]
        y = (cov[: sp.n2] - cov[sp.n2 :]) / math.sqrt(2.0)
        u = g.standard_normal(sp.n2)
        return y.T @ (u / np.linalg.norm(u))

    for seed in range(3):
        cases = (
            (sample_unbounded, gaussian_data(gen, sp.n, mu, root), pairs_times_sphere_point),
            (sample_known_cov, gaussian_data(gen, sp.n1, mu, np.eye(d)),
             lambda x, g: g.standard_normal(d)),
        )
        for run, x, noise in cases:
            rng = RngStream(seed, 9)
            result, trace = run(x, sp, rng)
            assert trace.score_mean == 0 and trace.score_cov in (0, None)
            assert trace.mean_uniform and trace.cov_uniform in (True, None)
            g = rng.generator()
            g.random()  # the gate's one draw
            ideal = x[: sp.n1].mean(axis=0) + inflation * noise(x, g)
            assert np.linalg.norm(result.value - ideal) <= 1e-9 * np.linalg.norm(ideal)


def test_release_does_not_depend_on_memory_layout():
    # BLAS rounds a product by the layout of its operands, so each entry
    # point makes its input C-contiguous before any product: the released
    # bytes, both scores and the gate bit of Fortran-order input are those
    # of the same values in C order.
    sp = plan(0.2, PrivacyParams(1.0, 0.05), 20)
    gen = np.random.default_rng(77)
    q, _ = np.linalg.qr(gen.standard_normal((sp.d, sp.d)))
    z = gen.standard_normal((sp.n, sp.d))
    z[gen.choice(sp.n, 6, replace=False)] *= 1e6
    x = 1e3 + (z * np.sqrt(np.logspace(0.0, 2.0, sp.d))) @ q.T
    known = 1e3 + gen.standard_normal((sp.n1, sp.d))
    known[:2] *= 1e3
    for seed in range(2):
        rng = RngStream(seed)
        for run, data in (
            (lambda v: sample_unbounded(v, sp, rng), x),
            (lambda v: cov_aware_mean(v, sp.params, sp.lambda0, rng), x),
            (lambda v: sample_known_cov(v, sp, rng), known),
        ):
            (want, want_trace), (got, got_trace) = run(data), run(np.asfortranarray(data))
            assert not want.failed
            assert want.value.tobytes() == got.value.tobytes()
            for field in ("score_cov", "score_mean", "ptr"):
                assert getattr(got_trace, field) == getattr(want_trace, field)


def test_unbounded_clean_data_flags():
    gen = np.random.default_rng(101)
    x = gaussian_data(gen, PLAN.n, [3.0], [[math.sqrt(2.0)]])
    res, trace = sample_unbounded(x, PLAN, RngStream(11))
    assert trace.score_cov == 0 and trace.score_mean == 0
    assert trace.cov_uniform and trace.mean_uniform
    assert trace.ptr is PtrOutcome.PASS
    assert res.value is not None and res.value.shape == (1,)
    assert trace.reference_set.size == PLAN.ref_size
    assert trace.reference_set.max() < PLAN.n1


def test_failed_iff_gate_failed():
    gen = np.random.default_rng(102)
    x = gaussian_data(gen, PLAN.n, [0.0], [[1.0]])
    # corrupt covariance rows with staggered magnitudes so the subset filter
    # peels them one at a time, putting the score near the gate midpoint
    x[PLAN.n1 : PLAN.n1 + 16, 0] = 10.0 ** (4.0 + np.arange(16))
    seen = set()
    for seed in range(40):
        res, trace = sample_unbounded(x, PLAN, RngStream(seed))
        assert res.failed == (trace.ptr is PtrOutcome.FAIL)
        assert (res.value is None) == res.failed
        seen.add(trace.ptr)
    assert seen == {PtrOutcome.PASS, PtrOutcome.FAIL}


def test_adjacent_runs_couple_reference_and_output():
    # one mean-block row changes; under a shared stream the reference set,
    # gate noise and sphere point all replay, so the outputs differ exactly
    # by the difference of the weighted means
    gen = np.random.default_rng(103)
    x = gaussian_data(gen, PLAN.n, [1.0], [[1.0]])
    x2 = x.copy()
    x2[5, 0] += 0.5
    stream = RngStream(13)
    r1, t1 = sample_unbounded(x, PLAN, stream)
    r2, t2 = sample_unbounded(x2, PLAN, stream)
    assert np.array_equal(t1.reference_set, t2.reference_set)
    assert t1.ptr is PtrOutcome.PASS and t2.ptr is PtrOutcome.PASS

    cfg = EstimatorConfig(PLAN.lambda0, PLAN.k)
    mus = [
        samplers.estimate(data[: PLAN.n1], data[PLAN.n1 :], cfg, t1.reference_set).mu_hat
        for data in (x, x2)
    ]
    assert np.allclose(r1.value - r2.value, mus[0] - mus[1], atol=1e-12)


def _estimate_bytes(est):
    arrays = [est.sigma_hat, est.mu_hat, est.mean.weights, est.mean.counts]
    if est.cov is not None:
        arrays += [est.cov.w_matrix, est.cov.weights, est.cov.counts]
    scores = (None if est.cov is None else est.cov.score, est.mean.score)
    return scores, [a.tobytes() for a in arrays]


@pytest.mark.parametrize("contaminated", [False, True])
@pytest.mark.parametrize("pipeline", ["unbounded", "mean", "known_cov"])
def test_estimate_at_the_reference_set_reproduces_the_trace(pipeline, contaminated):
    # Each pipeline gates and reports the one chain samplers.estimate runs:
    # estimate at the trace's reference set gives back its scores and
    # uniform flags, and it is a pure function of its arguments. A reference
    # size below n1 makes the reference set matter.
    sp = dataclasses.replace(PLAN2, ref_size=300)
    x = gaussian_data(np.random.default_rng(120), sp.n, [1.0, -2.0], [[2.0, 0.0], [0.5, 1.0]])
    if contaminated:
        x[sp.n1 : sp.n1 + 6, 0] = 10.0 ** (4.0 + np.arange(6))
        x[:6, 1] = 10.0 ** (2.0 + np.arange(6))
    if pipeline == "unbounded":
        _, trace = sample_unbounded(x, sp, RngStream(31))
        blocks = (x[: sp.n1], x[sp.n1 :])
    elif pipeline == "mean":
        _, trace = cov_aware_mean(x, sp.params, sp.lambda0, RngStream(31))
        blocks = (x, x[: 2 * (sp.n // 2)])
    else:
        _, trace = sample_known_cov(x[: sp.n1], sp, RngStream(31))
        blocks = (x[: sp.n1], None)
    cfg = EstimatorConfig(trace.sizes["lambda0"], trace.sizes["k"])
    est = samplers.estimate(*blocks, cfg, trace.reference_set)
    assert est.mean.score == trace.score_mean
    assert bool((est.mean.counts == cfg.k).all()) == trace.mean_uniform
    if pipeline == "known_cov":
        assert est.cov is None and trace.score_cov is None and trace.cov_uniform is None
    else:
        assert est.cov.score == trace.score_cov
        assert bool((est.cov.counts == cfg.k).all()) == trace.cov_uniform
    assert (est.score > 0) == contaminated
    assert _estimate_bytes(samplers.estimate(*blocks, cfg, trace.reference_set)) == (
        _estimate_bytes(est)
    )


def test_unbounded_pass_rate_meets_target():
    gen = np.random.default_rng(104)
    fails = 0
    trials = 300
    for i in range(trials):
        x = gaussian_data(gen, PLAN.n, [-2.0], [[3.0]])
        res, _ = sample_unbounded(x, PLAN, RngStream(1000, i))
        fails += res.failed
    assert fails / trials <= 0.2 + 0.05


def test_unbounded_output_law_univariate():
    # with uniform weights the output is an exact draw from the source law;
    # fresh data each run, so the collected outputs should pass a KS test
    mu, sigma = 3.0, math.sqrt(2.0)
    gen = np.random.default_rng(105)
    outs = []
    for i in range(1200):
        x = gaussian_data(gen, PLAN.n, [mu], [[sigma]])
        res, trace = sample_unbounded(x, PLAN, RngStream(2000, i))
        if res.value is not None and trace.cov_uniform and trace.mean_uniform:
            outs.append(res.value[0])
    assert len(outs) >= 1100
    ks = stats.kstest(np.array(outs), stats.norm(loc=mu, scale=sigma).cdf)
    assert ks.pvalue >= 1e-3


def test_unbounded_bivariate_shapes_and_law():
    mu = np.array([1.0, -1.0])
    root = np.array([[1.0, 0.0], [0.6, 0.8]])
    gen = np.random.default_rng(106)
    outs = []
    for i in range(400):
        x = gaussian_data(gen, PLAN2.n, mu, root)
        res, _ = sample_unbounded(x, PLAN2, RngStream(3000, i))
        if res.value is not None:
            outs.append(res.value)
    outs = np.array(outs)
    assert outs.shape[1] == 2
    assert np.allclose(outs.mean(axis=0), mu, atol=0.25)
    emp = np.cov(outs.T)
    assert np.allclose(emp, root @ root.T, atol=0.35)


def test_known_cov_deterministic_and_flags():
    gen = np.random.default_rng(107)
    x = gen.standard_normal((PLAN.n1, 1)) + 4.0
    r1, t1 = sample_known_cov(x, PLAN, RngStream(17))
    r2, t2 = sample_known_cov(x, PLAN, RngStream(17))
    assert np.array_equal(r1.value, r2.value)
    assert t1.score_cov is None and t1.cov_uniform is None
    assert t1.mean_uniform and t1.score_mean == 0
    assert t2.ptr is PtrOutcome.PASS


def test_known_cov_output_law_tv():
    # successful outputs against fresh draws from the true law: the binned
    # total variation estimate stays within the failure budget
    from dpgs.divergences import tv_histogram

    mu = -2.0
    gen = np.random.default_rng(108)
    outs = []
    i = 0
    while len(outs) < 50_000:
        x = gen.standard_normal((PLAN.n1, 1)) + mu
        res, _ = sample_known_cov(x, PLAN, RngStream(4000, i))
        i += 1
        if res.value is not None:
            outs.append(res.value[0])
    fresh = gen.standard_normal(50_000) + mu
    est = tv_histogram(np.array(outs), fresh, rng=RngStream(4001))
    assert est.tv <= 0.2 + 3.0 * est.boot_sigma


def test_cov_aware_mean_near_degenerate_recovers_center():
    mu0 = np.array([0.5, -1.25])
    gen = np.random.default_rng(109)
    x = mu0 + 1e-9 * gen.standard_normal((400, 2))
    res, trace = cov_aware_mean(x, PrivacyParams(1.0, 0.1), 1e6, RngStream(19))
    assert trace.score_cov == 0 and trace.score_mean == 0
    assert trace.ptr is PtrOutcome.PASS
    assert np.allclose(res.value, mu0, atol=1e-4)


def test_cov_aware_mean_exactly_degenerate_fails_gate():
    # identical rows make every pairing difference zero, the subset filter
    # empties out and the covariance score hits its ceiling, which the gate
    # rejects deterministically
    x = np.tile([[0.5, -1.25]], (400, 1))
    params = PrivacyParams(1.0, 0.1)
    res, trace = cov_aware_mean(x, params, 1e6, RngStream(19))
    assert trace.score_cov == trace.sizes["k"]
    assert res.failed


def test_zero_covariance_noise_is_exact():
    # the output formula collapses to the weighted mean when sigma_hat = 0
    gen = np.random.default_rng(110)
    mu_hat = np.array([0.5, -1.25])
    g = gen.standard_normal(2)
    value = mu_hat + math.sqrt(5.0) * (sym_sqrt(np.zeros((2, 2))) @ g)
    assert np.array_equal(value, mu_hat)


def test_cov_aware_mean_gaussian_accuracy():
    mu = np.array([10.0, -3.0])
    gen = np.random.default_rng(111)
    x = gaussian_data(gen, 1000, mu, np.eye(2))
    params = PrivacyParams(1.0, 0.05)
    lam0 = 60.0
    res, trace = cov_aware_mean(x, params, lam0, RngStream(23))
    assert trace.ptr is PtrOutcome.PASS
    assert trace.score_cov == 0 and trace.score_mean == 0
    # noise scale c is about 1.32 at these sizes, so 6 is a >4 sigma margin
    assert np.linalg.norm(res.value - mu) <= 6.0


def test_cov_aware_mean_split_block():
    gen = np.random.default_rng(112)
    x = gaussian_data(gen, 1200, [0.0], [[1.0]])
    res, trace = cov_aware_mean(x, PrivacyParams(1.0, 0.05), 60.0, RngStream(29), split_n1=600)
    assert trace.sizes["n"] == 1200
    assert trace.reference_set.max() < 600
    with pytest.raises(ShapeMismatch):
        cov_aware_mean(x, PrivacyParams(1.0, 0.05), 60.0, RngStream(29), split_n1=599)
    with pytest.raises(ShapeMismatch):
        cov_aware_mean(x, PrivacyParams(1.0, 0.05), 60.0, RngStream(29), split_n1=1200)


def test_cov_aware_mean_reference_floor():
    x = np.zeros((80, 1))
    with pytest.raises(SubsetTooLarge):
        cov_aware_mean(x, PrivacyParams(1.0, 0.05), 10.0, RngStream(0))


def _eigh_route_sym_sqrt(a, eig=None):
    # linalg.sym_sqrt's eigen route, the reference for its 1 x 1 closed form;
    # it decomposes a itself and ignores a supplied decomposition
    w, u = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    w, u = np.clip(w[order], 0.0, None), u[:, order]
    return (u * np.sqrt(w)) @ u.T


def test_one_by_one_closed_forms_match_lapack_bitwise():
    # about 20k log-uniform magnitudes over 1e-300..1e300, both signs, and
    # the edges: signed zeros, the smallest subnormal, near the largest
    gen = np.random.default_rng(1717)
    mags = 10.0 ** gen.uniform(-300.0, 300.0, 10_000)
    values = np.r_[mags, -mags, 0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]
    for v in values:
        a = np.array([[v]])
        w, u = estimators._eigh(a)
        want_w, want_u = np.linalg.eigh(a)
        for got, want in ((w, want_w), (u, want_u)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), v
        got, want = sym_sqrt(a), _eigh_route_sym_sqrt(a)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), v
    assert np.signbit(estimators._eigh(np.array([[-0.0]]))[0][0])


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("far_cov_row", [False, True])
def test_cov_aware_mean_decomposes_sigma_hat_once(monkeypatch, d, far_cov_row):
    # stable_mean's whitening and the release root share one eigh of
    # sigma_hat, so a passing call makes the covariance ladder's eigh calls
    # and one more, counted on numpy itself whichever module calls it.
    sp = plan(0.2, PrivacyParams(1.0, 0.05), d)
    x = 3.0 + np.random.default_rng(2024).standard_normal((sp.n, d))
    if far_cov_row:  # the ladder prunes, so it takes more than one eigh
        x[sp.n1, 0] = 1e6
    cfg = EstimatorConfig(sp.lambda0, math.ceil(Gate.of(sp.params).fail_score))
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    estimators.stable_cov(x[sp.n1 :], cfg)
    ladder = len(calls)
    calls.clear()
    res, trace = cov_aware_mean(x, sp.params, sp.lambda0, RngStream(1, 1), split_n1=sp.n1)
    assert trace.sizes["k"] == cfg.k and not res.failed
    assert ladder >= 2 if far_cov_row else ladder == 1
    assert calls == [(d, d)] * (ladder + 1)


def _d1_case(kind, gen):
    x = 3.0 + gen.standard_normal((PLAN.n, 1))
    if kind == "constant_cov":  # zero-variance covariance block: singular scatter
        x[PLAN.n1 :] = 2.5
    elif kind == "far_cov_row":  # the ladder runs
        x[PLAN.n1 + 7, 0] = 1e6
    elif kind in ("scaled_up", "scaled_down"):
        x *= 1e150 if kind == "scaled_up" else 1e-150
    elif kind == "negative_zero_mean":
        x[: PLAN.n1 : 3] = -0.0
    return x


def _d1_releases(x):
    out = []
    for seed in range(4):
        runs = (
            sample_unbounded(x, PLAN, RngStream(seed, 1)),
            cov_aware_mean(x, PLAN.params, PLAN.lambda0, RngStream(seed, 2)),
            sample_known_cov(x[: PLAN.n1], PLAN, RngStream(seed, 3)),
        )
        for res, trace in runs:
            value = None if res.value is None else res.value.tobytes()
            out.append((value, trace.score_cov, trace.score_mean, trace.ptr,
                        trace.cov_uniform, trace.mean_uniform))
    return out


@pytest.mark.parametrize(
    "kind", ["clean", "constant_cov", "far_cov_row", "scaled_up", "scaled_down",
             "negative_zero_mean"]
)
def test_d1_releases_match_the_lapack_route(monkeypatch, kind):
    # The 1 x 1 closed forms of estimators._eigh and linalg.sym_sqrt give
    # the released bytes, scores and gate bits of the eigh calls they skip.
    x = _d1_case(kind, np.random.default_rng(606))
    fast = _d1_releases(x)
    calls = []
    monkeypatch.setattr(estimators, "_eigh", lambda a: calls.append(a.shape) or np.linalg.eigh(a))
    monkeypatch.setattr(samplers, "sym_sqrt", _eigh_route_sym_sqrt)
    assert _d1_releases(x) == fast
    assert calls and all(shape == (1, 1) for shape in calls)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the mean block far from the origin")
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("shift", [3e9, 1e12])
@pytest.mark.parametrize("pipeline", ["unbounded", "known_cov"])
def test_mean_block_far_from_the_origin_keeps_its_score(d, shift, pipeline):
    # Shifting every row by one constant moves no Mahalanobis distance, so
    # the mean score must not move. Clean data scores 0 unshifted; shifted
    # by 3e9 or 1e12 the uncentered whitening loses the distances and the
    # score reads k = 33 on every case here.
    sp = plan(0.2, PrivacyParams(1.0, 0.05), d)
    x = np.random.default_rng(0).standard_normal((sp.n, d))
    if pipeline == "known_cov":
        run, x = sample_known_cov, x[: sp.n1]
    else:
        run = sample_unbounded
    assert run(x, sp, RngStream(1, 1))[1].score_mean == 0
    assert run(x + shift, sp, RngStream(1, 1))[1].score_mean == 0
