import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgs.exceptions import InvalidParams, PreconditionViolated
from dpgs.privacy import (
    PrivacyParams,
    PtrOutcome,
    fail_threshold,
    gate_leakage,
    ladder_granularity,
    noise_multiplier_sq,
    outlier_threshold,
    pass_threshold,
    plan,
    reference_size,
    truncated_laplace,
)
from dpgs.randomness import RngStream
from dpgs.samplers import ptr_check

valid_params = st.tuples(
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1e-4, max_value=1.0, exclude_max=True),
).map(lambda t: PrivacyParams(t[0], t[0] / 10.0 * t[1]))


def test_params_validation():
    PrivacyParams(1.0, 0.1)  # boundary delta = eps / 10 is allowed
    with pytest.raises(InvalidParams):
        PrivacyParams(1.5, 0.05)
    with pytest.raises(InvalidParams):
        PrivacyParams(0.5, 0.06)
    with pytest.raises(InvalidParams):
        PrivacyParams(0.0, 0.0)
    with pytest.raises(InvalidParams):
        PrivacyParams(0.5, 0.0)


def test_params_split():
    p = PrivacyParams(0.9, 0.09)
    s = p.split(1.0 / 3.0, 1.0 / 6.0)
    assert s.epsilon == pytest.approx(0.3)
    assert s.delta == pytest.approx(0.015)


def test_ladder_granularity_round_number():
    # eps = 1, delta = 6 e^-6 makes log(6/delta) exactly 6
    assert ladder_granularity(PrivacyParams(1.0, 6.0 * math.e**-6)) == 40


def test_ladder_granularity_log_base_two():
    p = PrivacyParams(1.0, 0.05)
    assert ladder_granularity(p, log_base=2.0) == math.ceil(6 * math.log2(120)) + 4


def test_outlier_threshold_value():
    val = outlier_threshold(4, 100, 0.3)
    assert val == pytest.approx(113.31421638991256, rel=1e-12)


def test_outlier_threshold_monotone_in_d_and_n():
    assert outlier_threshold(2, 100, 0.2) < outlier_threshold(3, 100, 0.2)
    assert outlier_threshold(2, 100, 0.2) < outlier_threshold(2, 1000, 0.2)
    assert outlier_threshold(2, 100, 0.3) < outlier_threshold(2, 100, 0.2)


def test_noise_multiplier_value():
    # delta = 12 e^-5 makes the log term exactly 5
    p = PrivacyParams(1.0, 12.0 * math.e**-5)
    want = 3.6 * math.e**2  # 720 e^2 * 10 * 5 / (1 * 100)^2
    assert noise_multiplier_sq(10.0, p, 100) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(26.60060195615034, rel=1e-12)


def test_reference_size_formula():
    k = 30
    n = 500
    delta = 0.05
    want = 6 * k + math.ceil(18 * math.log(16 * n / delta))
    assert reference_size(n, k, delta) == want


def test_plan_invariants():
    p = PrivacyParams(1.0, 0.05)
    sp = plan(0.2, p, 1)
    assert sp.n == sp.n1 + 2 * sp.n2
    assert sp.ref_size <= sp.n1
    assert sp.k == ladder_granularity(p)
    assert sp.ref_size == reference_size(sp.n, sp.k, p.delta)
    assert sp.lambda0 == pytest.approx(outlier_threshold(1, sp.n, 0.2))
    budget = math.log(1.0 / p.delta)
    assert sp.n1 >= sp.c1 * math.sqrt(sp.lambda0) * budget / p.epsilon - 1
    assert sp.n2 >= sp.c2 * sp.lambda0 * budget / p.epsilon - 1
    assert sp.c_sq == pytest.approx(noise_multiplier_sq(sp.lambda0, p, sp.n))
    # gamma is far above 1 at these sizes; only the formula is an invariant
    assert sp.gamma > 0.0
    assert sp.gamma == pytest.approx(8 * math.e**2 * sp.lambda0 / sp.n2)


def test_plan_matches_hand_computation():
    sp = plan(0.2, PrivacyParams(1.0, 0.05), 1)
    assert (sp.n, sp.n1, sp.n2) == (1066, 428, 319)
    assert sp.k == 33
    assert sp.ref_size == 428


def test_plan_reference_size_can_dominate_n1():
    # at desk scale the reference-set floor is what sets n1
    sp = plan(0.2, PrivacyParams(1.0, 0.05), 1)
    assert sp.n1 == sp.ref_size


def test_plan_scales_with_dimension():
    p = PrivacyParams(1.0, 0.05)
    small = plan(0.2, p, 1)
    big = plan(0.2, p, 8)
    assert big.n > small.n
    assert big.lambda0 > small.lambda0
    assert big.d == 8


def test_plan_c2_scales_n2():
    p = PrivacyParams(1.0, 0.05)
    base = plan(0.2, p, 1)
    bumped = plan(0.2, p, 1, c2=2.0)
    assert bumped.n2 >= 2 * base.n2 - 4  # lambda0 shifts slightly with n


def test_plan_to_dict_round_trips_scalars():
    sp = plan(0.3, PrivacyParams(0.5, 0.01), 2)
    d = sp.to_dict()
    assert d["n"] == sp.n and d["n1"] == sp.n1 and d["n2"] == sp.n2
    assert d["params"] == {"epsilon": 0.5, "delta": 0.01}
    assert d["gamma"] == pytest.approx(sp.gamma)


def test_thresholds_ordering():
    p = PrivacyParams(0.8, 0.05)
    assert pass_threshold(p) == pytest.approx(math.log(20.0) / 0.8 + 2.0)
    assert fail_threshold(p) == pytest.approx(2.0 * math.log(20.0) / 0.8 + 4.0)
    assert fail_threshold(p) == pytest.approx(2.0 * pass_threshold(p))


def test_ladder_granularity_forces_gate_failure():
    # a maxed-out score always fails the gate run at (eps/3, delta/6)
    for eps, delta in [(1.0, 0.1), (0.5, 0.01), (0.2, 0.004), (1.0, 1e-6)]:
        p = PrivacyParams(eps, delta)
        k = ladder_granularity(p)
        assert k >= fail_threshold(p.split(1.0 / 3.0, 1.0 / 6.0))


def test_truncated_laplace_bounds_and_symmetry():
    gen = np.random.default_rng(31)
    xs = truncated_laplace(gen, scale=2.0, radius=6.0, size=1_000_000)
    assert xs.max() < 6.0  # strictly below the top of the interval
    assert xs.min() >= -6.0
    assert abs(xs.mean()) <= 0.01
    neg = np.mean(xs < 0)
    assert abs(neg - 0.5) <= 0.002


def test_truncated_laplace_scalar_mode():
    gen = np.random.default_rng(32)
    x = truncated_laplace(gen, 1.0, 3.0)
    assert np.isscalar(x) or np.ndim(x) == 0
    assert -3.0 <= float(x) < 3.0


def test_truncated_laplace_tail_mass_matches():
    # fraction above radius/2 should match the conditional Laplace mass
    gen = np.random.default_rng(33)
    scale, radius = 2.0, 8.0
    xs = truncated_laplace(gen, scale, radius, size=500_000)
    q = 1.0 - math.exp(-radius / scale)
    want = (math.exp(-(radius / 2) / scale) - math.exp(-radius / scale)) / (2.0 * q)
    got = np.mean(xs > radius / 2)
    assert got == pytest.approx(want, abs=0.002)


@given(valid_params)
@settings(max_examples=300, deadline=None)
def test_ptr_extremes_are_deterministic(p):
    rng = RngStream(12345)
    assert ptr_check(0.0, p, rng.generator()) is PtrOutcome.PASS
    assert ptr_check(fail_threshold(p), p, rng.generator()) is PtrOutcome.FAIL
    assert ptr_check(fail_threshold(p) + 5.0, p, rng.generator()) is PtrOutcome.FAIL


def pass_mask(scores, p, gen):
    """Reference gate outcomes (True = pass) for a batch of scores: one
    truncated-Laplace draw per score, pass iff score + eta < threshold."""
    threshold = pass_threshold(p)
    eta = truncated_laplace(gen, 2.0 / p.epsilon, threshold, size=scores.size)
    return scores + eta < threshold


def test_ptr_midpoint_rate_near_half():
    p = PrivacyParams(1.0, 0.05)
    gen = np.random.default_rng(8080)
    mid = pass_threshold(p)
    passes = pass_mask(np.full(20_000, mid), p, gen)
    rate = passes.mean()
    assert 0.47 <= rate <= 0.53


def test_ptr_monotone_in_score_for_fixed_noise():
    p = PrivacyParams(0.7, 0.03)
    scores = np.linspace(0.0, fail_threshold(p), 25)
    for seed in range(20):
        outcomes = [ptr_check(s, p, RngStream(seed).generator()) for s in scores]
        flags = [o is PtrOutcome.PASS for o in outcomes]
        # once it fails it stays failed as the score grows
        assert flags == sorted(flags, reverse=True)


def _gate_gap_stats(p, s, trials, gen):
    """Both one-sided empirical gaps for the score pair (s, s + 2)."""
    e = math.exp(p.epsilon)
    pa = pass_mask(np.full(trials, s), p, gen).mean()
    pb = pass_mask(np.full(trials, s + 2.0), p, gen).mean()
    sigma = math.sqrt(pa * (1 - pa) / trials) + e * math.sqrt(pb * (1 - pb) / trials)
    return pa - e * pb, (1 - pb) - e * (1 - pa), max(sigma, 1e-9)


def test_ptr_empirical_privacy_where_delta_is_attainable():
    # adjacent scores differ by at most 2; at these parameters the exact
    # per-bit leakage sits below delta, so the plain (eps, delta)
    # inequality must hold at every score pair up to Monte Carlo error
    p = PrivacyParams(0.3, 0.03)
    assert gate_leakage(p) < p.delta
    gen = np.random.default_rng(99)
    trials = 400_000
    mid = pass_threshold(p)
    for s in (0.0, mid - 3.0, mid - 1.0, mid, mid + 1.0, 2 * mid - 3.0):
        pass_gap, fail_gap, sigma = _gate_gap_stats(p, s, trials, gen)
        assert pass_gap <= p.delta + 3 * sigma
        assert fail_gap <= p.delta + 3 * sigma


def test_ptr_leakage_is_exact_and_unavoidable():
    # with certain-pass at 0 and certain-fail at twice the threshold, no
    # gate can leak less than gate_leakage; ours meets that floor with
    # equality on a whole band of scores, which costs more than delta at
    # sharply split budgets like this one
    p = PrivacyParams(1.0, 0.05)
    leak = gate_leakage(p)
    assert leak > p.delta  # the plain delta bound is infeasible here
    t = pass_threshold(p)
    ratio = math.expm1(p.epsilon) / (2.0 * (math.exp(p.epsilon * t / 2.0) - 1.0))
    assert leak == pytest.approx(ratio, rel=1e-12)

    gen = np.random.default_rng(909)
    trials = 1_000_000
    for s in (0.0, t - 3.0, t - 1.0, t, t + 1.0, 2 * t - 3.0):
        pass_gap, fail_gap, sigma = _gate_gap_stats(p, s, trials, gen)
        assert pass_gap <= leak + 4 * sigma
        assert fail_gap <= leak + 4 * sigma
    # tightness: at the threshold itself the pass-side gap attains the floor
    pass_gap, _, sigma = _gate_gap_stats(p, t, trials, gen)
    assert pass_gap >= leak - 4 * sigma


def test_ptr_pass_mask_matches_scalar_path():
    # the scalar gate, called once per score on one generator, makes the
    # same draws as the batch reference on a generator of the same stream
    p = PrivacyParams(0.5, 0.02)
    scores = np.linspace(0.0, fail_threshold(p) + 1.0, 400)
    for seed in range(5):
        gen = RngStream(seed).generator()
        scalar = [ptr_check(s, p, gen) is PtrOutcome.PASS for s in scores]
        mask = pass_mask(scores, p, RngStream(seed).generator())
        assert mask.dtype == bool and mask.shape == scores.shape
        assert scalar == mask.tolist()
        assert mask[0] and not mask[-1]
        assert 0 < mask.sum() < scores.size


@pytest.mark.parametrize("score", [-1.0, np.nan, np.inf])
def test_ptr_check_rejects_bad_score(score):
    with pytest.raises(PreconditionViolated):
        ptr_check(score, PrivacyParams(0.5, 0.02), RngStream(0).generator())
