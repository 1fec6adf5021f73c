import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpgs.exceptions import InvalidParams, NoConvergence, PreconditionViolated
from dpgs.privacy import (
    Gate,
    PrivacyParams,
    PtrOutcome,
    fail_threshold,
    ladder_granularity,
    noise_multiplier_sq,
    outlier_threshold,
    plan,
    reference_size,
    solve_plan,
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


def test_golden_grid_plans_use_the_whole_mean_block_as_reference():
    # The grid of the plan digest in test_golden. At ref_size == n1 the
    # reference set is arange(n1) whatever the stream, so stable_mean counts
    # the mean block against itself on one whitened array. Only c1 = 3 at
    # eps = 0.3, delta = 1e-6 and d = 20 or 100 lets the c1 term set n1
    # above the reference size; a plan change that moves this set moves the
    # samplers on or off that path.
    grid = itertools.product(
        (0.05, 0.2, 0.5),
        ((1.0, 0.05), (0.3, 1e-6), (0.9, 1e-3)),
        (1, 2, 5, 20, 100),
        ((1.0, 1.0), (3.0, 40.0), (1.0, 2640.0)),
    )
    gathered = set()
    for alpha, (eps, delta), d, (c1, c2) in grid:
        sp = plan(alpha, PrivacyParams(eps, delta), d, c1, c2)
        assert sp.ref_size <= sp.n1
        if sp.ref_size < sp.n1:
            gathered.add((alpha, eps, delta, d, c1, c2))
    assert gathered == {
        (alpha, 0.3, 1e-6, d, 3.0, 40.0) for alpha in (0.05, 0.2, 0.5) for d in (20, 100)
    }


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


@pytest.mark.parametrize(
    "c1, c2", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
               (0.0, 1.0), (1.0, -2.0)],
)
def test_plan_rejects_constants_that_are_not_finite_and_positive(c1, c2):
    with pytest.raises(PreconditionViolated, match="finite and positive"):
        plan(0.2, PrivacyParams(1.0, 0.05), 1, c1=c1, c2=c2)


@pytest.mark.parametrize("c1, c2", [(1e300, 1.0), (1.0, 1e300), (1.0, 1e150), (1e308, 1e308)])
def test_plan_sizes_that_overflow_raise_invalid_params(c1, c2):
    with pytest.raises(InvalidParams, match="overflow"):
        plan(0.2, PrivacyParams(1.0, 0.05), 1, c1=c1, c2=c2)


def _solve(step, start):
    return solve_plan(0.5, PrivacyParams(1.0, 0.05), 1, 5, step, start, 1.0, 1.0)


def test_solve_plan_ends_at_the_least_fixed_point_from_any_lower_start():
    # n1 + 2 n2 = max(40, n // 2 + 30) is monotone with fixed points 59 and 60
    def step(n):
        return 1.0, max(40, n // 2 + 30) - 2, 1, 7

    assert {_solve(step, start).n for start in (1, 40, 58, 59)} == {59}
    assert _solve(step, 60).n == 60
    sp = _solve(step, 1)
    assert (sp.n1, sp.n2, sp.ref_size, sp.k, sp.c1, sp.c2) == (57, 1, 7, 5, 1.0, 1.0)


def test_solve_plan_raises_when_n_never_repeats():
    # n alternates 10 -> 20 -> 10 -> ..., so no step returns its own n
    def step(n):
        return 1.0, 30 - n, 0, 1

    with pytest.raises(NoConvergence, match="fixed point"):
        _solve(step, 10)


def test_noise_multiplier_that_overflows_raises():
    p = PrivacyParams(1.0, 0.05)
    assert math.isfinite(noise_multiplier_sq(1e300, p, 2000))
    with pytest.raises(InvalidParams, match="overflows"):
        noise_multiplier_sq(1e306, p, 2000)


def test_plan_to_dict_round_trips_scalars():
    sp = plan(0.3, PrivacyParams(0.5, 0.01), 2)
    d = sp.to_dict()
    assert d["n"] == sp.n and d["n1"] == sp.n1 and d["n2"] == sp.n2
    assert d["params"] == {"epsilon": 0.5, "delta": 0.01}
    assert d["gamma"] == pytest.approx(sp.gamma)


def test_thresholds_ordering():
    p = PrivacyParams(0.8, 0.05)
    gate = Gate(p)
    assert gate.threshold == pytest.approx(math.log(20.0) / 0.8 + 2.0)
    assert gate.scale == pytest.approx(2.0 / 0.8)
    assert gate.fail_score == pytest.approx(2.0 * math.log(20.0) / 0.8 + 4.0)
    assert fail_threshold(p) == gate.fail_score
    # a pipeline at budget p runs its gate at (eps/3, delta/6)
    assert Gate.of(p).threshold == pytest.approx(3.0 * math.log(120.0) / 0.8 + 2.0)


# Where 6 ln(6/delta)/eps is within rounding of an integer, the closed form and
# the gate's fail score can round to either side of it.
CLOSED_FORM_BELOW_GATE = PrivacyParams(0.9576679379284059, 0.02249107229605901)
CLOSED_FORM_ABOVE_GATE = PrivacyParams(0.9642247765690997, 0.04116904899035301)


@given(valid_params)
@example(CLOSED_FORM_BELOW_GATE)
@example(CLOSED_FORM_ABOVE_GATE)
@example(PrivacyParams(1.0, 0.1))
@example(PrivacyParams(0.5, 0.01))
@example(PrivacyParams(0.2, 0.004))
@example(PrivacyParams(1.0, 1e-6))
@settings(max_examples=300, deadline=None)
def test_ladder_granularity_forces_gate_failure(p):
    # a maxed-out score k always fails the pipeline's gate, and k is the
    # least integer that does
    k = ladder_granularity(p)
    assert k - 1 < Gate.of(p).fail_score <= k
    # the closed form, away from the integers it can round across
    x = 6.0 * math.log(6.0 / p.delta) / p.epsilon
    if abs(x - round(x)) > 1e-12 * x:
        assert k == math.ceil(x) + 4


def test_ladder_granularity_follows_the_gate_where_the_closed_form_rounds_across():
    closed = lambda p: math.ceil(6.0 * math.log(6.0 / p.delta) / p.epsilon) + 4  # noqa: E731
    # the closed form's k = 39 would let the maxed-out score 39 pass
    assert closed(CLOSED_FORM_BELOW_GATE) == 39 < Gate.of(CLOSED_FORM_BELOW_GATE).fail_score
    assert ladder_granularity(CLOSED_FORM_BELOW_GATE) == 40
    assert closed(CLOSED_FORM_ABOVE_GATE) == 36
    assert Gate.of(CLOSED_FORM_ABOVE_GATE).fail_score == 35.0
    assert ladder_granularity(CLOSED_FORM_ABOVE_GATE) == 35


def truncated_laplace_array(gen, scale, radius, size):
    """size draws of truncated_laplace as numpy arrays: the bitwise reference
    of the gate's scalar draw, and the batch the law tests sample."""
    s = gen.random(size) - 0.5
    q = -math.expm1(-radius / scale)
    x = -np.sign(s) * scale * np.log1p(-2.0 * np.abs(s) * q)
    return np.clip(x, -radius, np.nextafter(radius, -np.inf))


def test_truncated_laplace_bounds_and_symmetry():
    gen = np.random.default_rng(31)
    xs = truncated_laplace_array(gen, scale=2.0, radius=6.0, size=1_000_000)
    assert xs.max() < 6.0  # strictly below the top of the interval
    assert xs.min() >= -6.0
    assert abs(xs.mean()) <= 0.01
    neg = np.mean(xs < 0)
    assert abs(neg - 0.5) <= 0.002


def test_truncated_laplace_scalar_mode():
    # The gate's scalar draw is plain float arithmetic; its bytes must be
    # those of the array reference, draw for draw, off one seeded stream. The
    # pairs: the default gate's; then radius / scale a subnormal of a few
    # ulps, where the coarse q pushes raw draws past both ends, so both
    # clamps bind.
    n = 100_000
    gate = Gate.of(PrivacyParams(1.0, 0.05))
    for scale, radius in ((1.0, 3.0), (gate.scale, gate.threshold), (1e300, 1.02e-22)):
        want = truncated_laplace_array(np.random.default_rng(32), scale, radius, n)
        gen = np.random.default_rng(32)
        got = [truncated_laplace(gen, scale, radius) for _ in range(n)]
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == want.tobytes(), (scale, radius)
        top = math.nextafter(radius, -math.inf)
        assert -radius <= min(got) and max(got) <= top
    s = np.random.default_rng(32).random(n) - 0.5
    raw = -np.sign(s) * scale * np.log1p(-2.0 * np.abs(s) * -math.expm1(-radius / scale))
    assert (raw >= radius).sum() > 100 and (raw < -radius).sum() > 100
    assert got.count(top) > 100 and got.count(-radius) > 100


def test_truncated_laplace_tail_mass_matches():
    # fraction above radius/2 should match the conditional Laplace mass
    gen = np.random.default_rng(33)
    scale, radius = 2.0, 8.0
    xs = truncated_laplace_array(gen, scale, radius, 500_000)
    q = 1.0 - math.exp(-radius / scale)
    want = (math.exp(-(radius / 2) / scale) - math.exp(-radius / scale)) / (2.0 * q)
    got = np.mean(xs > radius / 2)
    assert got == pytest.approx(want, abs=0.002)


@given(valid_params)
@settings(max_examples=300, deadline=None)
def test_ptr_extremes_are_deterministic(p):
    rng = RngStream(12345)
    gate = Gate(p)
    assert ptr_check(0.0, gate, rng.generator()) is PtrOutcome.PASS
    assert ptr_check(gate.fail_score, gate, rng.generator()) is PtrOutcome.FAIL
    assert ptr_check(gate.fail_score + 5.0, gate, rng.generator()) is PtrOutcome.FAIL


def pass_mask(scores, gate, gen):
    """Reference gate outcomes (True = pass) for a batch of scores: one
    truncated-Laplace draw per score, pass iff score + eta < threshold."""
    threshold = gate.threshold
    eta = truncated_laplace_array(gen, gate.scale, threshold, scores.size)
    return scores + eta < threshold


def test_ptr_midpoint_rate_near_half():
    gate = Gate(PrivacyParams(1.0, 0.05))
    gen = np.random.default_rng(8080)
    passes = pass_mask(np.full(20_000, gate.threshold), gate, gen)
    rate = passes.mean()
    assert 0.47 <= rate <= 0.53


def test_ptr_monotone_in_score_for_fixed_noise():
    gate = Gate(PrivacyParams(0.7, 0.03))
    scores = np.linspace(0.0, gate.fail_score, 25)
    for seed in range(20):
        outcomes = [ptr_check(s, gate, RngStream(seed).generator()) for s in scores]
        flags = [o is PtrOutcome.PASS for o in outcomes]
        # once it fails it stays failed as the score grows
        assert flags == sorted(flags, reverse=True)


def _gate_gap_stats(gate, s, trials, gen):
    """Both one-sided empirical gaps for the score pair (s, s + 2)."""
    e = math.exp(gate.params.epsilon)
    pa = pass_mask(np.full(trials, s), gate, gen).mean()
    pb = pass_mask(np.full(trials, s + 2.0), gate, gen).mean()
    sigma = math.sqrt(pa * (1 - pa) / trials) + e * math.sqrt(pb * (1 - pb) / trials)
    return pa - e * pb, (1 - pb) - e * (1 - pa), max(sigma, 1e-9)


def test_ptr_empirical_privacy_where_delta_is_attainable():
    # adjacent scores differ by at most 2; at these parameters the exact
    # per-bit leakage sits below delta, so the plain (eps, delta)
    # inequality must hold at every score pair up to Monte Carlo error
    p = PrivacyParams(0.3, 0.03)
    gate = Gate(p)
    assert gate.leakage < p.delta
    gen = np.random.default_rng(99)
    trials = 400_000
    mid = gate.threshold
    for s in (0.0, mid - 3.0, mid - 1.0, mid, mid + 1.0, 2 * mid - 3.0):
        pass_gap, fail_gap, sigma = _gate_gap_stats(gate, s, trials, gen)
        assert pass_gap <= p.delta + 3 * sigma
        assert fail_gap <= p.delta + 3 * sigma


def test_ptr_leakage_is_exact_and_unavoidable():
    # with certain-pass at 0 and certain-fail at twice the threshold, no
    # gate can leak less than its leakage; ours meets that floor with
    # equality on a whole band of scores, which costs more than delta at
    # sharply split budgets like this one
    p = PrivacyParams(1.0, 0.05)
    gate = Gate(p)
    leak = gate.leakage
    assert leak > p.delta  # the plain delta bound is infeasible here
    t = gate.threshold
    ratio = math.expm1(p.epsilon) / (2.0 * (math.exp(p.epsilon * t / 2.0) - 1.0))
    assert leak == pytest.approx(ratio, rel=1e-12)

    gen = np.random.default_rng(909)
    trials = 1_000_000
    for s in (0.0, t - 3.0, t - 1.0, t, t + 1.0, 2 * t - 3.0):
        pass_gap, fail_gap, sigma = _gate_gap_stats(gate, s, trials, gen)
        assert pass_gap <= leak + 4 * sigma
        assert fail_gap <= leak + 4 * sigma
    # tightness: at the threshold itself the pass-side gap attains the floor
    pass_gap, _, sigma = _gate_gap_stats(gate, t, trials, gen)
    assert pass_gap >= leak - 4 * sigma


def test_ptr_pass_mask_matches_scalar_path():
    # the scalar gate, called once per score on one generator, makes the
    # same draws as the batch reference on a generator of the same stream
    gate = Gate(PrivacyParams(0.5, 0.02))
    scores = np.linspace(0.0, gate.fail_score + 1.0, 400)
    for seed in range(5):
        gen = RngStream(seed).generator()
        scalar = [ptr_check(s, gate, gen) is PtrOutcome.PASS for s in scores]
        mask = pass_mask(scores, gate, RngStream(seed).generator())
        assert mask.dtype == bool and mask.shape == scores.shape
        assert scalar == mask.tolist()
        assert mask[0] and not mask[-1]
        assert 0 < mask.sum() < scores.size


@given(valid_params)
@settings(max_examples=300, deadline=None)
def test_pass_probability_is_exact_at_the_extremes(p):
    gate = Gate(p)
    assert gate.pass_probability(0.0) == 1.0
    t = gate.fail_score
    assert gate.pass_probability(t) == 0.0
    assert (gate.pass_probability(np.array([t, t + 1e-9, t + 5.0, 1e300])) == 0.0).all()


def test_pass_probability_is_non_increasing_in_the_score():
    for p in (PrivacyParams(1.0, 0.05), PrivacyParams(0.3, 0.03), PrivacyParams(1e-3, 1e-8)):
        gate = Gate(p)
        probs = gate.pass_probability(np.linspace(0.0, gate.fail_score + 1.0, 100_001))
        assert (np.diff(probs) <= 0.0).all()
        assert probs[0] == 1.0 and probs[-1] == 0.0


def test_pass_probability_matches_the_gate_rate():
    gate = Gate(PrivacyParams(1.0, 0.05))
    gen = np.random.default_rng(4242)
    trials = 200_000
    t = gate.threshold
    for s in (t - 3.0, t, t + 1.0):
        want = float(gate.pass_probability(s))
        rate = pass_mask(np.full(trials, s), gate, gen).mean()
        assert abs(rate - want) <= 4.0 * math.sqrt(want * (1.0 - want) / trials)


@pytest.mark.parametrize("eps, delta", [(1.0, 0.05), (0.3, 0.03)])
def test_pass_probability_gaps_peak_at_the_gate_leakage(eps, delta):
    # Adjacent scores differ by at most 2. The largest pass-side and
    # fail-side gaps over a fine score grid are the exact leakage, which
    # both sides attain on a whole band of scores.
    gate = Gate(PrivacyParams(eps, delta))
    s = np.linspace(0.0, gate.fail_score, 200_001)
    assert s[1] - s[0] <= 1e-3
    lo, hi = gate.pass_probability(s), gate.pass_probability(s + 2.0)
    e = math.exp(eps)
    assert (lo - e * hi).max() == pytest.approx(gate.leakage, rel=1e-9)
    assert ((1.0 - hi) - e * (1.0 - lo)).max() == pytest.approx(gate.leakage, rel=1e-9)


@pytest.mark.parametrize("score", [-1.0, np.nan, np.inf])
def test_ptr_check_rejects_bad_score(score):
    with pytest.raises(PreconditionViolated):
        ptr_check(score, Gate(PrivacyParams(0.5, 0.02)), RngStream(0).generator())
