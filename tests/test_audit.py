"""Audit harness: report plumbing, plan shapes, and each check at small sizes."""

import dataclasses
import json
import math
import threading

import numpy as np
import pytest
from scipy import stats

import dpgs.audit as audit_mod
from dpgs import samplers
from dpgs.audit import (
    AUDIT_PARAMS,
    END_TO_END_MIN_TRIALS,
    REGISTRY,
    TAIL_FACTS_MIN_DRAWS,
    AuditReport,
    audit_cov_stability,
    audit_density_lemmas,
    audit_end_to_end,
    audit_matrix_bounds,
    audit_mean_stability,
    audit_score_sensitivity,
    audit_tail_facts,
    audit_utility_events,
    relaxed_plan,
    reports_to_csv,
    reports_to_json_lines,
    run_checks,
    strict_plan,
)
from dpgs.exceptions import PreconditionViolated
from dpgs.privacy import E_SQ
from dpgs.randomness import RngStream
from dpgs.samplers import SampleResult, sample_unbounded

PLAN3 = relaxed_plan(3)
STRICT1 = strict_plan(1)


class TestPlans:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_relaxed_plan_meets_hypotheses(self, d):
        sp = relaxed_plan(d)
        assert sp.n == sp.n1 + 2 * sp.n2
        assert sp.n1 >= 32.0 * E_SQ * sp.k
        assert sp.n2 >= 16.0 * E_SQ * sp.lambda0 * sp.k
        assert sp.gamma <= 1.0 / (2 * sp.k) + 1e-12
        assert sp.ref_size > 6 * sp.k
        assert sp.n1 >= sp.ref_size

    def test_relaxed_plan_rejects_bad_dim(self):
        with pytest.raises(PreconditionViolated):
            relaxed_plan(0)

    def test_strict_plan_matches_planner(self):
        sp = strict_plan(1)
        assert (sp.n, sp.n1, sp.n2) == (STRICT1.n, STRICT1.n1, STRICT1.n2)


class TestReportPlumbing:
    def test_json_line_shape(self):
        rep = AuditReport("demo", "relaxed", 3, 0, {"b": 1.0, "a": 2.0}, 9)
        line = rep.to_json_line()
        data = json.loads(line)
        assert data["format_version"] == 1
        assert data["check_id"] == "demo"
        assert list(data["statistics"]) == ["a", "b"]
        # key order in the serialized text is fixed
        assert line.index('"check_id"') < line.index('"failures"')

    def test_csv_summary(self):
        reps = [
            AuditReport("x", "relaxed", 2, 0, {}, 1),
            AuditReport("y", "strict", 5, 1, {}, 1),
        ]
        text = reports_to_csv(reps)
        lines = text.strip().split("\n")
        assert lines[0] == "format_version,check_id,mode,trials,failures,verdict,seed"
        assert len(lines) == 3
        # the verdict is derived from the failure count
        assert lines[1] == "1,x,relaxed,2,0,pass,1"
        assert lines[2] == "1,y,strict,5,1,fail,1"

    def test_run_checks_deterministic(self):
        a = run_checks(["density_lemmas"], seed=31)
        b = run_checks(["density_lemmas"], seed=31)
        assert reports_to_json_lines(a) == reports_to_json_lines(b)

    # each check beside density_lemmas, so that it runs on a pool thread
    @pytest.mark.parametrize(
        "name, trials",
        [
            ("score_sensitivity", 8),
            ("cov_stability", 10),
            ("mean_stability", 6),
            ("utility_events", 4),
            ("matrix_bounds", 6),
            ("end_to_end", END_TO_END_MIN_TRIALS),
        ],
    )
    def test_run_checks_threads_match_serial(self, name, trials):
        a = run_checks([name, "density_lemmas"], seed=5, trials=trials, threads=1)
        b = run_checks([name, "density_lemmas"], seed=5, trials=trials, threads=2)
        assert reports_to_json_lines(a) == reports_to_json_lines(b)

    def test_run_checks_batch_is_byte_identical_at_any_thread_count(self):
        names = ["score_sensitivity", "cov_stability", "mean_stability",
                 "utility_events", "density_lemmas", "matrix_bounds", "end_to_end"]
        texts = {
            threads: reports_to_json_lines(
                run_checks(names, seed=5, trials=END_TO_END_MIN_TRIALS, threads=threads)
            )
            for threads in (1, 2, 8)
        }
        assert texts[1] == texts[2] == texts[8]

    def test_run_checks_keeps_check_order_when_checks_finish_in_reverse(
        self, monkeypatch
    ):
        names = list(REGISTRY)[:4]
        done = {name: threading.Event() for name in names}

        def builder(name, later):
            def run(trials, mode, seed):
                # wait for the next check to finish first; a timeout, not a
                # hang, if the checks do not run at once
                assert later is None or done[later].wait(timeout=10.0)
                done[name].set()
                return [AuditReport(name, mode, trials, 0, {}, seed)]

            return run

        for name, later in zip(names, names[1:] + [None]):
            monkeypatch.setitem(REGISTRY, name, builder(name, later))
        reports = run_checks(names, seed=3, trials=1, threads=len(names))
        assert [r.check_id for r in reports] == names

    def test_run_checks_raises_the_serial_error_from_the_pool(self):
        errors = []
        for threads in (1, 2):
            with pytest.raises(PreconditionViolated) as exc:
                run_checks(["matrix_bounds", "end_to_end"], seed=5, trials=10,
                           threads=threads)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert f"at least {END_TO_END_MIN_TRIALS} trials" in errors[0]

    def test_run_checks_unknown_name(self):
        with pytest.raises(PreconditionViolated):
            run_checks(["nope"], seed=1)

    @pytest.mark.parametrize("mode", ["Strict", "", "both"])
    def test_run_checks_rejects_bad_mode_before_any_check(self, monkeypatch, mode):
        def never(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in REGISTRY:
            monkeypatch.setitem(REGISTRY, name, never)
        with pytest.raises(PreconditionViolated, match="mode"):
            run_checks(["score_sensitivity"], mode=mode, seed=1)

    @pytest.mark.parametrize(
        "name", ["score_sensitivity", "cov_stability", "mean_stability",
                 "utility_events", "matrix_bounds"],
    )
    @pytest.mark.parametrize("trials", [0, -1])
    def test_run_checks_rejects_trials_below_one_before_any_trial(
        self, monkeypatch, name, trials
    ):
        def never(*args, **kwargs):
            raise AssertionError("an estimator ran")

        for attr in ("estimate", "stable_cov", "subset_indices"):
            monkeypatch.setattr(audit_mod, attr, never)
        with pytest.raises(PreconditionViolated, match="trials must be >= 1"):
            run_checks([name], seed=1, trials=trials)


class TestScoreSensitivity:
    def test_small_run_passes(self):
        rep = audit_score_sensitivity(24, [relaxed_plan(1), PLAN3], RngStream(7, 1))
        assert rep.verdict == "pass"
        assert rep.failures == 0
        assert rep.statistics["max_abs_diff"] <= 2.0
        assert rep.statistics["identical_trials"] >= 1
        assert rep.statistics["far_trials"] >= 1
        assert rep.statistics["hypothesis_met"] == 1.0

    def test_strict_mode_flags_hypothesis(self):
        rep = audit_score_sensitivity(8, [STRICT1], RngStream(7, 2), mode="strict")
        assert rep.statistics["hypothesis_met"] == 0.0
        assert rep.verdict == "pass"  # the sensitivity cap holds regardless


class TestCovStability:
    def test_small_run_passes(self):
        rep = audit_cov_stability(16, PLAN3, RngStream(7, 3))
        assert rep.verdict == "pass"
        assert rep.statistics["qualifying"] >= 12
        assert rep.statistics["max_trace_gap"] <= rep.statistics["trace_gap_bound"]

    def test_strict_mode_runs_without_sandwich(self):
        rep = audit_cov_stability(6, STRICT1, RngStream(7, 4), mode="strict")
        assert rep.statistics["hypothesis_met"] == 0.0
        assert rep.verdict == "pass"


class TestMeanStability:
    def test_small_run_passes(self):
        rep = audit_mean_stability(16, PLAN3, RngStream(7, 5))
        assert rep.verdict == "pass"
        assert rep.statistics["qualifying"] >= 12
        assert 0.0 < rep.statistics["max_ratio"] <= 1.0


class TestUtilityEvents:
    def test_standard_gaussian(self):
        rep = audit_utility_events(40, strict_plan(1), RngStream(7, 6))
        assert rep.verdict == "pass"
        assert rep.failures == 0
        assert rep.statistics["p_uniform_scores0"] >= rep.statistics["required"]

    def test_uniform_rate_shortfall_is_one_failure(self):
        # at lambda0 = 1 no dataset meets the event (so no implication can
        # fail) and none scores 0: the rate shortfall alone fails the report
        sp = dataclasses.replace(strict_plan(1), lambda0=1.0)
        rep = audit_utility_events(10, sp, RngStream(7, 6))
        assert rep.statistics["p_uniform_scores0"] < rep.statistics["required"]
        assert rep.failures == 1
        assert rep.verdict == "fail"

    def test_scaled_gaussian(self):
        rep = audit_utility_events(
            20,
            strict_plan(2),
            RngStream(7, 7),
            mu=np.array([3.0, -7.0]),
            sigma=np.diag([1.0, 100.0]),
            check_id="utility_events.scaled",
        )
        assert rep.verdict == "pass"
        assert rep.check_id == "utility_events.scaled"


class TestSharedEstimate:
    # The audit re-checks the estimate the pipelines ship: every estimate it
    # reads is samplers.estimate, so each trial reaches samplers.stable_mean.
    @pytest.mark.parametrize(
        "run, expected",
        [
            (lambda: audit_score_sensitivity(2, [PLAN3], RngStream(7, 1)), 4),
            (lambda: audit_mean_stability(2, PLAN3, RngStream(7, 5)), 4),
            (lambda: audit_utility_events(2, STRICT1, RngStream(7, 6)), 2),
            (lambda: audit_mod._release_law(_smoke_pair(STRICT1, 1)[1], STRICT1), 1),
        ],
        ids=["score_sensitivity", "mean_stability", "utility_events", "release_law"],
    )
    def test_the_audit_reads_the_samplers_estimate(self, monkeypatch, run, expected):
        calls = []
        real = samplers.stable_mean
        monkeypatch.setattr(samplers, "stable_mean", lambda *args: calls.append(1) or real(*args))
        run()
        assert len(calls) == expected

    def test_the_audited_law_is_the_sampled_law(self, monkeypatch):
        # _release_law and a passing sample_unbounded call each build the
        # release law through the one samplers.unbounded_law, once per call
        calls = []
        real = samplers.unbounded_law
        monkeypatch.setattr(samplers, "unbounded_law", lambda *args: calls.append(1) or real(*args))
        x = _smoke_pair(STRICT1, 1)[1]
        p, law = audit_mod._release_law(x, STRICT1)
        assert p > 0.0 and law is not None
        assert len(calls) == 1
        res, _ = sample_unbounded(x, STRICT1, RngStream(7, 2))
        assert not res.failed
        assert len(calls) == 2


class TestDensityLemmas:
    def test_grids_stay_under_budget(self):
        rep = audit_density_lemmas(RngStream(7, 8))
        assert rep.verdict == "pass"
        budget = rep.statistics["budget"]
        for key in (
            "worst_scaled_projection",
            "worst_t_density_d2",
            "worst_t_density_d3",
            "worst_shift",
        ):
            assert 0.0 < rep.statistics[key] <= budget
        assert rep.trials >= 3000

    @pytest.mark.parametrize("poison", [math.nan, math.inf])
    def test_a_non_finite_grid_value_fails(self, monkeypatch, poison):
        # the first call is the minuend of the first difference, so the
        # poisoned point's log ratio is NaN or +inf: neither is under the cap
        real = audit_mod.t_density_log_pdf
        calls = []

        def poisoned(t, m, n2):
            out = np.array(real(t, m, n2))
            if not calls:
                out.flat[0] = poison
            calls.append(1)
            return out

        monkeypatch.setattr(audit_mod, "t_density_log_pdf", poisoned)
        rep = audit_density_lemmas(RngStream(7, 8))
        assert rep.failures >= 1
        assert rep.verdict == "fail"
        assert rep.trials == 8030


class TestMatrixBounds:
    def test_bounds_and_corollary(self):
        rep = audit_matrix_bounds(40, 2, RngStream(7, 9))
        assert rep.verdict == "pass"
        assert rep.statistics["noop_trace"] == pytest.approx(-0.25, abs=1e-15)
        assert rep.statistics["min_corollary_ratio"] >= rep.statistics["required_ratio"]
        assert rep.statistics["required_ratio"] == pytest.approx(1.125, rel=1e-4)

    def test_needs_two_dims(self):
        with pytest.raises(PreconditionViolated):
            audit_matrix_bounds(5, 1, RngStream(7, 10))


class TestTailFacts:
    def test_small_run_passes(self):
        rep = audit_tail_facts(TAIL_FACTS_MIN_DRAWS, RngStream(7, 11))
        assert rep.verdict == "pass"
        assert rep.statistics["sphere_ks"] <= 0.02
        assert rep.statistics["mixture_ks_pvalue"] >= 0.01
        assert rep.statistics["triangle_failures"] == 0.0
        assert rep.statistics["quad_c_fit"] > 0.02
        assert rep.statistics["beta_c_fit"] > 0.02

    @pytest.mark.parametrize(
        "seed, draws",
        [
            pytest.param(seed, draws, id=str(seed))
            for seed, draws in ((30, TAIL_FACTS_MIN_DRAWS), (78, TAIL_FACTS_MIN_DRAWS),
                                (126, TAIL_FACTS_MIN_DRAWS), (423, TAIL_FACTS_MIN_DRAWS),
                                (151, 30_000), (310, 30_000))
        ],
    )
    def test_chance_fluctuations_of_correct_laws_pass(self, seed, draws):
        # the old fixed cutoffs failed these seeds: sphere_ks 0.0201 > 0.02
        # (seed 30), mixture_ks_pvalue 0.0076 and 0.0026 < 0.01 (78, 126);
        # the old quadratic-form mean tolerance 4 ||A||_F / sqrt(n) failed
        # 423, 151 and 310 (gap 0.259 > 0.247, 0.149 > 0.135, 0.131 > 0.115)
        rep = audit_tail_facts(draws, RngStream(seed, 7))
        assert rep.verdict == "pass"

    def test_non_uniform_sphere_sampler_fails(self, monkeypatch):
        def stretched(gen, n, count):
            g = gen.standard_normal((count, n))
            g[:, 0] *= 1.2
            return g / np.linalg.norm(g, axis=1)[:, None]

        monkeypatch.setattr(audit_mod, "sphere_batch", stretched)
        rep = audit_tail_facts(TAIL_FACTS_MIN_DRAWS, RngStream(7, 11))
        # the Dvoretzky-Kiefer-Wolfowitz cutoff at false-alarm rate 1e-6
        cutoff = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * TAIL_FACTS_MIN_DRAWS))
        assert rep.statistics["sphere_ks"] > cutoff
        assert rep.failures == 1
        assert rep.verdict == "fail"

    @pytest.mark.parametrize("trials", [TAIL_FACTS_MIN_DRAWS - 1, 1000, 0, -1])
    def test_too_few_draws_rejected_before_any_draw(self, trials):
        class UntouchedStream(RngStream):
            def child(self, i):
                raise AssertionError("a stream was opened")

        with pytest.raises(PreconditionViolated, match=f"at least {TAIL_FACTS_MIN_DRAWS} "):
            audit_tail_facts(trials, UntouchedStream(7, 11))


class TestTailFactsHelpers:
    """tail_facts' numpy KS helpers against scipy.stats."""

    # not (1, 1): scipy's Beta(1/2, 1/2) CDF is off by up to 3e-9 next to 1,
    # where 1 - (2 / pi) sqrt(1 - x) is the exact value
    @pytest.mark.parametrize("i, j", [(1, 9), (1, 19), (3, 17), (5, 3), (7, 13), (11, 1)])
    def test_beta_cdf_matches_scipy(self, i, j):
        x = np.concatenate([
            np.linspace(0.0, 1.0, 1000),
            np.geomspace(1e-300, 1e-3, 60),
            1.0 - np.geomspace(1e-16, 1e-3, 60),
        ])
        got = audit_mod._beta_cdf_odd_halves(x, i, j)
        np.testing.assert_allclose(got, stats.beta.cdf(x, i / 2.0, j / 2.0), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ks_distance_matches_kstest(self, seed):
        gen = np.random.default_rng(seed)
        z = gen.standard_normal(5000) * 1.02
        got = audit_mod._ks_distance(z, audit_mod._normal_cdf)
        assert got == pytest.approx(stats.kstest(z, stats.norm.cdf).statistic, rel=0, abs=1e-15)
        r = gen.beta(1.5, 8.5, 5000)
        got = audit_mod._ks_distance(r, lambda v: audit_mod._beta_cdf_odd_halves(v, 3, 17))
        want = stats.kstest(r, stats.beta(1.5, 8.5).cdf).statistic
        assert got == pytest.approx(want, rel=0, abs=1e-15)

    def test_normal_cdf_matches_ndtr(self):
        from scipy.special import ndtr

        x = np.concatenate([np.linspace(-38.0, 9.0, 4701), [0.0, -0.0, 1e-300, -1e-300]])
        np.testing.assert_allclose(audit_mod._normal_cdf(x), ndtr(x), rtol=1e-12, atol=1e-305)

    @pytest.mark.parametrize("n", [10_000, 30_000, 100_000])
    def test_ks_pvalue_within_half_a_percent_of_exact(self, n):
        for p in np.geomspace(0.002, 0.9, 40):
            d = float(stats.kstwo.isf(p, n))
            assert audit_mod._ks_pvalue(d, n) == pytest.approx(stats.kstwo.sf(d, n), rel=5e-3)

    def test_ks_pvalue_extremes(self):
        assert audit_mod._ks_pvalue(0.0, 100) == 1.0
        assert audit_mod._ks_pvalue(1e-6, 100) == 1.0
        assert audit_mod._ks_pvalue(1.0, 100) < 1e-80


def _smoke_pair(sp, seed):
    # the adjacent pair audit_end_to_end builds on the registry's stream
    gen = RngStream(seed, audit_mod._CHECKS["end_to_end"][0]).child(42).generator()
    a = gen.standard_normal((sp.n, sp.d))
    row = int(gen.integers(sp.n1, sp.n))
    b = a.copy()
    b[row] = audit_mod._make_replacement(gen, "far", a[row], 1.0)
    return a, b


class TestEndToEnd:
    def test_small_run_passes(self):
        rep = audit_end_to_end(STRICT1, 150, RngStream(7, 12))
        assert rep.verdict == "pass"
        assert rep.statistics["tv_s0"] <= 0.2 + 3.0 * rep.statistics["tv_sigma_s0"]
        assert rep.statistics["equivariance_max_err"] <= 1e-9
        assert 0.0 <= rep.statistics["smoke_hs_forward"] <= 1.0
        assert 0.0 <= rep.statistics["smoke_hs_backward"] <= 1.0
        assert "smoke_trials" not in rep.statistics

    @pytest.mark.xfail(
        strict=True, reason="ROADMAP items 1 and 2: the default plan lets a far row into W"
    )
    def test_exact_smoke_divergence_stays_within_delta(self):
        # The exact hockey-stick divergence of the smoke pair's output laws
        # at the plan's epsilon must fit in delta. At strict_plan(1) the far
        # covariance-block row enters W, the Pass part's radius grows about
        # 1e4-fold, and both directions read about 0.9997.
        rep = run_checks(["end_to_end"], mode="strict", trials=END_TO_END_MIN_TRIALS)[0]
        assert rep.statistics["smoke_hs_forward"] <= AUDIT_PARAMS.delta
        assert rep.statistics["smoke_hs_backward"] <= AUDIT_PARAMS.delta

    def test_exact_law_matches_the_pipeline_on_the_smoke_pair(self):
        # The smoke's law, from _release_law, against N coupled pipeline runs
        # on each side: the Pass count, the support [mu - r, mu + r] and the
        # law of ((z - mu) / r)^2, Beta(1/2, (n2 - 1)/2) for one coordinate of
        # a uniform point on the sphere in R^n2. It ties the release scale the
        # audit writes to the one sample_unbounded uses.
        sp, n = STRICT1, 2000
        pair = _smoke_pair(sp, 20_240_817)
        laws = [audit_mod._release_law(x, sp) for x in pair]
        assert laws[0][0] == 1.0  # the clean side scores 0
        assert laws[1][0] == pytest.approx(0.99365, abs=1e-5)  # the far side scores 1
        runs = [[sample_unbounded(x, sp, RngStream(5, i))[0].value for x in pair]
                for i in range(n)]
        beta = stats.beta(0.5, 0.5 * (sp.n2 - 1))
        for side, (p, dens) in enumerate(laws):
            z = np.array([run[side][0] for run in runs if run[side] is not None])
            assert abs(z.size - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))
            lo, hi = dens.support
            assert lo <= z.min() and z.max() <= hi
            mu, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
            ks = stats.kstest(((z - mu) / r) ** 2, beta.cdf).statistic
            assert ks <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * z.size))

    def test_ref_size_other_than_n1_rejected_before_any_run(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an estimator or pipeline ran")

        for name in ("sample_unbounded", "estimate"):
            monkeypatch.setattr(audit_mod, name, never)
        sp = dataclasses.replace(STRICT1, ref_size=STRICT1.n1 - 1)
        with pytest.raises(PreconditionViolated, match="ref_size == n1"):
            audit_end_to_end(sp, END_TO_END_MIN_TRIALS, RngStream(7, 16))

    def test_all_fail_input_reports_insufficient(self, monkeypatch):
        def always_fail(x, sp, rng):
            return SampleResult(None), None

        monkeypatch.setattr(audit_mod, "sample_unbounded", always_fail)
        rep = audit_end_to_end(STRICT1, 60, RngStream(7, 13))
        assert rep.verdict == "fail"
        assert rep.statistics["insufficient_outputs_s0"] == 1.0

    def test_too_few_trials_rejected_before_any_run(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a pipeline ran")

        monkeypatch.setattr(audit_mod, "sample_unbounded", never)
        with pytest.raises(PreconditionViolated, match=f"at least {END_TO_END_MIN_TRIALS} "):
            audit_end_to_end(STRICT1, END_TO_END_MIN_TRIALS - 1, RngStream(7, 15))

    def test_rejects_multivariate_plan(self):
        with pytest.raises(PreconditionViolated):
            audit_end_to_end(strict_plan(2), 10, RngStream(7, 14))
