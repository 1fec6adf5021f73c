"""Audit harness: report plumbing, plan shapes, and each check at small sizes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgs.audit as audit_mod
from dpgs.audit import (
    END_TO_END_MIN_TRIALS,
    REGISTRY,
    TAIL_FACTS_MIN_DRAWS,
    AdjacentPair,
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
from dpgs.samplers import SampleResult

PLAN3 = relaxed_plan(3)
STRICT1 = strict_plan(1)


class TestAdjacentPair:
    def test_datasets_differ_in_one_row(self):
        base = np.arange(12.0).reshape(4, 3)
        pair = AdjacentPair(base, 2, np.array([9.0, 9.0, 9.0]))
        a, b = pair.datasets()
        assert np.array_equal(a, base)
        diff_rows = np.nonzero(np.any(a != b, axis=1))[0]
        assert list(diff_rows) == [2]

    def test_identical_replacement_allowed(self):
        base = np.arange(6.0).reshape(3, 2)
        pair = AdjacentPair(base, 1, base[1])
        a, b = pair.datasets()
        assert np.array_equal(a, b)

    def test_bad_row_index(self):
        base = np.zeros((3, 2))
        with pytest.raises(PreconditionViolated):
            AdjacentPair(base, 3, np.zeros(2))
        with pytest.raises(PreconditionViolated):
            AdjacentPair(base, -1, np.zeros(2))

    def test_bad_replacement_length(self):
        with pytest.raises(PreconditionViolated):
            AdjacentPair(np.zeros((3, 2)), 0, np.zeros(3))

    @given(
        n=st.integers(2, 6),
        d=st.integers(1, 3),
        row=st.integers(0, 5),
        fill=st.floats(-1e6, 1e6, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_neighbor_property(self, n, d, row, fill):
        row = row % n
        base = np.zeros((n, d))
        pair = AdjacentPair(base, row, np.full(d, fill))
        a, b = pair.datasets()
        assert int(np.sum(np.any(a != b, axis=1))) <= 1


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
        rep = AuditReport("demo", "relaxed", 3, 0, {"b": 1.0, "a": 2.0}, "pass", 9)
        line = rep.to_json_line()
        data = json.loads(line)
        assert data["format_version"] == 1
        assert data["check_id"] == "demo"
        assert list(data["statistics"]) == ["a", "b"]
        # key order in the serialized text is fixed
        assert line.index('"check_id"') < line.index('"failures"')

    def test_csv_summary(self):
        reps = [
            AuditReport("x", "relaxed", 2, 0, {}, "pass", 1),
            AuditReport("y", "strict", 5, 1, {}, "fail", 1),
        ]
        text = reports_to_csv(reps)
        lines = text.strip().split("\n")
        assert lines[0] == "format_version,check_id,mode,trials,failures,verdict,seed"
        assert len(lines) == 3
        assert lines[2] == "1,y,strict,5,1,fail,1"

    def test_run_checks_deterministic(self):
        a = run_checks(["density_lemmas"], seed=31)
        b = run_checks(["density_lemmas"], seed=31)
        assert reports_to_json_lines(a) == reports_to_json_lines(b)

    # every check that fans trials out over threads, at small trial counts
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
        a = run_checks([name], seed=5, trials=trials, threads=1)
        b = run_checks([name], seed=5, trials=trials, threads=3)
        assert reports_to_json_lines(a) == reports_to_json_lines(b)

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

        monkeypatch.setattr(audit_mod, "stable_cov", never)
        monkeypatch.setattr(audit_mod, "subset_indices", never)
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

    @pytest.mark.parametrize("trials", [TAIL_FACTS_MIN_DRAWS - 1, 1000, 0, -1])
    def test_too_few_draws_rejected_before_any_draw(self, trials):
        class UntouchedStream(RngStream):
            def child(self, i):
                raise AssertionError("a stream was opened")

        with pytest.raises(PreconditionViolated, match=f"at least {TAIL_FACTS_MIN_DRAWS} "):
            audit_tail_facts(trials, UntouchedStream(7, 11))


class TestEndToEnd:
    def test_small_run_passes(self):
        rep = audit_end_to_end(STRICT1, 150, RngStream(7, 12), smoke_trials=60)
        assert rep.verdict == "pass"
        assert rep.statistics["tv_s0"] <= 0.2 + 3.0 * rep.statistics["tv_sigma_s0"]
        assert rep.statistics["equivariance_max_err"] <= 1e-9
        assert "smoke_hs_forward" in rep.statistics

    def test_all_fail_input_reports_insufficient(self, monkeypatch):
        def always_fail(x, sp, rng):
            return SampleResult(None), None

        monkeypatch.setattr(audit_mod, "sample_unbounded", always_fail)
        rep = audit_end_to_end(STRICT1, 60, RngStream(7, 13), smoke_trials=0)
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
