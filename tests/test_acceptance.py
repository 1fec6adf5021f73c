"""Acceptance gate: the eleven shipping criteria, one test per criterion.

Each test enforces the criterion's tolerances and its runtime budget and
prints one summary line; the pytest -v report gives the pass/fail line per
criterion. Sizes and tolerances here are the contract, not tunables.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sstats

from dpgs.audit import (
    audit_cov_stability,
    audit_density_lemmas,
    audit_end_to_end,
    audit_matrix_bounds,
    audit_mean_stability,
    audit_tail_facts,
    audit_utility_events,
    relaxed_plan,
    reports_to_json_lines,
    run_checks,
    strict_plan,
)
from dpgs.cli import main
from dpgs.divergences import gaussian_1d, hockey_stick_1d, hs_discrete, weak_triangle_check
from dpgs.privacy import PrivacyParams, PtrOutcome
from dpgs.randomness import RngStream
from dpgs.samplers import ptr_check

SEED = 7


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_01_ptr_extremes_exact():
    t0 = time.perf_counter()
    gen = RngStream(SEED, 101).generator()
    bad = 0
    for i in range(1000):
        eps = float(gen.uniform(0.01, 1.0))
        delta = float(gen.uniform(1e-8, eps / 10.0))
        params = PrivacyParams(eps, delta)
        fail_score = 2.0 * math.log(1.0 / delta) / eps + 4.0
        pass_gen = RngStream(SEED, 102).child(i).generator()
        fail_gen = RngStream(SEED, 103).child(i).generator()
        if ptr_check(0.0, params, pass_gen) is not PtrOutcome.PASS:
            bad += 1
        if ptr_check(fail_score, params, fail_gen) is not PtrOutcome.FAIL:
            bad += 1
    elapsed = time.perf_counter() - t0
    _line(1, bad == 0 and elapsed < 1.0,
          f"gate extremes: {bad} exceptions in 1000 param draws, {elapsed:.2f}s (<1s)")


def test_criterion_02_score_sensitivity(tmp_path):
    # via the CLI, matching the documented invocation shape
    t0 = time.perf_counter()
    out = tmp_path / "score.jsonl"
    code = main(["audit", "--check", "score_sensitivity", "--trials", "500",
                 "--seed", str(SEED), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    doc = json.loads(out.read_text().strip())
    ok = (code == 0 and doc["failures"] == 0
          and doc["statistics"]["max_abs_diff"] <= 2.0 and elapsed < 120.0)
    _line(2, ok,
          f"500 adjacent pairs d<=5, max |score shift| = "
          f"{doc['statistics']['max_abs_diff']:.0f} (<=2), {elapsed:.1f}s (<2min)")


def test_criterion_03_cov_stability():
    t0 = time.perf_counter()
    rep = audit_cov_stability(200, relaxed_plan(3), RngStream(SEED, 302))
    elapsed = time.perf_counter() - t0
    q = rep.statistics["qualifying"]
    ok = rep.failures == 0 and q >= 150 and elapsed < 300.0
    _line(3, ok,
          f"sandwich+trace gaps: 0 failures, {q:.0f}/200 qualify (>=150), "
          f"max gap {rep.statistics['max_trace_gap']:.4f} <= "
          f"{rep.statistics['trace_gap_bound']:.4f}, {elapsed:.1f}s (<5min)")


def test_criterion_04_mean_stability():
    t0 = time.perf_counter()
    rep = audit_mean_stability(200, relaxed_plan(3), RngStream(SEED, 402))
    elapsed = time.perf_counter() - t0
    ok = (rep.failures == 0 and rep.statistics["qualifying"] >= 150
          and rep.statistics["hypothesis_met"] == 1.0 and elapsed < 300.0)
    _line(4, ok,
          f"mean shift: 0 failures on {rep.statistics['qualifying']:.0f} qualifying "
          f"trials, worst ratio {rep.statistics['max_ratio']:.4f} of bound, "
          f"{elapsed:.1f}s (<5min)")


def test_criterion_05_utility_events():
    t0 = time.perf_counter()
    worst_p = 1.0
    fails = 0
    for j, d in enumerate((1, 2, 4)):
        rep = audit_utility_events(500, strict_plan(d), RngStream(SEED, 500 + j))
        fails += rep.failures
        worst_p = min(worst_p, rep.statistics["p_uniform_scores0"])
        assert rep.statistics["required"] == pytest.approx(0.75)
    elapsed = time.perf_counter() - t0
    ok = fails == 0 and worst_p >= 0.75 and elapsed < 600.0
    _line(5, ok,
          f"clean-data implication exact on 1500 trials, min Pr[uniform] = "
          f"{worst_p:.3f} (>=0.75), {elapsed:.1f}s (<10min)")


def test_criterion_06_end_to_end_tv():
    t0 = time.perf_counter()
    rep = audit_end_to_end(strict_plan(1), 50_000, RngStream(SEED, 602))
    elapsed = time.perf_counter() - t0
    tv0, s0 = rep.statistics["tv_s0"], rep.statistics["tv_sigma_s0"]
    tv1, s1 = rep.statistics["tv_s1"], rep.statistics["tv_sigma_s1"]
    ok = (rep.failures == 0
          and tv0 <= 0.2 + 3.0 * s0 and tv1 <= 0.2 + 3.0 * s1
          and elapsed < 900.0)
    _line(6, ok,
          f"5e4 outputs vs fresh draws: tv = {tv0:.4f} (N(0,1)), {tv1:.4f} "
          f"(N(1e6,1e4)) <= 0.2 + 3 sigma_boot; equivariance err "
          f"{rep.statistics['equivariance_max_err']:.1e}; {elapsed:.0f}s (<15min)")


def test_criterion_07_density_grids():
    t0 = time.perf_counter()
    rep = audit_density_lemmas(RngStream(SEED, 702))
    elapsed = time.perf_counter() - t0
    worst = max(
        rep.statistics["worst_scaled_projection"],
        rep.statistics["worst_t_density_d2"],
        rep.statistics["worst_t_density_d3"],
        rep.statistics["worst_shift"],
    )
    ok = rep.failures == 0 and rep.trials >= 3000 and elapsed < 60.0
    _line(7, ok,
          f"{rep.trials} grid points, worst log-ratio {worst:.4f} <= "
          f"{rep.statistics['budget']} budget, {elapsed:.1f}s (<1min)")


def test_criterion_08_matrix_bounds():
    t0 = time.perf_counter()
    fails = 0
    min_ratio = math.inf
    for j, d in enumerate((2, 3, 5)):
        rep = audit_matrix_bounds(200, d, RngStream(SEED, 800 + j))
        fails += rep.failures
        min_ratio = min(min_ratio, rep.statistics["min_corollary_ratio"])
    elapsed = time.perf_counter() - t0
    ok = fails == 0 and elapsed < 60.0
    _line(8, ok,
          f"600 admissible pairs (d=2,3,5): 0 violations, min corollary ratio "
          f"{min_ratio:.2f} >= 1.125, {elapsed:.1f}s (<1min)")


def test_criterion_09_distributional_facts():
    t0 = time.perf_counter()
    rep = audit_tail_facts(100_000, RngStream(SEED, 902))
    elapsed = time.perf_counter() - t0
    ok = (rep.failures == 0
          and rep.statistics["sphere_ks"] <= 0.02
          and rep.statistics["mixture_ks_pvalue"] >= 0.01
          and rep.statistics["chi2_max_excess"] <= 0.0
          and elapsed < 120.0)
    _line(9, ok,
          f"1e5 draws: sphere KS {rep.statistics['sphere_ks']:.4f} (<=0.02), "
          f"mixture p {rep.statistics['mixture_ks_pvalue']:.3f} (>=0.01), "
          f"chi2 excess {rep.statistics['chi2_max_excess']:.1e} (<=0), "
          f"{elapsed:.1f}s (<2min)")


def test_criterion_10_divergence_algebra():
    t0 = time.perf_counter()
    pairs = [
        (gaussian_1d(0.0, 1.0), gaussian_1d(1.0, 1.0), 1.0),
        (gaussian_1d(0.0, 1.0), gaussian_1d(0.0, 2.0), 0.3),
        (gaussian_1d(2.0, 0.5), gaussian_1d(0.0, 1.0), 0.7),
    ]
    form_gap = max(
        abs(hockey_stick_1d(p, q, e, form="max") - hockey_stick_1d(p, q, e, form="abs"))
        for p, q, e in pairs
    )
    # at eps = 0 the divergence is the total variation distance
    tv_gap = max(
        abs(hockey_stick_1d(gaussian_1d(0.0, 1.0), gaussian_1d(mu, 1.0), 0.0)
            - (2.0 * sstats.norm.cdf(mu / 2.0) - 1.0))
        for mu in (0.5, 1.0, 3.0)
    )
    gen = RngStream(SEED, 1002).generator()
    tri_bad = 0
    for _ in range(1000):
        p, q, r = (gen.dirichlet(np.ones(6)) for _ in range(3))
        e1, e2 = gen.uniform(0.0, 1.0, 2)
        tri_bad += 0 if weak_triangle_check(p, q, r, float(e1), float(e2)) else 1
    # discrete eps=0 instance equals half the L1 norm exactly
    pv = np.array([0.5, 0.3, 0.2])
    qv = np.array([0.2, 0.3, 0.5])
    disc_gap = abs(hs_discrete(pv, qv, 0.0) - 0.5 * np.abs(pv - qv).sum())
    elapsed = time.perf_counter() - t0
    ok = (form_gap <= 1e-10 and tv_gap <= 1e-9 and disc_gap <= 1e-15
          and tri_bad == 0 and elapsed < 60.0)
    _line(10, ok,
          f"form gap {form_gap:.1e} (<=1e-10), tv gap {tv_gap:.1e} (<=1e-9), "
          f"{tri_bad}/1000 triangle violations, {elapsed:.1f}s (<1min)")


def test_criterion_11_suite_determinism():
    t0 = time.perf_counter()
    first = reports_to_json_lines(run_checks(seed=SEED))
    second = reports_to_json_lines(run_checks(seed=SEED))
    elapsed = time.perf_counter() - t0
    ok = first == second and len(first.splitlines()) >= 8
    _line(11, ok,
          f"full audit suite rerun: {len(first.splitlines())} reports, "
          f"byte-identical = {first == second}, {elapsed:.0f}s")
