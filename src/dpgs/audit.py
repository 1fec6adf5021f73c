"""Batch numerical audits of the sampler's stability, utility and privacy claims.

Each audit op runs seeded Monte Carlo trials (or deterministic grids) against
one verifiable guarantee of the pipeline: adjacent-dataset score sensitivity,
covariance and mean stability, the clean-data uniform-weight implication,
log-density-ratio caps, matrix norm bounds behind the sphere-projection
argument, classical tail facts, and end-to-end output closeness. Results come
back as AuditReport records that serialize to JSON lines plus a CSV summary.

Exact structural checks count hard failures; statistical checks state a
3-sigma Monte Carlo tolerance. Reports are a pure function of (config, seed):
each check draws from its own stream, its trials from per-index child streams
folded in index order, and run_checks returns reports in check order however
many checks run at once.

Two plan flavors drive the estimator audits. Full-formula plans keep every
size tied to (alpha, epsilon, delta) but their stability radius gamma is far
above the lemma caps at desk scale; relaxed plans shrink (lambda0, k) until
gamma <= 1/(2k), n1 >= 32 e^2 k and n2 >= 16 e^2 lambda0 k all hold, which is
the regime the stability guarantees actually describe. Each report records
which flavor ran; when a hypothesis is unmet the report says so instead of
silently passing.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from .divergences import (  # hs_discrete has no caller here; perfbench rebinds it by name
    Density1D,
    ProjectedSphereDensity,
    hockey_stick_1d,
    hs_discrete,
    scaled_projection_log_ratio,
    shift_log_ratio,
    t_density_log_ratio,
    tv_histogram,
    weak_triangle_check,
)
from .estimators import (
    EstimatorConfig,
    neighbor_counts,
    pair_and_rescale,
    stable_cov,
    stable_mean,
)
from .exceptions import PreconditionViolated
from .linalg import (
    inverse_tracenorm_gap,
    mahalanobis_sq,
    matrix_norms,
    psd_sandwich_check,
    sym_inv_sqrt,
)
from .privacy import (
    E_SQ,
    PrivacyParams,
    SamplerPlan,
    pass_probability,
    plan,
    reference_size,
    solve_plan,
    stability_floors,
)
from .randomness import RngStream, sphere_batch, subset_indices
from .samplers import GATE_DELTA_FRAC, GATE_EPS_FRAC, sample_unbounded

FORMAT_VERSION = 1

# "far" adversarial replacements sit this many standard deviations out
FAR_SCALE = 1.0e6

# end_to_end compares at least this many non-Fail outputs per setting with
# true draws, so fewer trials could never pass
END_TO_END_MIN_TRIALS = 50

# tail_facts draws this many samples at least: below it the KS cutoff
# (about 2.69 / sqrt(n)) passes visibly wrong laws; a sphere sampler with
# one axis stretched by 1.2 reads KS ~0.06, under the 0.085 cutoff at 1,000
TAIL_FACTS_MIN_DRAWS = 10_000

# density_lemmas grids: resolution, slack, and the shared (eps, lambda0)
GRID_POINTS = 1000
GRID_TOL = 1e-9
GRID_EPSILON = 0.5
GRID_LAMBDA0 = 20.0
GRID_DIMS = (2, 3)
SHIFT_DIM = 3

# the privacy level of both plan flavors
AUDIT_PARAMS = PrivacyParams(1.0, 0.05)


@dataclass(frozen=True)
class AuditReport:
    """One audit outcome: counts, named statistics and a verdict, "pass"
    exactly when nothing failed."""

    check_id: str
    mode: str
    trials: int
    failures: int
    statistics: dict[str, float]
    seed: int

    @property
    def verdict(self) -> str:
        return "pass" if self.failures == 0 else "fail"

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "check_id": self.check_id,
            "mode": self.mode,
            "trials": int(self.trials),
            "failures": int(self.failures),
            "statistics": {k: float(v) for k, v in sorted(self.statistics.items())},
            "verdict": self.verdict,
            "seed": int(self.seed),
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def reports_to_json_lines(reports: Sequence[AuditReport]) -> str:
    return "".join(r.to_json_line() + "\n" for r in reports)


def reports_to_csv(reports: Sequence[AuditReport]) -> str:
    """Summary table, one row per report (statistics live in the JSON lines)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["format_version", "check_id", "mode", "trials", "failures", "verdict", "seed"]
    )
    for r in reports:
        writer.writerow(
            [FORMAT_VERSION, r.check_id, r.mode, r.trials, r.failures, r.verdict, r.seed]
        )
    return buf.getvalue()


def relaxed_plan(d: int) -> SamplerPlan:
    """Smallest plan whose sizes meet the stability-lemma hypotheses.

    Keeps the hypothesis shape gamma <= 1/(2k), n1 >= 32 e^2 k,
    n2 >= 16 e^2 lambda0 k and |R| > 6k at desk-scale run times by fixing
    k = 5 and using a flat threshold scale instead of the full planner
    formulas, at AUDIT_PARAMS. The start n = d + 2 lies below every fixed
    point (each is at least ceil(32 e^2 k) + 2 n2), so this is the least one.
    """
    if d < 1:
        raise PreconditionViolated("d must be >= 1")
    k = 5
    params = AUDIT_PARAMS
    lambda0 = 4.0 * d + 40.0
    n1_floor, n2_floor, _ = stability_floors(k, lambda0)
    n2 = math.ceil(n2_floor)

    def step(n: int) -> tuple[float, int, int, int]:
        m_ref = reference_size(n, k, params.delta)
        return lambda0, max(math.ceil(n1_floor), m_ref), n2, m_ref

    # alpha is nominal: relaxed plans target the stability radius, not a TV level
    sp = solve_plan(0.5, params, d, k, step, d + 2, math.nan, math.nan)
    budget = math.log(1.0 / params.delta)
    c1 = sp.n1 * params.epsilon / (math.sqrt(lambda0) * budget)
    return replace(sp, c1=c1, c2=sp.n2 * params.epsilon / (lambda0 * budget))


def strict_plan(d: int = 1) -> SamplerPlan:
    """Full-formula plan (the same one the samplers use) at alpha = 0.2."""
    return plan(0.2, AUDIT_PARAMS, d)


def _fold(
    one: Callable[[int], tuple[bool, bool, object]], trials: int
) -> tuple[int, int, list]:
    """Run trials 0..trials-1 returning (qualifies, ok, value) and fold them.

    Returns the qualifying count, the failures (qualifying trials that are
    not ok) and the qualifying values in trial order.
    """
    if trials < 1:
        raise PreconditionViolated(f"trials must be >= 1, got {trials}")
    values, failures = [], 0
    for qualifies, ok, value in map(one, range(trials)):
        if qualifies:
            values.append(value)
            failures += 0 if ok else 1
    return len(values), failures, values


_REPLACEMENT_KINDS = ("identical", "fresh", "far", "moderate")


def _make_replacement(
    gen: np.random.Generator, kind: str, row: np.ndarray, scale: float
) -> np.ndarray:
    d = row.shape[0]
    if kind == "identical":
        return row.copy()
    if kind == "fresh":
        return scale * gen.standard_normal(d)
    direction = gen.standard_normal(d)
    direction /= max(np.linalg.norm(direction), 1e-300)
    if kind == "moderate":
        return row + 10.0 * scale * direction
    if kind == "far":
        return FAR_SCALE * scale * direction
    raise PreconditionViolated(f"unknown replacement kind {kind!r}")


def _adjacent_trial(
    rng: RngStream, i: int, shape: tuple[int, int], lo: int, hi: int
) -> tuple[np.random.Generator, np.ndarray, np.ndarray, str]:
    """Trial i's generator and adjacent pair.

    Draws, in order: a scale exp(U[-1, 1]), Gaussian data of the given shape
    at that scale, the changed row in [lo, hi), then its replacement, of
    the kind trial i cycles to.
    """
    gen = rng.child(i).generator()
    scale = math.exp(gen.uniform(-1.0, 1.0))
    x = scale * gen.standard_normal(shape)
    row = int(gen.integers(lo, hi))
    kind = _REPLACEMENT_KINDS[i % len(_REPLACEMENT_KINDS)]
    b = x.copy()
    b[row] = _make_replacement(gen, kind, x[row], scale)
    return gen, x, b, kind


def _estimate(x: np.ndarray, sp: SamplerPlan, ref: np.ndarray) -> tuple:
    """Both estimator stages on the sampler's block split, shared reference:
    (covariance output, its estimate, mean output)."""
    cfg = EstimatorConfig(sp.lambda0, sp.k)
    cov_out = stable_cov(x[sp.n1 :], cfg)
    sigma_hat = cov_out.covariance()
    return cov_out, sigma_hat, stable_mean(x[: sp.n1], sigma_hat, cfg, ref)


def _release_law(x: np.ndarray, sp: SamplerPlan) -> tuple[float, Density1D | None]:
    """sample_unbounded's exact output law on x at d = 1 and ref_size == n1:
    the Pass probability p and, when p > 0, the Pass part, p times the density
    of mu + r t on [mu - r, mu + r] with t ~ ProjectedSphereDensity(n2, 1)."""
    cov_out, _, mean_out = _estimate(x, sp, np.arange(sp.n1))
    score = max(cov_out.score, mean_out.score)
    p = float(pass_probability(score, sp.params.split(GATE_EPS_FRAC, GATE_DELTA_FRAC)))
    if p == 0.0:  # no Pass part, and w_matrix may be zero
        return p, None
    mu = float(mean_out.weights @ x[: sp.n1, 0])
    r = math.sqrt((1.0 - 1.0 / sp.n1) * sp.n2) * float(np.linalg.norm(cov_out.w_matrix))
    c, t = math.log(p / r), ProjectedSphereDensity(sp.n2, 1)
    return p, Density1D(lambda z: c + t.log_pdf((z - mu) / r), (mu - r, mu + r))


def audit_score_sensitivity(
    trials: int,
    plans: Sequence[SamplerPlan],
    rng: RngStream,
    mode: str = "relaxed",
) -> AuditReport:
    """Adjacent datasets move the released max score by at most 2.

    Cycles trials over the given plans and over replacement kinds (identical,
    fresh, far outlier at 1e6 sigma, moderate), always sharing the reference
    subset between the two runs. The bound is exact integer arithmetic, so
    any excess is a hard failure, as is any shift at all on an identical
    replacement (at most one failure per trial).
    """
    plans = list(plans)

    def score(x: np.ndarray, sp: SamplerPlan, ref: np.ndarray) -> int:
        cov_out, _, mean_out = _estimate(x, sp, ref)
        return max(cov_out.score, mean_out.score)

    def one(i: int) -> tuple[bool, bool, int]:
        sp = plans[i % len(plans)]
        gen, a, b, kind = _adjacent_trial(rng, i, (sp.n, sp.d), 0, sp.n)
        ref = subset_indices(gen, sp.n1, sp.ref_size)
        diff = abs(score(a, sp, ref) - score(b, sp, ref))
        return True, diff <= 2 and (kind != "identical" or diff == 0), diff

    _, failures, diffs = _fold(one, trials)
    diffs = np.array(diffs, dtype=float)
    kinds = [_REPLACEMENT_KINDS[i % len(_REPLACEMENT_KINDS)] for i in range(trials)]
    floors = [stability_floors(sp.k, sp.lambda0) for sp in plans]
    met = all(sp.n1 >= n1f and sp.n2 >= n2f for sp, (n1f, n2f, _) in zip(plans, floors))
    stats_out = {
        "max_abs_diff": float(diffs.max()),
        "mean_abs_diff": float(diffs.mean()),
        "far_trials": float(kinds.count("far")),
        "identical_trials": float(kinds.count("identical")),
        "hypothesis_met": 1.0 if met else 0.0,
    }
    return AuditReport(
        check_id="score_sensitivity",
        mode=mode,
        trials=trials,
        failures=failures,
        statistics=stats_out,
        seed=rng.seed,
    )


def _trace_gap(s_small: np.ndarray, s_big: np.ndarray) -> float:
    """Trace norm of s_small^{-1/2} s_big s_small^{-1/2} - I."""
    half = sym_inv_sqrt(s_small)
    conj = half @ s_big @ half
    d = conj.shape[0]
    return matrix_norms(0.5 * (conj + conj.T) - np.eye(d)).trace_norm


def audit_cov_stability(
    trials: int,
    sp: SamplerPlan,
    rng: RngStream,
    mode: str = "relaxed",
) -> AuditReport:
    """Adjacent low-score covariance estimates sandwich each other.

    Qualifying trials (both scores < k) must yield positive-definite
    estimates, the two-sided PSD sandwich at gamma, and trace-norm gaps
    at most (1 + 2 gamma) gamma in both directions. The guarantee needs
    n2 >= 16 e^2 lambda0 k (which also keeps gamma <= 1/(2k)); when that
    size hypothesis is unmet (full-formula plans at desk scale) the report
    records hypothesis_met = 0, still measures the gaps, and only counts
    definiteness failures: the claim asserts nothing there.
    """
    gamma = sp.gamma
    bound = (1.0 + 2.0 * gamma) * gamma
    cfg = EstimatorConfig(sp.lambda0, sp.k)
    hypothesis_met = sp.n2 >= stability_floors(sp.k, sp.lambda0)[1]

    def one(i: int) -> tuple[bool, bool, float]:
        _, a, b, _ = _adjacent_trial(rng, i, (2 * sp.n2, sp.d), 0, 2 * sp.n2)
        out_a = stable_cov(a, cfg)
        out_b = stable_cov(b, cfg)
        if out_a.score >= sp.k or out_b.score >= sp.k:
            return False, True, 0.0
        s1 = out_a.covariance()
        s2 = out_b.covariance()
        pd_ok = bool(np.linalg.eigvalsh(s1)[0] > 0.0 and np.linalg.eigvalsh(s2)[0] > 0.0)
        gap = max(_trace_gap(s1, s2), _trace_gap(s2, s1)) if pd_ok else math.inf
        ok = pd_ok
        if hypothesis_met:
            ok = (
                pd_ok
                and psd_sandwich_check(s1, s2, gamma)
                and psd_sandwich_check(s2, s1, gamma)
                and gap <= bound + 1e-9
            )
        return True, ok, gap

    qualifying, failures, gaps = _fold(one, trials)
    gaps = [g for g in gaps if math.isfinite(g)]
    stats_out = {
        "qualifying": float(qualifying),
        "non_qualifying": float(trials - qualifying),
        "max_trace_gap": max(gaps) if gaps else 0.0,
        "trace_gap_bound": bound,
        "gamma": gamma,
        "hypothesis_met": 1.0 if hypothesis_met else 0.0,
    }
    return AuditReport(
        check_id="cov_stability",
        mode=mode,
        trials=trials,
        failures=failures,
        statistics=stats_out,
        seed=rng.seed,
    )


def _degree_representative(
    x_head: np.ndarray, sigma_hat: np.ndarray, lam: float, ref: np.ndarray
) -> bool:
    """Whether the reference subset mirrors every row's neighbor fraction.

    Compares each row's neighbor count over the whole head block against its
    count over the reference rows, both from estimators.neighbor_counts; the
    subset qualifies when every fractional gap is at most 1/6. Callers pass
    the estimate of a trial whose covariance score is below k, and such an
    estimate is nonsingular: some rung up to k is then nonempty, so its
    scatter is nonsingular (the ladder empties a rung with a singular one),
    and its rows stay on every top-half rung, so they carry weight 1/m.
    """
    full = neighbor_counts(x_head, x_head, sigma_hat, lam) / x_head.shape[0]
    part = neighbor_counts(x_head, x_head[ref], sigma_hat, lam) / ref.size
    return bool(np.max(np.abs(part - full)) <= 1.0 / 6.0)


def audit_mean_stability(
    trials: int,
    sp: SamplerPlan,
    rng: RngStream,
    mode: str = "relaxed",
) -> AuditReport:
    """Adjacent low-score mean estimates stay within the Mahalanobis budget.

    A trial qualifies when all four scores (covariance and mean, both runs)
    stay below k and the shared reference subset is degree-representative
    for both datasets under each run's own covariance estimate. On
    qualifying trials ||mu - mu'||^2 in the first run's estimated metric
    must be at most (1 + 2 gamma) 38 e^2 lambda0 / n1^2. The guarantee
    needs n1 >= 32 e^2 k, |R| > 6k and the covariance size hypothesis;
    when unmet the ratio is still measured but not counted as a failure.
    """
    gamma = sp.gamma
    bound = (1.0 + 2.0 * gamma) * 38.0 * E_SQ * sp.lambda0 / sp.n1**2
    core_lam = E_SQ * sp.lambda0
    n1_floor, n2_floor, ref_floor = stability_floors(sp.k, sp.lambda0)
    hypothesis_met = sp.n1 >= n1_floor and sp.ref_size > ref_floor and sp.n2 >= n2_floor

    def one(i: int) -> tuple[bool, bool, float]:
        # alternate the changed block: even trials hit the mean rows (same
        # covariance both runs), odd trials hit the covariance rows
        lo, hi = (0, sp.n1) if i % 2 == 0 else (sp.n1, sp.n)
        gen, a, b, _ = _adjacent_trial(rng, i, (sp.n, sp.d), lo, hi)
        ref = subset_indices(gen, sp.n1, sp.ref_size)
        cov_a, s1, mean_a = _estimate(a, sp, ref)
        cov_b, s2, mean_b = _estimate(b, sp, ref)
        scores = (cov_a.score, cov_b.score, mean_a.score, mean_b.score)
        if max(scores) >= sp.k:
            return False, True, 0.0
        if not (
            _degree_representative(a[: sp.n1], s1, core_lam, ref)
            and _degree_representative(b[: sp.n1], s2, core_lam, ref)
        ):
            return False, True, 0.0
        mu_a = mean_a.weights @ a[: sp.n1]
        mu_b = mean_b.weights @ b[: sp.n1]
        observed = mahalanobis_sq(mu_a - mu_b, s1)
        ok = observed <= bound * (1.0 + 1e-9) if hypothesis_met else True
        return True, ok, observed / bound

    qualifying, failures, ratios = _fold(one, trials)
    stats_out = {
        "qualifying": float(qualifying),
        "non_qualifying": float(trials - qualifying),
        "max_ratio": max(ratios) if ratios else 0.0,
        "bound": bound,
        "gamma": gamma,
        "ref_size": float(sp.ref_size),
        "hypothesis_met": 1.0 if hypothesis_met else 0.0,
    }
    return AuditReport(
        check_id="mean_stability",
        mode=mode,
        trials=trials,
        failures=failures,
        statistics=stats_out,
        seed=rng.seed,
    )


def audit_utility_events(
    trials: int,
    sp: SamplerPlan,
    rng: RngStream,
    mode: str = "strict",
    mu: np.ndarray | None = None,
    sigma: np.ndarray | None = None,
    check_id: str = "utility_events",
) -> AuditReport:
    """Clean-data event: all rows in-radius implies uniform weights exactly.

    Per trial draws true Gaussian data, evaluates the three clean-data
    events directly against the true parameters (head and pairing rows
    within lambda0/4, pairing scatter spectrally within a factor 3), runs
    both estimators, and asserts the exact implication: event holds =>
    both scores 0, all retention counts k, covariance estimate equal to
    the plain pairing scatter and mean estimate equal to the head average.
    Also reports the empirical rate of (uniform and scores 0); a rate
    below 1 - alpha - 0.05 counts as one more failure.

    This check always uses full-formula plans: the event-probability
    target needs the full threshold scale, not the relaxed one.
    """
    d = sp.d
    mu_vec = np.zeros(d) if mu is None else np.asarray(mu, dtype=float).reshape(-1)
    sigma_mat = np.eye(d) if sigma is None else np.asarray(sigma, dtype=float)
    chol = np.linalg.cholesky(sigma_mat)
    whiten = sym_inv_sqrt(sigma_mat)
    cap = sp.lambda0 / 4.0

    def one(i: int) -> tuple[bool, bool, tuple[bool, bool]]:
        gen = rng.child(i).generator()
        x = mu_vec + gen.standard_normal((sp.n, d)) @ chol.T
        head_w = (x[: sp.n1] - mu_vec) @ whiten
        e1 = bool(np.einsum("ij,ij->i", head_w, head_w).max() <= cap)
        y = pair_and_rescale(x[sp.n1 :])
        y_w = y @ whiten
        e2 = bool(np.einsum("ij,ij->i", y_w, y_w).max() <= cap)
        # in whitened coordinates the spectral event is eigmin >= 1/3
        g = y_w.T @ y_w / sp.n2
        e3 = bool(np.linalg.eigvalsh(g)[0] >= 1.0 / 3.0)
        event = e1 and e2 and e3

        ref = subset_indices(gen, sp.n1, sp.ref_size)
        cov_out, sigma_hat, mean_out = _estimate(x, sp, ref)
        uniform = bool(
            cov_out.score == 0
            and mean_out.score == 0
            and np.all(cov_out.counts == sp.k)
            and np.all(mean_out.counts == sp.k)
        )
        implication = True
        if event:
            implication = uniform
            if uniform:
                sigma_bar = y.T @ y / sp.n2
                cov_err = np.linalg.norm(sigma_hat - sigma_bar)
                implication = cov_err <= 1e-9 * max(1.0, np.linalg.norm(sigma_bar))
                head_avg = x[: sp.n1].mean(axis=0)
                mu_hat = mean_out.weights @ x[: sp.n1]
                mean_err = np.linalg.norm(mu_hat - head_avg)
                implication = implication and mean_err <= 1e-9 * max(
                    1.0, np.linalg.norm(head_avg)
                )
        return True, implication, (event, uniform)

    _, failures, events = _fold(one, trials)
    p_event = sum(1 for e, _ in events if e) / trials
    p_uniform = sum(1 for _, u in events if u) / trials
    required = 1.0 - sp.alpha - 0.05
    failures += 1 if p_uniform < required else 0
    stats_out = {
        "p_event": p_event,
        "p_uniform_scores0": p_uniform,
        "required": required,
        "lambda0": sp.lambda0,
    }
    return AuditReport(
        check_id=check_id,
        mode=mode,
        trials=trials,
        failures=failures,
        statistics=stats_out,
        seed=rng.seed,
    )


def _rotated_spd(gen: np.random.Generator, d: int, cap: float) -> np.ndarray:
    """Random symmetric matrix with spectrum 1 + U[0, cap] per coordinate.

    The per-coordinate cap keeps the total spectral surplus within d * cap,
    which is how the admissible trace budget is enforced by construction.
    """
    eigs = 1.0 + gen.uniform(0.0, cap, size=d)
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T)


def audit_density_lemmas(rng: RngStream, mode: str = "relaxed") -> AuditReport:
    """Log-density-ratio caps on dense grids over their hypothesis regions.

    Three regions, each at worst-case admissible parameters and with the
    boundary included (the caps are non-strict):

    - rescaled first coordinate of a sphere point: |t| up to the stated
      radius, rescaling ratio at both sandwich extremes;
    - d-dim projection against its linear image: s^T M s <= 1/2 and
      s^T (M - I) s <= eps / (4 n2), random well-conditioned M;
    - recentered projection: ||t|| <= 0.9 and a small inner-product cap
      against the worst admissible shift vector.

    All three must stay at or below eps / 2 everywhere, at eps =
    GRID_EPSILON and lambda0 = GRID_LAMBDA0.
    """
    eps = GRID_EPSILON
    lam0 = GRID_LAMBDA0
    budget = eps / 2.0
    failures = 0
    stats_out: dict[str, float] = {"budget": budget}

    # rescaled-coordinate region: ratio extremes of the covariance sandwich
    n2_a = math.ceil(32.0 * E_SQ * lam0 / eps)
    gamma_a = 8.0 * E_SQ * lam0 / n2_a
    t_max = math.sqrt((2.0 / 3.0) * eps / (eps + 16.0 * E_SQ * lam0))
    ts = np.linspace(-t_max, t_max, GRID_POINTS + 1)  # odd count: includes 0 and both ends
    ratios = [
        math.sqrt(1.0 - gamma_a),
        (1.0 - gamma_a) ** 0.25,
        1.0,
        (1.0 - gamma_a) ** -0.25,
        1.0 / math.sqrt(1.0 - gamma_a),
    ]
    worst = -math.inf
    for r in ratios:
        vals = [scaled_projection_log_ratio(float(t), r, n2_a) for t in ts]
        worst = max(worst, max(vals))
        failures += sum(1 for v in vals if v > budget + GRID_TOL)
    stats_out["worst_scaled_projection"] = worst
    stats_out["points_scaled_projection"] = float(ts.size * len(ratios))

    # projection-vs-linear-image region, one grid per dimension
    n2_b = math.ceil(96.0 * E_SQ * lam0 / eps)
    gamma_b = 8.0 * E_SQ * lam0 / n2_b
    quad_cap = eps / (4.0 * n2_b)
    fracs = np.array([0.25, 0.5, 0.75, 1.0])
    for d in GRID_DIMS:
        gen = rng.child(100 + d).generator()
        worst_d = -math.inf
        count = 0
        for block in range(5):
            m = _rotated_spd(gen, d, 1.5 * gamma_b / d)
            eye = np.eye(d)
            dirs = sphere_batch(gen, d, GRID_POINTS // 20)
            for u in dirs:
                q_m = float(u @ m @ u)
                q_gap = float(u @ (m - eye) @ u)
                rho = math.sqrt(0.5 / q_m)
                if q_gap > 0.0:
                    rho = min(rho, math.sqrt(quad_cap / q_gap))
                for f in fracs:
                    t = (f * rho) * u
                    val = t_density_log_ratio(t, m, n2_b)
                    worst_d = max(worst_d, val)
                    failures += 1 if val > budget + GRID_TOL else 0
                    count += 1
        stats_out[f"worst_t_density_d{d}"] = worst_d
        stats_out[f"points_t_density_d{d}"] = float(count)

    # recentering region: worst admissible shift length, slab grid around it
    d_s = SHIFT_DIM
    n2_c = n2_b
    n1_c = math.ceil(5.0 * math.e * math.sqrt(114.0 * lam0) / eps)
    ell_norm = math.sqrt(114.0 * lam0) * math.e / (n1_c * math.sqrt(n2_c))
    if ell_norm > eps / (5.0 * math.sqrt(n2_c)):
        raise PreconditionViolated("shift length exceeds its admissible cap")
    gen = rng.child(300).generator()
    u_ell = sphere_batch(gen, d_s, 1)[0]
    perp = gen.standard_normal(d_s)
    perp -= (perp @ u_ell) * u_ell
    perp /= np.linalg.norm(perp)
    ell = ell_norm * u_ell
    a_max = (eps / (50.0 * n2_c)) / ell_norm
    worst_c = -math.inf
    count = 0
    for a in np.linspace(-a_max, a_max, 25):
        b_max = math.sqrt(max(0.81 - a * a, 0.0))
        for b in np.linspace(0.0, b_max, 41):
            t = a * u_ell + b * perp
            val = shift_log_ratio(t, ell, n2_c)
            worst_c = max(worst_c, val)
            failures += 1 if val > budget + GRID_TOL else 0
            count += 1
    stats_out["worst_shift"] = worst_c
    stats_out["points_shift"] = float(count)
    stats_out["shift_norm"] = ell_norm

    total = int(stats_out["points_scaled_projection"] + count) + int(
        sum(v for k, v in stats_out.items() if k.startswith("points_t_density"))
    )
    return AuditReport(
        check_id="density_lemmas",
        mode=mode,
        trials=total,
        failures=failures,
        statistics=stats_out,
        seed=rng.seed,
    )


def audit_matrix_bounds(
    trials: int,
    d: int,
    rng: RngStream,
    mode: str = "relaxed",
) -> AuditReport:
    """Trace, spectral and Frobenius bounds for the projection-gap matrix.

    Builds synthetic admissible estimate pairs through their conjugated
    ratio matrix M >= I (spectrum 1 + U[0, (3/2) gamma / d] per coordinate,
    then rotated; trial 0 is the no-op pair M = I). The gap matrix embeds
    M - I in the top-left block and subtracts eps/(4 n2) everywhere, so its
    invariants follow exactly from M's spectrum. Asserts the three norm
    bounds and the min-ratio corollary with the effective size constant.

    Runs at epsilon = 1, where the loose form of the spectral bound and the
    sharp one (4 gamma / 3 - eps / (4 n2)) coincide; both are asserted.
    """
    if d < 2:
        raise PreconditionViolated("d must be >= 2")
    epsilon, delta, lambda0 = 1.0, 0.05, 20.0
    n2 = math.ceil(96.0 * E_SQ * lambda0 / epsilon)
    gamma = 8.0 * E_SQ * lambda0 / n2
    a_shift = epsilon / (4.0 * n2)
    log_delta = math.log(1.0 / delta)
    c2_eff = n2 * epsilon / (lambda0 * log_delta)
    required_ratio = 3.0 * c2_eff * log_delta / (256.0 * E_SQ)
    trace_bound = 1.5 * gamma - epsilon / 4.0
    spectral_loose = a_shift * (128.0 * E_SQ * lambda0 / 3.0 - 1.0)
    spectral_sharp = (4.0 / 3.0) * gamma - a_shift
    frob_bound = (d * epsilon**2 / (16.0 * n2**2)) * (
        (48.0 * E_SQ * lambda0 / (d * epsilon) - 1.0) ** 2 + (n2 / d - 1.0)
    )
    tol = 1e-12

    def one(i: int) -> tuple[bool, bool, tuple[float, float]]:
        gen = rng.child(i).generator()
        if i == 0:
            m = np.eye(d)  # no-op adjacency: identical estimates
        else:
            m = _rotated_spd(gen, d, 1.5 * gamma / d)
        eigs = np.linalg.eigvalsh(m)
        trace_a = float(np.sum(eigs - 1.0)) - epsilon / 4.0
        norm_a = max(float(eigs[-1]) - 1.0 - a_shift, a_shift)
        frob_sq = float(np.sum((eigs - 1.0 - a_shift) ** 2)) + (n2 - d) * a_shift**2
        ratio = min(-trace_a / norm_a, trace_a**2 / frob_sq)
        ok = (
            trace_a <= trace_bound + tol
            and trace_a < 0.0
            and norm_a <= spectral_loose + tol
            and norm_a <= spectral_sharp + tol
            and frob_sq <= frob_bound * (1.0 + 1e-12)
            and ratio >= required_ratio - 1e-9
        )
        return True, ok, (ratio, trace_a)

    _, failures, results = _fold(one, trials)
    stats_out = {
        "min_corollary_ratio": min(r[0] for r in results),
        "required_ratio": required_ratio,
        "max_trace": max(r[1] for r in results),
        "trace_bound": trace_bound,
        "gamma": gamma,
        "n2": float(n2),
        "c2_effective": c2_eff,
        "noop_trace": results[0][1],
    }
    return AuditReport(
        check_id=f"matrix_bounds.d{d}",
        mode=mode,
        trials=trials,
        failures=failures,
        statistics=stats_out,
        seed=rng.seed,
    )


def _fitted_tail_constant(
    deviations: np.ndarray, thresholds: np.ndarray, scales: np.ndarray
) -> float:
    """Smallest implied constant c with P(|X| >= t) <= 2 exp(-c * scale(t))."""
    n = deviations.size
    c_fit = math.inf
    for t, s in zip(thresholds, scales):
        p_hat = float(np.mean(deviations >= t))
        if p_hat <= 0.0 or s <= 0.0:
            continue
        c_fit = min(c_fit, -math.log(min(p_hat, 1.0) / 2.0) / s)
        if p_hat <= 2.0 / n:
            break  # deeper thresholds are pure noise
    return c_fit


def audit_tail_facts(
    trials: int,
    rng: RngStream,
    mode: str = "relaxed",
) -> AuditReport:
    """Classical concentration and distribution facts the analysis leans on.

    Hard sub-checks: chi-square upper tail below its explicit bound (with
    3-sigma Monte Carlo slack), sphere-projection squared radius matching
    its Beta law, an independent-coefficient Gaussian mixture staying
    exactly standard normal (both KS statistics at most the DKW bound
    sqrt(ln(2 / 1e-6) / (2 n)), about 2.69 / sqrt(n)), the quadratic
    form mean matching its trace (within the same 1e-6 two-sided level,
    4.89 sqrt(2) ||A||_F / sqrt(n)), the sampling-without-replacement tail,
    the trace-norm inverse gap, and the finite-support divergence triangle.
    Qualitative (unspecified constants): sub-exponential decay constants
    fitted for the quadratic-form and Beta tails must stay positive.
    Fewer than TAIL_FACTS_MIN_DRAWS draws are refused before any draw.
    """
    if trials < TAIL_FACTS_MIN_DRAWS:
        raise PreconditionViolated(
            f"tail_facts needs at least {TAIL_FACTS_MIN_DRAWS} draws, got {trials}"
        )
    n_draws = int(trials)
    failures = 0
    stats_out: dict[str, float] = {}
    # Dvoretzky-Kiefer-Wolfowitz with Massart's constant: a correct law's KS
    # statistic exceeds this with probability at most 1e-6
    ks_cutoff = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n_draws))

    # chi-square tail at 10 thresholds
    gen = rng.child(0).generator()
    k_df = 4
    draws = gen.chisquare(k_df, n_draws)
    worst_excess = -math.inf
    for t in np.linspace(k_df, k_df + 36.0, 10):
        bound = math.exp(-((math.sqrt(2.0 * t - k_df) - math.sqrt(k_df)) ** 2) / 4.0)
        p_hat = float(np.mean(draws >= t))
        sigma = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_draws)
        excess = p_hat - (bound + 3.0 * sigma)
        worst_excess = max(worst_excess, excess)
        failures += 1 if excess > 0.0 else 0
    stats_out["chi2_max_excess"] = worst_excess

    # sphere projection squared radius against its Beta law
    gen = rng.child(1).generator()
    n_sphere, i_proj = 20, 3
    pts = sphere_batch(gen, n_sphere, n_draws)
    r_sq = np.einsum("ij,ij->i", pts[:, :i_proj], pts[:, :i_proj])
    ks_sphere = float(
        stats.kstest(r_sq, stats.beta(i_proj / 2.0, (n_sphere - i_proj) / 2.0).cdf).statistic
    )
    failures += 1 if ks_sphere > ks_cutoff else 0
    stats_out["sphere_ks"] = ks_sphere

    # unit-coefficient Gaussian combinations stay standard normal
    gen = rng.child(2).generator()
    m = 6
    coef = np.abs(gen.standard_normal((n_draws, m))) + 0.3  # non-uniform sphere law
    coef /= np.linalg.norm(coef, axis=1)[:, None]
    mix = np.einsum("ij,ij->i", coef, gen.standard_normal((n_draws, m)))
    ks_mix = stats.kstest(mix, stats.norm.cdf)
    failures += 1 if ks_mix.statistic > ks_cutoff else 0
    stats_out["mixture_ks_pvalue"] = float(ks_mix.pvalue)

    # quadratic form: mean matches the trace, tail decays sub-exponentially
    gen = rng.child(3).generator()
    dim_q = 8
    b = gen.standard_normal((dim_q, dim_q))
    a_mat = 0.5 * (b + b.T)
    norms = matrix_norms(a_mat)
    g = gen.standard_normal((n_draws, dim_q))
    quad = np.einsum("ij,ij->i", g @ a_mat, g)
    mean_gap = abs(float(quad.mean()) - float(np.trace(a_mat)))
    # the mean of g^T A g has variance 2 ||A||_F^2 / n; 4.89 standard
    # deviations is the two-sided 1e-6 level of the KS sub-checks
    mean_tol = 4.89 * math.sqrt(2.0) * norms.frobenius / math.sqrt(n_draws)
    failures += 1 if mean_gap > mean_tol else 0
    stats_out["quad_mean_gap"] = mean_gap
    stats_out["quad_mean_tol"] = mean_tol
    dev = np.abs(quad - np.trace(a_mat))
    ts = np.arange(1, 9) * norms.frobenius
    scales = np.minimum(ts**2 / norms.frobenius**2, ts / norms.spectral)
    c_quad = _fitted_tail_constant(dev, ts, scales)
    failures += 1 if not c_quad > 0.02 else 0
    stats_out["quad_c_fit"] = c_quad

    # Beta concentration around its mean (constants unspecified: fit only)
    gen = rng.child(4).generator()
    a0, b0 = 1.5, 8.5
    beta_draws = gen.beta(a0, b0, n_draws)
    dev = beta_draws - a0 / (a0 + b0)
    xs = np.arange(1, 9) * 0.03
    scales = np.minimum(b0**2 * xs**2 / a0, b0 * xs)
    c_beta = _fitted_tail_constant(dev, xs, scales)
    failures += 1 if not c_beta > 0.02 else 0
    stats_out["beta_c_fit"] = c_beta

    # sampling without replacement concentrates like the iid bound
    gen = rng.child(5).generator()
    pop, good, n_samp = 1000, 300, 120
    y = gen.hypergeometric(good, pop - good, n_samp, n_draws) / n_samp
    worst_hg = -math.inf
    for t in np.linspace(0.02, 0.12, 6):
        bound = 2.0 * math.exp(-2.0 * t * t * n_samp)
        p_hat = float(np.mean(np.abs(y - good / pop) >= t))
        sigma = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_draws)
        excess = p_hat - (min(bound, 1.0) + 3.0 * sigma)
        worst_hg = max(worst_hg, excess)
        failures += 1 if excess > 0.0 else 0
    stats_out["hypergeom_max_excess"] = worst_hg

    # inverse trace-norm gap contraction for matrices above the identity
    gen = rng.child(6).generator()
    worst_inv = 0.0
    for _ in range(200):
        dim = int(gen.integers(2, 8))
        alpha = float(gen.uniform(0.05, 0.49))
        gaps = gen.uniform(0.0, 1.0, dim)
        gaps *= alpha / max(gaps.sum(), 1e-300) * gen.uniform(0.5, 1.0)
        q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
        mat = (q * (1.0 + gaps)) @ q.T
        fwd, inv = inverse_tracenorm_gap(0.5 * (mat + mat.T))
        limit = fwd * dim / (dim + fwd)
        ratio = inv / max(limit, 1e-300)
        worst_inv = max(worst_inv, ratio)
        failures += 1 if inv > limit + 1e-12 or inv > alpha + 1e-12 else 0
    stats_out["inverse_gap_max_ratio"] = worst_inv

    # finite-support divergence triangle, exact
    gen = rng.child(7).generator()
    tri_fail = 0
    for _ in range(200):
        p = gen.dirichlet(np.ones(6))
        q = gen.dirichlet(np.ones(6))
        r = gen.dirichlet(np.ones(6))
        e1, e2 = gen.uniform(0.0, 1.0, 2)
        tri_fail += 0 if weak_triangle_check(p, q, r, float(e1), float(e2)) else 1
    failures += tri_fail
    stats_out["triangle_failures"] = float(tri_fail)

    return AuditReport(
        check_id="tail_facts",
        mode=mode,
        trials=n_draws,
        failures=failures,
        statistics=stats_out,
        seed=rng.seed,
    )


def audit_end_to_end(
    sp: SamplerPlan,
    trials: int,
    rng: RngStream,
    mode: str = "strict",
) -> AuditReport:
    """Output law against the truth, plus an informational exact privacy smoke.

    For each (mean, variance) setting, runs the full sampler on fresh
    datasets, compares the non-Fail outputs to the same number of true
    draws with the corrected histogram TV, and requires tv <= alpha +
    3 boot_sigma. The settings share per-trial streams, so the second
    (shifted/scaled) setting must reproduce the first through the exact
    affine map; the worst relative mismatch is checked per trial. Too few
    non-Fail outputs is reported as a failure, never as a silent pass, and
    fewer than END_TO_END_MIN_TRIALS trials or ref_size != n1 is refused
    before any run.

    The smoke half takes one adjacent pair (a covariance-block row moved
    far) and reports the exact hockey-stick divergence of the two output
    laws at the plan's epsilon, both ways: the Fail-atom term plus the
    divergence of the Pass parts (see _release_law), whose masses are the
    Pass probabilities. It is informational and never affects the verdict.
    """
    if sp.d != 1:
        raise PreconditionViolated("end-to-end audit is wired for d = 1")
    if sp.ref_size != sp.n1:  # only then is the reference set arange(n1) whatever the stream
        raise PreconditionViolated(f"end-to-end audit needs ref_size == n1, got {sp.ref_size}")
    if trials < END_TO_END_MIN_TRIALS:
        raise PreconditionViolated(
            f"end-to-end audit needs at least {END_TO_END_MIN_TRIALS} trials, got {trials}"
        )
    failures = 0
    stats_out: dict[str, float] = {"alpha": sp.alpha}

    settings = ((0.0, 1.0), (1.0e6, 1.0e4))  # the truth, then its affine image

    def one(i: int) -> list[float | None]:
        base = rng.child(2 * i).generator().standard_normal((sp.n, sp.d))
        out = []
        for mu, var in settings:
            res, _ = sample_unbounded(mu + math.sqrt(var) * base, sp, rng.child(2 * i + 1))
            out.append(None if res.failed else float(res.value[0]))
        return out

    per_trial = [one(i) for i in range(trials)]

    (mu0, var0), (mu1, var1) = settings
    equiv_worst = 0.0
    for z0, z1 in per_trial:
        if z0 is None:
            continue
        if z1 is None:
            equiv_worst = math.inf
            continue
        want = mu1 + math.sqrt(var1 / var0) * (z0 - mu0)
        equiv_worst = max(equiv_worst, abs(z1 - want) / max(abs(want), math.sqrt(var1)))
    failures += 1 if equiv_worst > 1e-6 else 0
    stats_out["equivariance_max_err"] = equiv_worst

    insufficient = False
    for idx, (mu, var) in enumerate(settings):
        values = np.array([row[idx] for row in per_trial if row[idx] is not None])
        key = f"s{idx}"
        stats_out[f"fail_rate_{key}"] = 1.0 - values.size / max(trials, 1)
        if values.size < max(END_TO_END_MIN_TRIALS, trials // 10):
            insufficient = True
            stats_out[f"insufficient_outputs_{key}"] = 1.0
            continue
        fresh_gen = rng.child(10_000_019 + idx).generator()
        fresh = mu + math.sqrt(var) * fresh_gen.standard_normal(values.size)
        est = tv_histogram(values, fresh, rng=rng.child(10_000_777 + idx))
        stats_out[f"tv_{key}"] = est.tv
        stats_out[f"tv_sigma_{key}"] = est.boot_sigma
        failures += 1 if est.tv > sp.alpha + 3.0 * est.boot_sigma else 0
    if insufficient:
        failures += 1

    gen = rng.child(42).generator()
    a = gen.standard_normal((sp.n, sp.d))
    row = int(gen.integers(sp.n1, sp.n))
    b = a.copy()
    b[row] = _make_replacement(gen, "far", a[row], 1.0)
    laws, eps = [_release_law(a, sp), _release_law(b, sp)], sp.params.epsilon
    for key, (p, f), (q, g) in (("forward", *laws), ("backward", *laws[::-1])):
        atom = max(0.0, (1.0 - p) - math.exp(eps) * (1.0 - q))
        body = 0.0 if f is None else p if g is None else hockey_stick_1d(f, g, eps, form="max")
        stats_out[f"smoke_hs_{key}"] = atom + body

    return AuditReport(
        check_id="end_to_end",
        mode=mode,
        trials=trials,
        failures=failures,
        statistics=stats_out,
        seed=rng.seed,
    )


# check name -> (stream id, default trials). Each check keeps its stream id,
# so adding a check never reshuffles the randomness of the existing ones.
_CHECKS = {
    "score_sensitivity": (1, 60),
    "cov_stability": (2, 40),
    "mean_stability": (3, 40),
    "utility_events": (4, 120),
    "density_lemmas": (5, 0),  # grid-driven
    "matrix_bounds": (6, 60),
    "tail_facts": (7, 30_000),
    "end_to_end": (8, 800),
}


def _run_score_sensitivity(trials: int, mode: str, seed: int):
    rng = RngStream(seed, _CHECKS["score_sensitivity"][0])
    if mode == "relaxed":
        plans = [relaxed_plan(d) for d in range(1, 6)]
    else:
        plans = [strict_plan(1)]
    return [audit_score_sensitivity(trials, plans, rng, mode=mode)]


def _run_cov_stability(trials: int, mode: str, seed: int):
    rng = RngStream(seed, _CHECKS["cov_stability"][0])
    sp = relaxed_plan(3) if mode == "relaxed" else strict_plan(1)
    return [audit_cov_stability(trials, sp, rng, mode=mode)]


def _run_mean_stability(trials: int, mode: str, seed: int):
    rng = RngStream(seed, _CHECKS["mean_stability"][0])
    sp = relaxed_plan(3) if mode == "relaxed" else strict_plan(1)
    return [audit_mean_stability(trials, sp, rng, mode=mode)]


def _run_utility_events(trials: int, mode: str, seed: int):
    base = RngStream(seed, _CHECKS["utility_events"][0])
    reports = [
        audit_utility_events(
            trials, strict_plan(d), base.child(j), mode=mode, check_id=f"utility_events.d{d}"
        )
        for j, d in enumerate((1, 2, 4))
    ]
    reports.append(
        audit_utility_events(
            trials, strict_plan(2), base.child(9), mode=mode,
            mu=np.array([3.0, -7.0]), sigma=np.diag([1.0, 100.0]),
            check_id="utility_events.scaled",
        )
    )
    return reports


def _run_density_lemmas(trials: int, mode: str, seed: int):
    return [audit_density_lemmas(RngStream(seed, _CHECKS["density_lemmas"][0]), mode=mode)]


def _run_matrix_bounds(trials: int, mode: str, seed: int):
    base = RngStream(seed, _CHECKS["matrix_bounds"][0])
    return [
        audit_matrix_bounds(trials, d, base.child(j), mode=mode)
        for j, d in enumerate((2, 3, 5))
    ]


def _run_tail_facts(trials: int, mode: str, seed: int):
    return [audit_tail_facts(trials, RngStream(seed, _CHECKS["tail_facts"][0]), mode=mode)]


def _run_end_to_end(trials: int, mode: str, seed: int):
    rng = RngStream(seed, _CHECKS["end_to_end"][0])
    sp = strict_plan(1)
    return [audit_end_to_end(sp, trials, rng, mode=mode)]


REGISTRY: dict[str, Callable[[int, str, int], list[AuditReport]]] = {
    "score_sensitivity": _run_score_sensitivity,
    "cov_stability": _run_cov_stability,
    "mean_stability": _run_mean_stability,
    "utility_events": _run_utility_events,
    "density_lemmas": _run_density_lemmas,
    "matrix_bounds": _run_matrix_bounds,
    "tail_facts": _run_tail_facts,
    "end_to_end": _run_end_to_end,
}


def run_checks(
    checks: Sequence[str] = ("all",),
    mode: str = "relaxed",
    seed: int = 20_240_817,
    trials: int | None = None,
    threads: int = 1,
) -> list[AuditReport]:
    """Run named audit checks (or all of them) and return their reports.

    trials overrides every check's default count; None keeps per-check
    defaults. With threads > 1, up to that many checks run at once, each
    on one thread; a check's own trials always run serially (fanning them
    out over threads ran slower than serial). Reports come back in the
    order the checks are named (registry order for "all"), byte-stable for
    a fixed (checks, mode, seed, trials) tuple whatever threads is. A mode
    other than relaxed or strict, a trial count below 1 or an unknown
    check is refused before any check runs.
    """
    if mode not in ("relaxed", "strict"):
        raise PreconditionViolated(f"mode must be 'relaxed' or 'strict', got {mode!r}")
    if trials is not None and trials < 1:
        raise PreconditionViolated(f"trials must be >= 1, got {trials}")
    names = list(REGISTRY) if "all" in checks else list(checks)
    for name in names:
        if name not in REGISTRY:
            raise PreconditionViolated(
                f"unknown check {name!r}; valid: {', '.join(REGISTRY)} or 'all'"
            )

    def run(name: str) -> list[AuditReport]:
        return REGISTRY[name](_CHECKS[name][1] if trials is None else trials, mode, seed)

    if threads <= 1 or len(names) < 2:
        batches = [run(name) for name in names]
    else:
        with ThreadPoolExecutor(max_workers=min(threads, len(names))) as pool:
            batches = list(pool.map(run, names))
    return [report for batch in batches for report in batch]
