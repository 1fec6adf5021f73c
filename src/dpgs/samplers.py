"""Differentially private Gaussian sampling pipelines.

Three entry points share one skeleton, ``_run``: estimate covariance and
mean with the stability-scored estimators, gate the worst score through
the noisy threshold test ``ptr_check`` at budget (eps/3, delta/6), and
only on Pass release an output whose randomness rides on the estimated
covariance factor. Each entry point only validates its input, splits it
into blocks and supplies its release noise.

Every pipeline consumes its RngStream through a single generator in a fixed
order (reference subset, gate noise, then output randomness), so running
two adjacent datasets under the same stream couples those choices exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .estimators import EstimatorConfig, stable_cov, stable_mean
from .exceptions import NonFiniteInput, PreconditionViolated, ShapeMismatch, SubsetTooLarge
from .linalg import sym_sqrt
from .privacy import (
    PrivacyParams,
    PtrOutcome,
    SamplerPlan,
    ladder_granularity,
    noise_multiplier_sq,
    pass_threshold,
    reference_size,
    truncated_laplace,
)
from .randomness import RngStream, sphere_point, subset_indices

GATE_EPS_FRAC = 1.0 / 3.0
GATE_DELTA_FRAC = 1.0 / 6.0


@dataclass(frozen=True)
class SampleResult:
    """Pipeline output: a d-vector on Pass, None on Fail."""

    value: np.ndarray | None

    @property
    def failed(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class RunTrace:
    """Diagnostics for one pipeline execution.

    score_cov is None for the known-covariance path. The uniform flags are
    exact integer-count checks (every retention count equals k).
    """

    score_cov: int | None
    score_mean: int
    ptr: PtrOutcome
    cov_uniform: bool | None
    mean_uniform: bool
    reference_set: np.ndarray
    sizes: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "score_cov": self.score_cov,
            "score_mean": self.score_mean,
            "ptr": self.ptr.value,
            "cov_uniform": self.cov_uniform,
            "mean_uniform": self.mean_uniform,
            "reference_set": [int(i) for i in self.reference_set],
            "sizes": dict(self.sizes),
        }


def ptr_check(score: float, params: PrivacyParams, gen: np.random.Generator) -> PtrOutcome:
    """Noisy threshold test on a sensitivity-2 instability score.

    Pass iff score + eta < ln(1/delta)/epsilon + 2 with eta truncated
    Laplace noise (scale 2/epsilon, support +-(ln(1/delta)/epsilon + 2))
    drawn from gen. Score 0 always passes; scores at or beyond
    2 ln(1/delta)/epsilon + 4 always fail; in between both outcomes have
    positive probability. The pipelines call it with their budget's
    (GATE_EPS_FRAC, GATE_DELTA_FRAC) share.
    """
    if not np.isfinite(score) or score < 0.0:
        raise PreconditionViolated(f"score must be finite and >= 0, got {score}")
    threshold = pass_threshold(params)
    eta = truncated_laplace(gen, 2.0 / params.epsilon, threshold)
    return PtrOutcome.PASS if score + eta < threshold else PtrOutcome.FAIL


def _run(
    mean_block: np.ndarray, cov_block: np.ndarray | None, cfg: EstimatorConfig,
    params: PrivacyParams, ref_size: int, sizes: dict[str, Any],
    noise: Callable[..., np.ndarray], rng: RngStream,
) -> tuple[SampleResult, RunTrace]:
    """The skeleton every pipeline runs once its input is validated.

    Non-finite blocks are rejected before the stream is touched, so a
    rejected call consumes no randomness. cov_block None means the identity
    covariance. On Pass the output is mu_hat plus
    ``noise(gen, cov_out, sigma_hat)``, drawn after the gate's noise.
    """
    for block in (mean_block, cov_block):
        if block is not None and not np.isfinite(block).all():
            raise NonFiniteInput("dataset holds a NaN or infinite entry")
    gen = rng.generator()
    ref = subset_indices(gen, mean_block.shape[0], ref_size)
    if cov_block is None:
        cov_out, sigma_hat = None, np.eye(mean_block.shape[1])
    else:
        cov_out = stable_cov(cov_block, cfg)
        sigma_hat = cov_out.covariance()
    mean_out = stable_mean(mean_block, sigma_hat, cfg, ref)
    mu_hat = mean_out.weights @ mean_block

    score = mean_out.score if cov_out is None else max(cov_out.score, mean_out.score)
    outcome = ptr_check(score, params.split(GATE_EPS_FRAC, GATE_DELTA_FRAC), gen)
    trace = RunTrace(
        score_cov=None if cov_out is None else cov_out.score,
        score_mean=mean_out.score,
        ptr=outcome,
        cov_uniform=None if cov_out is None else bool(np.all(cov_out.counts == cfg.k)),
        mean_uniform=bool(np.all(mean_out.counts == cfg.k)),
        reference_set=ref,
        sizes=sizes,
    )
    if outcome is PtrOutcome.FAIL:
        return SampleResult(None), trace
    return SampleResult(mu_hat + noise(gen, cov_out, sigma_hat)), trace


def sample_unbounded(
    x: np.ndarray, plan: SamplerPlan, rng: RngStream
) -> tuple[SampleResult, RunTrace]:
    """One private sample from an unknown unbounded Gaussian.

    x must have shape (plan.n, plan.d): rows [0, n1) feed the mean
    estimate, rows [n1, n) the covariance estimate. On Pass the output is
    ``mu_hat + sqrt((1 - 1/n1) n2) * W z`` with z uniform on the unit
    sphere in R^{n2}, which under clean data is one exact draw from the
    underlying Gaussian.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (plan.n, plan.d):
        raise ShapeMismatch(f"dataset shape {x.shape} does not match plan {(plan.n, plan.d)}")
    scale = math.sqrt((1.0 - 1.0 / plan.n1) * plan.n2)
    sizes = {"n": plan.n, "n1": plan.n1, "n2": plan.n2, "k": plan.k,
             "ref_size": plan.ref_size, "lambda0": plan.lambda0}
    return _run(
        x[: plan.n1], x[plan.n1 :], EstimatorConfig(plan.lambda0, plan.k), plan.params,
        plan.ref_size, sizes,
        lambda gen, cov_out, _: scale * (cov_out.w_matrix @ sphere_point(gen, plan.n2)),
        rng,
    )


def cov_aware_mean(
    x: np.ndarray,
    params: PrivacyParams,
    lambda0: float,
    rng: RngStream,
    split_n1: int | None = None,
) -> tuple[SampleResult, RunTrace]:
    """Private mean estimate with covariance-shaped Gaussian noise.

    By default both estimators read the full dataset (the covariance
    pairing uses rows [0, 2*(n//2)) and the reference subset is drawn from
    all n rows). Passing split_n1 reserves rows [0, split_n1) for the mean
    estimate and the rest for the covariance estimate, matching the
    sampler's split for stability audits. On Pass the output is
    ``mu_hat + c * sqrt(sigma_hat) g`` with g standard normal and
    c^2 = 720 e^2 lambda0 log(12/delta) / (eps n)^2.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ShapeMismatch(f"expected at least 2 rows, got shape {x.shape}")
    n = x.shape[0]
    k = ladder_granularity(params)
    m_ref = reference_size(n, k, params.delta)

    if split_n1 is None:
        cov_block = x[: 2 * (n // 2)]
        mean_block = x
    else:
        if not 0 < split_n1 < n or (n - split_n1) % 2 != 0:
            raise ShapeMismatch(f"split_n1={split_n1} does not split {n} rows evenly")
        cov_block = x[split_n1:]
        mean_block = x[:split_n1]
    if m_ref > mean_block.shape[0]:
        raise SubsetTooLarge(
            f"reference size {m_ref} exceeds the {mean_block.shape[0]}-row mean block"
        )
    cfg = EstimatorConfig(lambda0, k)
    c_sq = noise_multiplier_sq(lambda0, params, n)
    sizes = {"n": n, "k": k, "ref_size": m_ref, "lambda0": lambda0, "c_sq": c_sq}
    c = math.sqrt(c_sq)
    return _run(
        mean_block, cov_block, cfg, params, m_ref, sizes,
        lambda gen, _, sigma_hat: c * (sym_sqrt(sigma_hat) @ gen.standard_normal(x.shape[1])),
        rng,
    )


def sample_known_cov(
    x: np.ndarray, plan: SamplerPlan, rng: RngStream
) -> tuple[SampleResult, RunTrace]:
    """Private sample when the covariance is known to be the identity.

    x holds only the mean block, shape (plan.n1, plan.d). The covariance
    estimator is skipped: the weight vector is computed against the
    identity and on Pass the output is ``mu_hat + sqrt(1 - 1/n1) g`` with
    g standard normal, matching the unbounded sampler's variance inflation.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (plan.n1, plan.d):
        raise ShapeMismatch(f"dataset shape {x.shape} does not match plan {(plan.n1, plan.d)}")
    sizes = {"n1": plan.n1, "k": plan.k, "ref_size": plan.ref_size, "lambda0": plan.lambda0}
    return _run(
        x, None, EstimatorConfig(plan.lambda0, plan.k), plan.params, plan.ref_size, sizes,
        lambda gen, _, __: math.sqrt(1.0 - 1.0 / plan.n1) * gen.standard_normal(plan.d),
        rng,
    )
