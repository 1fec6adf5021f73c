"""Differentially private Gaussian sampling pipelines.

Three entry points share the same skeleton: estimate covariance and mean
with the stability-scored estimators, gate the worst score through the
noisy threshold test at budget (eps/3, delta/6), and only on Pass release
an output whose randomness rides on the estimated covariance factor.

Every pipeline consumes its RngStream through a single generator in a fixed
order (reference subset, gate noise, then output randomness), so running
two adjacent datasets under the same stream couples those choices exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .estimators import EstimatorConfig, stable_cov, stable_mean
from .exceptions import NonFiniteInput, ShapeMismatch, SubsetTooLarge
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


def _check_finite(x: np.ndarray) -> None:
    # Runs before the stream is touched, so a rejected call consumes no
    # randomness and a NaN or inf can never reach the gate or the release.
    if not np.isfinite(x).all():
        raise NonFiniteInput("dataset holds a NaN or infinite entry")


def _gate(score: float, params: PrivacyParams, gen: np.random.Generator) -> PtrOutcome:
    gate_params = params.split(GATE_EPS_FRAC, GATE_DELTA_FRAC)
    threshold = pass_threshold(gate_params)
    eta = truncated_laplace(gen, 2.0 / gate_params.epsilon, threshold)
    return PtrOutcome.PASS if score + eta < threshold else PtrOutcome.FAIL


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
    x = np.asarray(x, dtype=float)
    if x.shape != (plan.n, plan.d):
        raise ShapeMismatch(f"dataset shape {x.shape} does not match plan {(plan.n, plan.d)}")
    _check_finite(x)
    gen = rng.generator()
    ref = subset_indices(gen, plan.n1, plan.ref_size)

    cfg = EstimatorConfig(plan.lambda0, plan.k)
    cov_out = stable_cov(x[plan.n1 :], cfg)
    sigma_hat = cov_out.covariance()
    mean_out = stable_mean(x[: plan.n1], sigma_hat, cfg, ref)
    mu_hat = mean_out.weights @ x[: plan.n1]

    outcome = _gate(max(cov_out.score, mean_out.score), plan.params, gen)
    trace = RunTrace(
        score_cov=cov_out.score,
        score_mean=mean_out.score,
        ptr=outcome,
        cov_uniform=bool(np.all(cov_out.counts == plan.k)),
        mean_uniform=bool(np.all(mean_out.counts == plan.k)),
        reference_set=ref,
        sizes={"n": plan.n, "n1": plan.n1, "n2": plan.n2, "k": plan.k,
               "ref_size": plan.ref_size, "lambda0": plan.lambda0},
    )
    if outcome is PtrOutcome.FAIL:
        return SampleResult(None), trace
    z = sphere_point(gen, plan.n2)
    scale = math.sqrt((1.0 - 1.0 / plan.n1) * plan.n2)
    value = mu_hat + scale * (cov_out.w_matrix @ z)
    return SampleResult(value), trace


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
    x = np.asarray(x, dtype=float)
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
    _check_finite(x)

    gen = rng.generator()
    ref = subset_indices(gen, mean_block.shape[0], m_ref)
    cfg = EstimatorConfig(lambda0, k)
    cov_out = stable_cov(cov_block, cfg)
    sigma_hat = cov_out.covariance()
    mean_out = stable_mean(mean_block, sigma_hat, cfg, ref)
    mu_hat = mean_out.weights @ mean_block

    outcome = _gate(max(cov_out.score, mean_out.score), params, gen)
    c_sq = noise_multiplier_sq(lambda0, params, n)
    trace = RunTrace(
        score_cov=cov_out.score,
        score_mean=mean_out.score,
        ptr=outcome,
        cov_uniform=bool(np.all(cov_out.counts == k)),
        mean_uniform=bool(np.all(mean_out.counts == k)),
        reference_set=ref,
        sizes={"n": n, "k": k, "ref_size": m_ref, "lambda0": lambda0, "c_sq": c_sq},
    )
    if outcome is PtrOutcome.FAIL:
        return SampleResult(None), trace
    g = gen.standard_normal(x.shape[1])
    value = mu_hat + math.sqrt(c_sq) * (sym_sqrt(sigma_hat) @ g)
    return SampleResult(value), trace


def sample_known_cov(
    x: np.ndarray, plan: SamplerPlan, rng: RngStream
) -> tuple[SampleResult, RunTrace]:
    """Private sample when the covariance is known to be the identity.

    x holds only the mean block, shape (plan.n1, plan.d). The covariance
    estimator is skipped: the weight vector is computed against the
    identity and on Pass the output is ``mu_hat + sqrt(1 - 1/n1) g`` with
    g standard normal, matching the unbounded sampler's variance inflation.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (plan.n1, plan.d):
        raise ShapeMismatch(f"dataset shape {x.shape} does not match plan {(plan.n1, plan.d)}")
    _check_finite(x)
    gen = rng.generator()
    ref = subset_indices(gen, plan.n1, plan.ref_size)
    cfg = EstimatorConfig(plan.lambda0, plan.k)
    mean_out = stable_mean(x, np.eye(plan.d), cfg, ref)
    mu_hat = mean_out.weights @ x

    outcome = _gate(mean_out.score, plan.params, gen)
    trace = RunTrace(
        score_cov=None,
        score_mean=mean_out.score,
        ptr=outcome,
        cov_uniform=None,
        mean_uniform=bool(np.all(mean_out.counts == plan.k)),
        reference_set=ref,
        sizes={"n1": plan.n1, "k": plan.k, "ref_size": plan.ref_size,
               "lambda0": plan.lambda0},
    )
    if outcome is PtrOutcome.FAIL:
        return SampleResult(None), trace
    g = gen.standard_normal(plan.d)
    value = mu_hat + math.sqrt(1.0 - 1.0 / plan.n1) * g
    return SampleResult(value), trace
