"""Differentially private Gaussian sampling pipelines.

Three entry points share one skeleton, ``_run``: estimate, gate, release.
``estimate`` runs the stability-scored estimators (the same chain the audit
re-checks), the noisy threshold test ``ptr_check`` gates the worst score
with the pipeline's ``privacy.Gate``, and only on Pass does the pipeline
build its ``ReleaseLaw`` from the estimate and draw the output from it.
Each entry point only validates its input, splits it into blocks and names
its release law; ``unbounded_law`` is sample_unbounded's, which the audit's
exact output law reads too.

Every pipeline consumes its RngStream through a single generator in a fixed
order (reference subset, gate noise, then output randomness), so running
two adjacent datasets under the same stream couples those choices exactly.
The subset is drawn only when ``ref_size`` is below the mean block's row
count; at ``ref_size == n1`` (every default plan) it is the whole block and
the gate noise is the stream's first draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from . import estimators
from .estimators import (
    EstimatorConfig, WeightedCovOutput, WeightVectorOutput, stable_cov, stable_mean,
)
from .exceptions import NonFiniteInput, PreconditionViolated, ShapeMismatch, SubsetTooLarge
from .linalg import sym_sqrt
from .privacy import (  # perfbench reads GATE_EPS_FRAC and GATE_DELTA_FRAC here
    GATE_DELTA_FRAC, GATE_EPS_FRAC, Gate, PrivacyParams, PtrOutcome, SamplerPlan,
    noise_multiplier_sq, reference_size, truncated_laplace,
)
from .randomness import RngStream, sphere_point, subset_indices


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


def ptr_check(score: float, gate: Gate, gen: np.random.Generator) -> PtrOutcome:
    """gate's noisy threshold test on a sensitivity-2 score: one ``gen.random()`` draw."""
    if not math.isfinite(score) or score < 0.0:
        raise PreconditionViolated(f"score must be finite and >= 0, got {score}")
    threshold = gate.threshold
    eta = truncated_laplace(gen, gate.scale, threshold)
    return PtrOutcome.PASS if score + eta < threshold else PtrOutcome.FAIL


@dataclass(frozen=True)
class Estimate:
    """Both estimator outputs on one dataset and reference set, and the score
    the gate tests. cov is None on the known-covariance path (sigma_hat = I).

    eig is sigma_hat's one eigendecomposition ``estimators._eigh(sigma_hat)``
    (w ascending, u), taken once per call: stable_mean whitens with it and
    cov_aware_mean builds its release root from it. It is None on the
    known-covariance path, whose identity is never decomposed.
    """

    cov: WeightedCovOutput | None
    mean: WeightVectorOutput
    sigma_hat: np.ndarray
    mu_hat: np.ndarray
    eig: tuple[np.ndarray, np.ndarray] | None

    @property
    def score(self) -> int:
        return self.mean.score if self.cov is None else max(self.cov.score, self.mean.score)


def estimate(
    mean_block: np.ndarray, cov_block: np.ndarray | None, cfg: EstimatorConfig, ref: np.ndarray
) -> Estimate:
    """``stable_cov`` on cov_block (None: the identity covariance), then
    ``stable_mean`` on mean_block in its metric at reference rows ref. Draws nothing."""
    if cov_block is None:
        cov_out, sigma_hat, eig = None, np.eye(mean_block.shape[1]), None
    else:
        cov_out = stable_cov(cov_block, cfg)
        sigma_hat = cov_out.covariance()
        eig = estimators._eigh(sigma_hat)
    mean_out = stable_mean(mean_block, sigma_hat, cfg, ref, eig)
    return Estimate(cov_out, mean_out, sigma_hat, mean_out.weights @ mean_block, eig)


class ReleaseLaw(NamedTuple):
    """A pipeline's output law on Pass: ``mu + scale * factor @ z``, with z
    uniform on the unit sphere (sphere) or standard normal (Gaussian) in
    R^{factor.shape[1]}. factor @ factor.T is sigma_hat; None stands for the
    identity, and then the output is ``mu + scale * z`` with z in R^d.
    Immutable; a tuple, as it is built on every passing call."""

    mu: np.ndarray
    scale: float
    factor: np.ndarray | None
    sphere: bool

    def draw(self, gen: np.random.Generator) -> np.ndarray:
        """One output from gen's next draws."""
        mu, scale, factor, sphere = self
        n = mu.shape[0] if factor is None else factor.shape[1]
        z = sphere_point(gen, n) if sphere else gen.standard_normal(n)
        return mu + scale * (z if factor is None else factor @ z)


def unbounded_law(est: Estimate, plan: SamplerPlan) -> ReleaseLaw:
    """sample_unbounded's release law on est: ``mu_hat + sqrt((1 - 1/n1) n2) W z``
    with W = est.cov.w_matrix (W W^T = sigma_hat) and z uniform on S^{n2-1}."""
    scale = math.sqrt((1.0 - 1.0 / plan.n1) * plan.n2)
    return ReleaseLaw(est.mu_hat, scale, est.cov.w_matrix, True)


def _run(
    mean_block: np.ndarray, cov_block: np.ndarray | None, cfg: EstimatorConfig,
    gate: Gate, ref_size: int, sizes: dict[str, Any],
    law: Callable[[Estimate], ReleaseLaw], rng: RngStream,
) -> tuple[SampleResult, RunTrace]:
    """The skeleton every pipeline runs once its input is validated:
    estimate at a drawn reference set, gate its score, and on Pass return a
    draw of ``law(est)``, taken after the gate's noise; the law is built on
    Pass only. Non-finite blocks are rejected before the stream is touched,
    so a rejected call consumes no randomness."""
    for block in (mean_block, cov_block):
        if block is not None and not np.isfinite(block).all():
            raise NonFiniteInput("dataset holds a NaN or infinite entry")
    gen = rng.generator()
    ref = subset_indices(gen, mean_block.shape[0], ref_size)
    est = estimate(mean_block, cov_block, cfg, ref)
    outcome = ptr_check(est.score, gate, gen)
    trace = RunTrace(
        score_cov=None if est.cov is None else est.cov.score,
        score_mean=est.mean.score,
        ptr=outcome,
        cov_uniform=None if est.cov is None else bool((est.cov.counts == cfg.k).all()),
        mean_uniform=bool((est.mean.counts == cfg.k).all()),
        reference_set=ref,
        sizes=sizes,
    )
    if outcome is PtrOutcome.FAIL:
        return SampleResult(None), trace
    return SampleResult(law(est).draw(gen)), trace


def sample_unbounded(
    x: np.ndarray, plan: SamplerPlan, rng: RngStream
) -> tuple[SampleResult, RunTrace]:
    """One private sample from an unknown unbounded Gaussian.

    x must have shape (plan.n, plan.d): rows [0, n1) feed the mean
    estimate, rows [n1, n) the covariance estimate. On Pass the output is
    a draw of ``unbounded_law``, which under clean data is one exact draw
    from the underlying Gaussian.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (plan.n, plan.d):
        raise ShapeMismatch(f"dataset shape {x.shape} does not match plan {(plan.n, plan.d)}")
    sizes = {"n": plan.n, "n1": plan.n1, "n2": plan.n2, "k": plan.k,
             "ref_size": plan.ref_size, "lambda0": plan.lambda0}
    return _run(
        x[: plan.n1], x[plan.n1 :], EstimatorConfig(plan.lambda0, plan.k), Gate.of(plan.params),
        plan.ref_size, sizes, lambda est: unbounded_law(est, plan), rng,
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
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 1:
        raise ShapeMismatch(f"expected at least 2 rows and 1 column, got shape {x.shape}")
    n = x.shape[0]
    gate = Gate.of(params)
    k = math.ceil(gate.fail_score)  # ladder_granularity(params), off the one gate
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
        mean_block, cov_block, cfg, gate, m_ref, sizes,
        lambda est: ReleaseLaw(est.mu_hat, c, sym_sqrt(est.sigma_hat, est.eig), False),
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
        x, None, EstimatorConfig(plan.lambda0, plan.k), Gate.of(plan.params), plan.ref_size, sizes,
        lambda est: ReleaseLaw(est.mu_hat, math.sqrt(1.0 - 1.0 / plan.n1), None, False),
        rng,
    )
