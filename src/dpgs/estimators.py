"""Stability-scored covariance and mean estimators.

The two estimators share one design: sweep a ladder of 2k+1 outlier
thresholds, record how the retained subset degrades as the threshold
tightens, and turn that degradation into an integer instability score with
data-replacement sensitivity at most 2. Point weights are averaged retention
indicators over the top half of the ladder, so a clean dataset gets exactly
uniform weights and score 0.

Index sets are 0-based numpy arrays throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    EmptyReferenceSet,
    OddRowCount,
    PreconditionViolated,
)
from .linalg import RANGE_RTOL, SINGULAR_RTOL, check_symmetric


@dataclass(frozen=True)
class EstimatorConfig:
    """Threshold scale and ladder granularity shared by both estimators.

    lambda0 is the squared-radius scale for inliers; k is the ladder
    granularity (the ladder has 2k+1 rungs ``exp(l/k) * lambda0``).
    """

    lambda0: float
    k: int

    def __post_init__(self) -> None:
        if not self.lambda0 >= 1.0:
            raise PreconditionViolated(f"lambda0 must be >= 1, got {self.lambda0}")
        if not self.k >= 5:
            raise PreconditionViolated(f"k must be >= 5, got {self.k}")

    def thresholds(self) -> np.ndarray:
        """The 2k+1 ladder values ``exp(l/k) * lambda0``, l = 0..2k."""
        ls = np.arange(2 * self.k + 1)
        return np.exp(ls / self.k) * self.lambda0


@dataclass(frozen=True)
class WeightedCovOutput:
    """StableCov result.

    w_matrix has column i equal to ``sqrt(weights[i]) * y_i``, so the
    estimate itself is ``w_matrix @ w_matrix.T``. counts[i] is the integer
    retention count over the top-half ladder; weights = counts / (k * m).
    """

    w_matrix: np.ndarray
    weights: np.ndarray
    counts: np.ndarray
    score: int

    def covariance(self) -> np.ndarray:
        return self.w_matrix @ self.w_matrix.T


@dataclass(frozen=True)
class WeightVectorOutput:
    """StableMean result: per-row weights, retention counts and score.

    weights sum to 1 when any row was retained on the top-half ladder and
    to 0 otherwise (all-zero weights).
    """

    weights: np.ndarray
    counts: np.ndarray
    score: int


def pair_and_rescale(x: np.ndarray) -> np.ndarray:
    """Difference pairing ``y_i = (x_i - x_{i+m}) / sqrt(2)``, i < m = rows/2.

    Requires an even row count. Each y_i is mean-free with the source
    covariance, which is what lets the covariance half of the pipeline
    ignore the unknown mean.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d dataset, got shape {x.shape}")
    n = x.shape[0]
    if n % 2 != 0:
        raise OddRowCount(f"pairing needs an even row count, got {n}")
    m = n // 2
    return (x[:m] - x[m:]) / math.sqrt(2.0)


def _subset_scatter(y: np.ndarray, mask: np.ndarray, m: int) -> np.ndarray:
    """Scatter matrix (1/m) * sum_{i in mask} y_i y_i^T. Note the fixed
    normalizer m, not the subset size."""
    ys = y[mask]
    return (ys.T @ ys) / m


def _prune_to_fixed_point(
    y: np.ndarray, mask: np.ndarray, lam: float, norms: np.ndarray | None = None
) -> np.ndarray:
    """Run largest_good_subset's pruning loop on ``mask`` in place until
    nothing is dropped, and return the fixed point's own norms (one per
    member, in index order; empty when the fixed point is empty).

    ``norms``, if given, must be the members' norms under the scatter of
    the current mask; the first pass then needs no eigendecomposition.
    """
    m = y.shape[0]
    while True:
        if norms is None:
            if not np.any(mask):
                return np.empty(0)
            w, u = np.linalg.eigh(_subset_scatter(y, mask, m))
            if w[-1] <= 0.0 or w[0] <= SINGULAR_RTOL * w[-1]:
                mask[:] = False
                return np.empty(0)
            coords = (y[mask] @ u) / np.sqrt(w)
            norms = np.einsum("ij,ij->i", coords, coords)
        out = norms > lam
        if not np.any(out):
            return norms
        mask[np.flatnonzero(mask)[out]] = False
        norms = None


def largest_good_subset(y: np.ndarray, lam: float) -> np.ndarray:
    """Largest subset whose own scatter matrix certifies every member.

    Iterates from the full index set: form ``a = (1/m) sum_{j in s} y_j y_j^T``
    (normalizer m is the full row count), drop every i in s with
    ``y_i^T a^{-1} y_i > lam``, and repeat until nothing is dropped. A
    singular scatter matrix drops every remaining point (the norm is taken
    as +inf for all vectors, including zero vectors), so the result is then
    empty. Returns sorted 0-based indices.

    In exact arithmetic the pruning map F above is monotone in s: a larger
    subset has a larger scatter (in the Loewner order), hence smaller
    norms, and a singular scatter drops every row, so F(s) is contained in
    F(t) when s is in t. F is monotone in lam too. The iteration from the
    full set therefore ends at the greatest fixed point, the union of all
    subsets that certify every member, and the result for a smaller lam is
    a subset of the result for a larger one.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1:
        raise DimensionMismatch(f"expected a nonempty 2-d array, got shape {y.shape}")
    if not lam > 0.0:
        raise PreconditionViolated(f"lam must be positive, got {lam}")
    mask = np.ones(y.shape[0], dtype=bool)
    _prune_to_fixed_point(y, mask, lam)
    return np.flatnonzero(mask).astype(np.int64)


def _ladder_subset_sizes_and_counts(
    y: np.ndarray, cfg: EstimatorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Sizes |S_l| for l = 0..2k and per-point retention counts over
    l = k+1..2k, where S_l is largest_good_subset(y, lambda_l).

    One top-down sweep: rung 2k starts from the full set and every lower
    rung starts from the rung above's fixed point. Since the pruning map is
    monotone in the subset and in lambda (see largest_good_subset), the
    greatest fixed points are nested, S_l in S_{l+1}, so iterating from
    S_{l+1} at lambda_l reaches S_l exactly. The fixed point's own norms
    carry over: a rung where none exceeds lambda_l costs no
    eigendecomposition, and once a rung is empty every lower rung is.
    The warm start makes the nesting hold in floating point by
    construction; restarting each rung from the full set did not
    guarantee it.
    """
    m = y.shape[0]
    k = cfg.k
    thresholds = cfg.thresholds()
    sizes = np.zeros(2 * k + 1, dtype=np.int64)
    counts = np.zeros(m, dtype=np.int64)
    mask = np.ones(m, dtype=bool)
    norms = None
    for ell in range(2 * k, -1, -1):
        norms = _prune_to_fixed_point(y, mask, float(thresholds[ell]), norms)
        if norms.size == 0:
            break
        sizes[ell] = norms.size
        if ell > k:
            counts[mask] += 1
    return sizes, counts


def stable_cov(x: np.ndarray, cfg: EstimatorConfig) -> WeightedCovOutput:
    """Replacement-stable covariance estimate with an instability score.

    x must have an even row count 2m. The pairing step absorbs the mean;
    the ladder sweep yields score = min(k, min_{0<=l<=k} (m - |S_l| + l))
    and weights w_i = counts_i / (k m) with counts over l = k+1..2k.
    """
    y = pair_and_rescale(x)
    m = y.shape[0]
    k = cfg.k
    sizes, counts = _ladder_subset_sizes_and_counts(y, cfg)
    score = int(min(k, np.min(m - sizes[: k + 1] + np.arange(k + 1))))
    weights = counts / (k * m)
    w_matrix = (y * np.sqrt(weights)[:, None]).T
    return WeightedCovOutput(w_matrix=w_matrix, weights=weights, counts=counts, score=score)


def _pairwise_mahalanobis_sq(
    x: np.ndarray, ref: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """All squared Mahalanobis distances ||x_i - ref_j||^2_sigma.

    Uses the pseudoinverse-limit convention of mahalanobis_sq: with a
    singular sigma, differences outside range(sigma) get +inf while
    differences inside it (in particular exact ties) use sigma^+.
    """
    sigma = check_symmetric(sigma)
    d = sigma.shape[0]
    if x.shape[1] != d or ref.shape[1] != d:
        raise DimensionMismatch("row dimension does not match sigma")
    w, u = np.linalg.eigh(sigma)
    top = float(w[-1]) if w.size else 0.0
    if top <= 0.0:
        # sigma == 0: distance 0 for identical rows, +inf otherwise.
        sq = _pairwise_sq_euclid(x, ref)
        dist = np.where(sq <= (RANGE_RTOL**2) * 1e-300, 0.0, np.inf)
        dist[sq == 0.0] = 0.0
        return dist
    keep = w > SINGULAR_RTOL * top
    xk = (x @ u[:, keep]) / np.sqrt(w[keep])
    rk = (ref @ u[:, keep]) / np.sqrt(w[keep])
    dist = _pairwise_sq_euclid(xk, rk)
    if not np.all(keep):
        xn = x @ u[:, ~keep]
        rn = ref @ u[:, ~keep]
        null_mass = _pairwise_sq_euclid(xn, rn)
        raw = _pairwise_sq_euclid(x, ref)
        dist = np.where(null_mass > (RANGE_RTOL**2) * raw, np.inf, dist)
    return dist


def _pairwise_sq_euclid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    sq = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    return np.clip(sq, 0.0, None)


def largest_core(
    x: np.ndarray, sigma_hat: np.ndarray, lam: float, tau: int, r: np.ndarray
) -> np.ndarray:
    """Rows with at least tau reference neighbors within Mahalanobis radius.

    N_i = {j in r : ||x_i - x_j||^2_sigma_hat <= lam}; keeps
    {i : |N_i| >= tau}. Returns sorted 0-based indices into x.
    """
    x = np.asarray(x, dtype=float)
    r = _check_reference(r, x.shape[0])
    if not lam > 0.0:
        raise PreconditionViolated(f"lam must be positive, got {lam}")
    dist = _pairwise_mahalanobis_sq(x, x[r], sigma_hat)
    nbrs = np.sum(dist <= lam, axis=1)
    return np.flatnonzero(nbrs >= tau).astype(np.int64)


def _check_reference(r: np.ndarray, n: int) -> np.ndarray:
    r = np.asarray(r, dtype=np.int64).reshape(-1)
    if r.size == 0:
        raise EmptyReferenceSet("reference set is empty")
    if np.any(r < 0) or np.any(r >= n):
        raise PreconditionViolated("reference indices out of range")
    if np.unique(r).size != r.size:
        raise PreconditionViolated("reference indices must be distinct")
    return r


def stable_mean(
    x: np.ndarray,
    sigma_hat: np.ndarray,
    cfg: EstimatorConfig,
    r: np.ndarray,
    core_lambda: float | None = None,
) -> WeightVectorOutput:
    """Replacement-stable weight vector for a mean estimate.

    Sweeps the neighbor quota tau = |r| - l for l = 0..2k over fixed radius
    core_lambda (default ``e^2 * lambda0``), scoring like stable_cov and
    counting retention over l = k+1..2k; weights are counts / sum(counts),
    or all zero when no row is ever retained.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d dataset, got shape {x.shape}")
    n = x.shape[0]
    r = _check_reference(r, n)
    k = cfg.k
    if r.size <= 6 * k:
        warnings.warn(
            f"reference set of size {r.size} is not larger than 6k = {6 * k}; "
            "stability guarantees degrade",
            RuntimeWarning,
            stacklevel=2,
        )
    lam = math.e**2 * cfg.lambda0 if core_lambda is None else float(core_lambda)
    if not lam > 0.0:
        raise PreconditionViolated(f"core_lambda must be positive, got {lam}")

    dist = _pairwise_mahalanobis_sq(x, x[r], sigma_hat)
    nbrs = np.sum(dist <= lam, axis=1)
    # Row i enters S_l exactly when l >= t_i = |r| - nbrs_i.
    t = r.size - nbrs
    sizes = np.sum(t[None, :] <= np.arange(2 * k + 1)[:, None], axis=1)
    score = int(min(k, np.min(n - sizes[: k + 1] + np.arange(k + 1))))
    counts = np.clip(2 * k - np.maximum(k + 1, t) + 1, 0, k).astype(np.int64)
    total = int(counts.sum())
    weights = counts / total if total > 0 else np.zeros(n)
    return WeightVectorOutput(weights=weights, counts=counts, score=score)
