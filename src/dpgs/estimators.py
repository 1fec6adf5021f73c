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
from .linalg import SINGULAR_RTOL, check_symmetric, outside_range, range_mask


@dataclass(frozen=True)
class EstimatorConfig:
    """Threshold scale and ladder granularity shared by both estimators.

    lambda0 is the squared-radius scale for inliers; k is the ladder
    granularity (the ladder has 2k+1 rungs ``exp(l/k) * lambda0``).
    """

    lambda0: float
    k: int

    def __post_init__(self) -> None:
        # e^2 lambda0 is the top ladder rung and stable_mean's neighbor radius
        if not (self.lambda0 >= 1.0 and math.isfinite(math.e**2 * self.lambda0)):
            raise PreconditionViolated(
                f"lambda0 must be >= 1 with e^2 lambda0 finite, got {self.lambda0}"
            )
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
            ys = y[mask]
            w, u = np.linalg.eigh((ys.T @ ys) / m)  # normalizer m, not |mask|
            if w[-1] <= 0.0 or w[0] <= SINGULAR_RTOL * w[-1]:
                mask[:] = False
                return np.empty(0)
            coords = ys @ u  # divided in place: a pass holds two m x d arrays at most
            coords /= np.sqrt(w)
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
    carry over, and every lower rung whose threshold none of them exceeds
    (the pruning test is ``norm > lambda``, so a norm equal to a threshold
    stays and a NaN norm never prunes) keeps the same subset: one
    searchsorted assigns that whole run of rungs without another pass.
    Once a rung is empty every lower rung is. The warm start makes the
    nesting hold in floating point by construction; restarting each rung
    from the full set did not guarantee it.
    """
    m = y.shape[0]
    k = cfg.k
    thresholds = cfg.thresholds()
    sizes = np.zeros(2 * k + 1, dtype=np.int64)
    counts = np.zeros(m, dtype=np.int64)
    mask = np.ones(m, dtype=bool)
    norms = None
    ell = 2 * k
    while ell >= 0:
        norms = _prune_to_fixed_point(y, mask, float(thresholds[ell]), norms)
        if norms.size == 0:
            break
        top = np.max(norms, initial=-np.inf, where=~np.isnan(norms))
        low = int(np.searchsorted(thresholds, top, side="left"))
        sizes[low : ell + 1] = norms.size
        counts[mask] += max(0, ell - max(low, k + 1) + 1)
        ell = low - 1
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


# Relative slack of every neighbor-count certificate. It is far above the
# gamma_{d+2} ~ (d+2) 2^-53 rounding bound of the expanded form
# aa + bb - 2ab (and of the certificate's own arithmetic) for any d below
# about 9000.
_CERT_ETA = 1e-12
# Absolute slack that covers underflow in the certificate's sums of squares.
_CERT_FLOOR = 1e-280


def neighbor_counts(
    x: np.ndarray, ref: np.ndarray, sigma: np.ndarray, lam: float
) -> np.ndarray:
    """Per row of x, the number of ref rows with ``||x_i - ref_j||^2_sigma <= lam``.

    The counts equal, bit for bit, those of the dense n x |ref| matrix of
    expanded squared distances ``aa + bb - 2ab`` between the whitened rows
    a = x U / sqrt(w) and b = ref U / sqrt(w) (sigma = U diag(w) U^T), but
    that matrix is formed only when a certificate cannot decide a pair.

    The certificates work around a center c (a coordinate-wise median of
    b) and bound each true squared distance T by the triangle inequality or
    by a centered expansion. The dense value D differs from T by at most
    gamma_{d+2} (|a_i| + |b_j|)^2, so a certificate whose bound clears lam
    by eta ((|a_i| + |b_j|)^2 + lam), eta = 1e-12, puts the pair on the
    same side of lam as D; see _certified_counts. The certificate declines
    (and the dense matrix decides every pair) when data sits so far from
    the origin that eta (max|a| + max|b|)^2 >= lam, where the dense
    rounding error itself could reach lam, and when any pair lies within
    that slack of lam.

    sigma must be PSD (NotPD otherwise). A singular or zero sigma uses the
    pseudoinverse-limit convention of linalg.range_mask: differences
    outside range(sigma) get +inf while differences inside it (in
    particular exact ties) use sigma^+, all from the dense matrices.
    """
    sigma = check_symmetric(sigma)
    d = sigma.shape[0]
    if x.shape[1] != d or ref.shape[1] != d:
        raise DimensionMismatch("row dimension does not match sigma")
    w, u = np.linalg.eigh(sigma)
    keep = range_mask(w)
    xk = (x @ u[:, keep]) / np.sqrt(w[keep])
    rk = (ref @ u[:, keep]) / np.sqrt(w[keep])
    if np.all(keep):
        counts = _certified_counts(xk, rk, lam)
        if counts is not None:
            return counts
    dist = _pairwise_sq_euclid(xk, rk)
    if not np.all(keep):
        raw = _pairwise_sq_euclid(x, ref)
        # with no range every direction is null: the null mass is the raw
        # distance itself, and rotating it by u would only add rounding
        null_mass = raw
        if np.any(keep):
            null_mass = _pairwise_sq_euclid(x @ u[:, ~keep], ref @ u[:, ~keep])
        dist = np.where(outside_range(null_mass, raw), np.inf, dist)
    return np.sum(dist <= lam, axis=1)


def _certified_counts(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray | None:
    """Neighbor counts of rows a over refs b decided without the dense
    matrix, or None when some pair is left undecided.

    With r_i = |a_i - c| and s_j = |b_j - c|, the core refs are those with
    s_j <= sqrt(lam)/2 and rho is their largest s_j. A row counts the whole
    core when (r_i + rho)^2 (1 + eta) + slack_i <= lam, and none of it when
    r_i > rho and (r_i - rho)^2 (1 - eta) - slack_i > lam, with
    slack_i = eta ((|a_i| + max_core |b|)^2 + lam). Rows that neither test
    decides, and every row against the far refs, go pair by pair through
    _certified_pairs. All tests are written so that a NaN or an overflow to
    inf leaves the pair undecided.
    """
    an = np.sqrt(np.einsum("ij,ij->i", a, a))
    bn = np.sqrt(np.einsum("ij,ij->i", b, b))
    if not _CERT_ETA * (an.max() + bn.max()) ** 2 < lam:
        return None
    half = b.shape[0] // 2
    c = np.partition(b, half, axis=0)[half]
    ac = a - c
    bc = b - c
    r = np.sqrt(np.einsum("ij,ij->i", ac, ac))
    s = np.sqrt(np.einsum("ij,ij->i", bc, bc))
    core = s <= 0.5 * math.sqrt(lam)
    counts = np.zeros(a.shape[0], dtype=np.int64)
    pending = np.ones(a.shape[0], dtype=bool)
    if core.any():
        rho = s[core].max()
        slack = _CERT_ETA * ((an + bn[core].max()) ** 2 + lam) + _CERT_FLOOR
        inside = (r + rho) ** 2 * (1.0 + _CERT_ETA) + slack <= lam
        outside = (r > rho) & ((r - rho) ** 2 * (1.0 - _CERT_ETA) - slack > lam)
        counts[inside] = np.count_nonzero(core)
        pending = ~(inside | outside)
    everyone = np.ones(a.shape[0], dtype=bool)
    for rows, cols in ((pending, core), (everyone, ~core)):
        if not (rows.any() and cols.any()):
            continue
        inside = _certified_pairs(
            ac[rows], bc[cols], r[rows], s[cols], an[rows], bn[cols], lam
        )
        if inside is None:
            return None
        counts[rows] += inside
    return counts


def _certified_pairs(
    ac: np.ndarray,
    bc: np.ndarray,
    r: np.ndarray,
    s: np.ndarray,
    an: np.ndarray,
    bn: np.ndarray,
    lam: float,
) -> np.ndarray | None:
    """Per row, the refs certified inside lam, or None if a pair is undecided.

    t = r^2 + s^2 - 2 (a_i - c).(b_j - c) estimates the true squared
    distance within gamma_{d+2} (r_i + s_j)^2 plus the rounding of the
    centering, and the dense value is within gamma_{d+2} (|a_i| + |b_j|)^2
    of it, so a margin of eta ((r_i + s_j)^2 + (|a_i| + |b_j|)^2 + lam)
    decides the pair as the dense comparison does.
    """
    t = (r**2)[:, None] + (s**2)[None, :] - 2.0 * (ac @ bc.T)
    slack = (
        _CERT_ETA
        * ((r[:, None] + s[None, :]) ** 2 + (an[:, None] + bn[None, :]) ** 2 + lam)
        + _CERT_FLOOR
    )
    inside = t + slack <= lam
    if not (inside | (t - slack > lam)).all():
        return None
    return np.count_nonzero(inside, axis=1)


def _pairwise_sq_euclid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    sq = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    return np.clip(sq, 0.0, None)


def _check_reference(r: np.ndarray, n: int) -> np.ndarray:
    r = np.asarray(r, dtype=np.int64).reshape(-1)
    if r.size == 0:
        raise EmptyReferenceSet("reference set is empty")
    if np.any(r < 0) or np.any(r >= n):
        raise PreconditionViolated("reference indices out of range")
    if np.bincount(r, minlength=n).max() > 1:
        raise PreconditionViolated("reference indices must be distinct")
    return r


def stable_mean(
    x: np.ndarray,
    sigma_hat: np.ndarray,
    cfg: EstimatorConfig,
    r: np.ndarray,
) -> WeightVectorOutput:
    """Replacement-stable weight vector for a mean estimate.

    Sweeps the neighbor quota tau = |r| - l for l = 0..2k over the fixed
    radius ``e^2 * lambda0``, scoring like stable_cov and
    counting retention over l = k+1..2k; weights are counts / sum(counts),
    or all zero when no row is ever retained.

    Neighbor counts come from neighbor_counts. They equal those of the
    dense matrix of expanded squared distances aa + bb - 2ab between the
    whitened rows, whose rounding error is at most gamma_{d+2} (|a| + |b|)^2
    with gamma_{d+2} ~ (d+2) 2^-53; certificates with a relative slack of
    1e-12 decide most pairs without forming that matrix. They decline, and
    the dense matrix is formed, when sigma_hat is singular, when a pair's
    distance lies within the slack of the radius, and when the data sit so
    far from the origin in whitened units (roughly 1e6 times the radius's
    square root) that the dense rounding error itself could reach the
    radius. A sigma_hat that is not PSD raises NotPD before any count.
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
    nbrs = neighbor_counts(x, x[r], sigma_hat, math.e**2 * cfg.lambda0)
    # Row i enters S_l exactly when l >= t_i = |r| - nbrs_i.
    t = r.size - nbrs
    sizes = np.cumsum(np.bincount(np.minimum(t, 2 * k + 1), minlength=2 * k + 2))[: 2 * k + 1]
    score = int(min(k, np.min(n - sizes[: k + 1] + np.arange(k + 1))))
    counts = np.clip(2 * k - np.maximum(k + 1, t) + 1, 0, k).astype(np.int64)
    total = int(counts.sum())
    weights = counts / total if total > 0 else np.zeros(n)
    return WeightVectorOutput(weights=weights, counts=counts, score=score)
