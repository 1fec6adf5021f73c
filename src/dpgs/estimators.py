"""Stability-scored covariance and mean estimators.

The two estimators share one design: sweep a ladder of 2k+1 outlier
thresholds, record the rung at which each row enters the nested retained
subsets, and turn those entry rungs, through one rule, into an integer
instability score with data-replacement sensitivity at most 2 and into
point weights: averaged retention indicators over the top half of the
ladder, so a clean dataset gets exactly uniform weights and score 0.

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
from .privacy import stability_floors


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
    ignore the unknown mean. x is made C-contiguous first, so the pairs,
    and the scatter products that read them, do not depend on its layout.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d dataset, got shape {x.shape}")
    n = x.shape[0]
    if n % 2 != 0:
        raise OddRowCount(f"pairing needs an even row count, got {n}")
    m = n // 2
    return (x[:m] - x[m:]) / math.sqrt(2.0)


def _scatter_norms(ys: np.ndarray, m: int) -> np.ndarray:
    """Each row's norm ``y_i^T a^{-1} y_i`` under ``a = ys^T ys / m``, all
    +inf when a is singular (so every row is pruned at any threshold)."""
    w, u = np.linalg.eigh((ys.T @ ys) / m)  # normalizer m, the full row count
    if w[-1] <= 0.0 or w[0] <= SINGULAR_RTOL * w[-1]:
        return np.full(ys.shape[0], np.inf)
    coords = ys @ u  # divided in place: a pass holds two m x d arrays at most
    coords /= np.sqrt(w)
    return np.einsum("ij,ij->i", coords, coords)


def _prune_to_fixed_point(
    y: np.ndarray, mask: np.ndarray, lam: float, norms: np.ndarray | None = None
) -> np.ndarray:
    """Run largest_good_subset's pruning loop on ``mask`` in place until
    nothing is dropped, and return the fixed point's own norms (one per
    member, in index order; empty when the fixed point is empty).

    ``norms``, if given, must be the members' norms under the scatter of
    the current mask; the first pass then needs no eigendecomposition.
    """
    while True:
        if norms is None:
            if not np.any(mask):
                return np.empty(0)
            norms = _scatter_norms(y[mask], y.shape[0])
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


def _ladder_entry_rungs(
    y: np.ndarray, cfg: EstimatorConfig, norms: np.ndarray | None = None
) -> np.ndarray:
    """Per row, the lowest rung l whose S_l = largest_good_subset(y,
    lambda_l) holds it, or 2k+1 when no rung does.

    One top-down sweep: rung 2k starts from the full set (``norms``, if
    given, are its norms) and every lower rung from the rung above's fixed
    point. Since the pruning map is monotone in the subset and in lambda
    (see largest_good_subset), the greatest fixed points are nested, so
    iterating from S_{l+1} at lambda_l reaches S_l exactly; the warm start
    makes that nesting hold in floating point by construction. The fixed
    point's own norms carry over, and every lower rung whose threshold none
    of them exceeds (a norm equal to a threshold stays, a NaN norm never
    prunes) keeps the same subset, so one searchsorted finds the lowest
    rung of that run without another pass. Once a rung is empty every lower
    rung is.
    """
    thresholds = cfg.thresholds()
    t = np.full(y.shape[0], 2 * cfg.k + 1, dtype=np.int64)
    mask = np.ones(y.shape[0], dtype=bool)
    ell = 2 * cfg.k
    while ell >= 0:
        norms = _prune_to_fixed_point(y, mask, float(thresholds[ell]), norms)
        if norms.size == 0:
            break
        top = np.max(norms, initial=-np.inf, where=~np.isnan(norms))
        low = int(np.searchsorted(thresholds, top, side="left"))
        t[mask] = low
        ell = low - 1
    return t


def _ladder_counts_and_score(t: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Retention counts and instability score of a nested ladder whose row
    i enters at rung t_i: it is in S_l exactly when l >= t_i (t_i > 2k
    for no rung). counts_i is the number of rungs l = k+1..2k holding row
    i, and score = min(k, min_{0<=l<=k} (n - |S_l| + l)) with n = t.size.
    When every t_i is 0, every rung holds every row: counts k, score 0.
    """
    # methods and count_nonzero: each np.* reduction wrapper costs microseconds
    n = t.size
    if not np.count_nonzero(t):
        return np.full(n, k, dtype=np.int64), 0
    late = t[t > 0]  # bincount slows on one crowded bin, here the t_i = 0 rows
    sizes = n - late.size + np.bincount(late, minlength=k + 1)[: k + 1].cumsum()
    score = min(k, int((n - sizes + np.arange(k + 1)).min()))
    return np.maximum(2 * k + 1 - np.maximum(t, k + 1), 0), score


def stable_cov(x: np.ndarray, cfg: EstimatorConfig) -> WeightedCovOutput:
    """Replacement-stable covariance estimate with an instability score.

    x must have an even row count 2m. The pairing step absorbs the mean;
    the ladder sweep's entry rungs give the score and the retention counts
    (_ladder_counts_and_score), and weights w_i = counts_i / (k m).

    When the full set's scatter is nonsingular and no norm under it
    exceeds lambda0, the lowest rung, the sweep would put every row on rung
    0, so the entry rungs are set to 0 without it. A NaN norm, or the +inf
    norms of a singular scatter, take the sweep.
    """
    y = pair_and_rescale(x)
    m = y.shape[0]
    norms = _scatter_norms(y, m) if m else None
    clean = norms is not None and norms.max() <= cfg.lambda0
    t = np.zeros(m, dtype=np.int64) if clean else _ladder_entry_rungs(y, cfg, norms)
    counts, score = _ladder_counts_and_score(t, cfg.k)
    weights = counts / (cfg.k * m)
    w_matrix = (y * np.sqrt(weights)[:, None]).T
    return WeightedCovOutput(w_matrix=w_matrix, weights=weights, counts=counts, score=score)


# Relative slack of every neighbor-count certificate; see _certified_counts.
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
    that matrix is formed only when _certified_counts leaves a pair
    undecided or declines.

    When ``ref is x`` (a block that is its own reference set) x is
    whitened once and that one array serves as both a and b. ``ref @ u``
    on a separate C-contiguous array with the same values runs the same
    BLAS call on the same bytes, so for the C-contiguous blocks stable_mean
    passes the counts are those of ``neighbor_counts(x, x.copy(), ...)``.
    The dense products are still taken against a separate operand: numpy
    routes ``a @ a.T`` to syrk, whose rounding differs from the gemm of two
    arrays.

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
    u_keep, root = u[:, keep], np.sqrt(w[keep])
    xk = (x @ u_keep) / root
    rk = xk if ref is x else (ref @ u_keep) / root
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
            u_null = u[:, ~keep]
            x_null = x @ u_null
            null_mass = _pairwise_sq_euclid(x_null, x_null if ref is x else ref @ u_null)
        dist = np.where(outside_range(null_mass, raw), np.inf, dist)
    return np.sum(dist <= lam, axis=1)


def _certified_counts(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray | None:
    """Neighbor counts of rows a over refs b decided without the dense
    matrix, or None when some pair is left undecided.

    Every test bounds the true squared distance T of a pair from the
    offsets to a center c, a coordinate-wise median of b: r_i = |a_i - c|,
    s_j = |b_j - c|, g = 2|c|. It decides the pair only when its bound
    clears lam by slack(r_i, s_j) = eta ((g + r_i + s_j)^2 + lam) + floor
    (a test over a block of pairs takes the block's largest r and s; the
    slack grows with both). That puts the pair on the side of lam where the
    dense value D lies, by one rounding argument with gamma = gamma_{d+4}
    ~ (d+4) 2^-53. D is within gamma (|a_i| + |b_j|)^2 of T, and
    |a_i| + |b_j| <= g + r_i + s_j up to rounding. c is a copy of entries
    of b, so each centered row is within one rounding of its exact value,
    and each bound below, computed from r, s and the centered rows, is
    within 3 gamma (r_i + s_j)^2 of its exact value. Together the two
    errors are at most 4 gamma (g + r_i + s_j)^2, and eta = 1e-12 is above
    4 gamma for every d below 2000; the eta lam term covers the rounding of
    the test's own sum, and the floor covers underflow. Each test is
    written so that a NaN or an overflow to inf leaves its pairs undecided.

    - Decline: when eta (g + max r + max s)^2 >= lam, data sit so far
      from the origin that the dense rounding could reach lam; return None.
    - Whole block: when every ref is core (s_j <= sqrt(lam)/2) and
      (max r + max s)^2 + slack <= lam, every row counts every ref.
    - Core refs, per row: with rho the largest core s_j, a row counts the
      whole core when (r_i + rho)^2 + slack(r_i, rho) <= lam and none of it
      when (r_i - rho)^2 - slack(r_i, rho) > lam. rho <= sqrt(lam)/2, so
      the second can hold only when r_i > rho, where T >= (r_i - rho)^2.
    - Far refs, per pair: outside when (r_i - s_j)^2 - slack > lam.
    - The rest, per pair: t = r_i^2 + s_j^2 - 2 (a_i - c).(b_j - c) is
      inside when t + slack <= lam and outside when t - slack > lam. It
      takes the rows the core test leaves open against every core ref, and
      the rows with a far ref the triangle test leaves open against every
      far ref.

    When ``b is a`` (the block is its own reference set) the centered rows
    and their norms are computed once and serve both sides; they are the
    values the two-array computation gives, as each is a row-wise function
    of identical inputs.
    """
    half = b.shape[0] // 2
    c = np.partition(b, half, axis=0)[half]
    ac = a - c
    r = np.sqrt(np.einsum("ij,ij->i", ac, ac))
    if b is a:
        bc, s = ac, r
    else:
        bc = b - c
        s = np.sqrt(np.einsum("ij,ij->i", bc, bc))
    g = 2.0 * np.sqrt(c @ c)

    def slack(r, s):
        span = g + r + s
        return _CERT_ETA * (span * span + lam) + _CERT_FLOOR

    rmax, smax = r.max(), s.max()
    span = g + rmax + smax
    if not _CERT_ETA * span * span < lam:
        return None
    core_radius, reach = 0.5 * math.sqrt(lam), rmax + smax
    if smax <= core_radius and reach * reach + slack(rmax, smax) <= lam:
        return np.full(a.shape[0], b.shape[0], dtype=np.int64)
    core = s <= core_radius
    far = ~core
    counts = np.zeros(a.shape[0], dtype=np.int64)
    pending = np.ones(a.shape[0], dtype=bool)
    if core.any():
        rho = s[core].max()
        hi, lo, margin = r + rho, r - rho, slack(r, rho)
        inside = hi * hi + margin <= lam
        counts[inside] = np.count_nonzero(core)
        pending = ~(inside | (lo * lo - margin > lam))
    near_far = np.zeros(a.shape[0], dtype=bool)
    if far.any():
        gap = r[:, None] - s[far]
        near_far = ~(gap * gap - slack(r[:, None], s[far]) > lam).all(axis=1)
    for rows, cols in ((pending, core), (near_far, far)):
        if not (rows.any() and cols.any()):
            continue
        ri, sj = r[rows, None], s[cols]
        t = ri * ri + sj * sj - 2.0 * (ac[rows] @ bc[cols].T)
        margin = slack(ri, sj)
        inside = t + margin <= lam
        if not (inside | (t - margin > lam)).all():
            return None
        counts[rows] += np.count_nonzero(inside, axis=1)
    return counts


def _pairwise_sq_euclid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    aa = np.einsum("ij,ij->i", a, a)
    if b is a:
        bb, b = aa, a.copy()  # a @ a.T would take syrk, which rounds unlike gemm
    else:
        bb = np.einsum("ij,ij->i", b, b)
    sq = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    return np.clip(sq, 0.0, None)


def _check_reference(r: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """The validated reference indices, and whether they are arange(n)."""
    r = np.asarray(r, dtype=np.int64).reshape(-1)
    if r.size == 0:
        raise EmptyReferenceSet("reference set is empty")
    if r[0] >= 0 and r[-1] < n and np.all(r[1:] > r[:-1]):
        return r, r.size == n  # strictly increasing, so in range and distinct
    if np.any(r < 0) or np.any(r >= n):
        raise PreconditionViolated("reference indices out of range")
    if np.bincount(r, minlength=n).max() > 1:
        raise PreconditionViolated("reference indices must be distinct")
    return r, False


def stable_mean(
    x: np.ndarray,
    sigma_hat: np.ndarray,
    cfg: EstimatorConfig,
    r: np.ndarray,
) -> WeightVectorOutput:
    """Replacement-stable weight vector for a mean estimate.

    Sweeps the neighbor quota tau = |r| - l for l = 0..2k over the fixed
    radius ``e^2 * lambda0`` (row i is on rung l when it has at least tau
    neighbors), scoring and counting as stable_cov does; weights are
    counts / sum(counts), or all zero when no row is ever retained.

    Neighbor counts come from neighbor_counts, and equal those of the
    dense matrix of expanded squared distances between the whitened rows.
    Certificates decide most pairs without that matrix; it is formed when
    sigma_hat is singular, when a pair's distance lies within rounding
    slack of the radius, and when the data sit so far from the origin in
    whitened units that the dense rounding error itself could reach the
    radius (see _certified_counts): for a block that is its own reference
    set, a whitened offset of about 5e5 times the radius's square root. A
    sigma_hat that is not PSD raises NotPD before any count.

    x is made C-contiguous first, so the counts do not depend on its
    memory layout. When r is arange(n), x itself is the reference, so
    neighbor_counts whitens and centers it once; that gives the counts of
    the gathered copy x[r], which has the same bytes and layout. Any other
    r, a permutation of arange(n) included, is gathered, since moving a
    row can change the rounding of the whitening product.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d dataset, got shape {x.shape}")
    n = x.shape[0]
    r, whole = _check_reference(r, n)
    k = cfg.k
    ref_floor = stability_floors(k, cfg.lambda0)[2]
    if r.size <= ref_floor:
        warnings.warn(
            f"reference set of size {r.size} is not larger than 6k = {ref_floor}; "
            "stability guarantees degrade",
            RuntimeWarning,
            stacklevel=2,
        )
    nbrs = neighbor_counts(x, x if whole else x[r], sigma_hat, math.e**2 * cfg.lambda0)
    counts, score = _ladder_counts_and_score(r.size - nbrs, k)
    total = int(counts.sum())
    weights = counts / total if total > 0 else np.zeros(n)
    return WeightVectorOutput(weights=weights, counts=counts, score=score)
