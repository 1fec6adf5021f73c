"""Divergence estimators and the projected-sphere density for the audits.

The hockey-stick divergence of order exp(eps) is
``max_S (P(S) - exp(eps) Q(S))``; at eps = 0 it is total variation. Two
equivalent integral forms are implemented and cross-checked:

  max form:  integral of max(p - exp(eps) q, 0)
  abs form:  0.5 * integral of |p - exp(eps) q|  -  0.5 * (exp(eps) - 1)

The projected-sphere law (the first i coordinates of a uniform point on
S^{n-1}) is written once, in ProjectedSphereDensity.log_pdf_sq;
t_density_log_pdf pushes it through a linear map, and the audit's
log-ratio grids read differences of that log density.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import (
    DimensionMismatch,
    NotPD,
    PreconditionViolated,
    QuadratureFailure,
    SupportMismatch,
)
from .linalg import check_symmetric
from .randomness import RngStream

_EPS_MAX = math.log(sys.float_info.max)  # the largest eps whose exp(eps) is finite


@dataclass(frozen=True)
class Density1D:
    """A one-dimensional probability density.

    log_pdf must accept numpy arrays. support is the closed interval where
    the density may be positive (+-inf allowed). bulk is a finite interval
    carrying all but a negligible (< 1e-30) sliver of mass; it defaults to
    the support and must be supplied when the support is unbounded. The
    quadrature drops the tails outside the bulk, trusting that bound.
    """

    log_pdf: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    bulk: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        lo, hi = self.support
        if not lo < hi:
            raise PreconditionViolated(f"empty support ({lo}, {hi})")
        if self.bulk is None and (math.isinf(lo) or math.isinf(hi)):
            raise PreconditionViolated("unbounded support requires a finite bulk interval")
        if self.bulk is not None:
            blo, bhi = self.bulk
            if not (math.isfinite(blo) and math.isfinite(bhi) and blo < bhi):
                raise PreconditionViolated(f"bulk must be a finite interval, got {self.bulk}")

    def window(self) -> tuple[float, float]:
        return self.bulk if self.bulk is not None else self.support

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi)
        out = np.zeros_like(x, dtype=float)
        if np.any(inside):
            out[inside] = np.exp(self.log_pdf(x[inside]))
        return out


@dataclass(frozen=True)
class ProjectedSphereDensity:
    """Density of the first i coordinates of a uniform point on S^{n-1}.

    On the open unit ball of R^i the density is proportional to
    ``(1 - ||x||^2)^{(n-i)/2 - 1}``; the squared radius of the projection
    is Beta(i/2, (n-i)/2). log_pdf_sq reads it at a squared norm, -inf
    outside the ball; ``t_density_log_pdf(t, I, n)`` reads it at points t.
    """

    n: int
    i: int
    log_norm: float = field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.i < self.n:
            raise PreconditionViolated(f"need 1 <= i < n, got i={self.i}, n={self.n}")
        log_c = (
            0.5 * self.i * math.log(math.pi)
            + math.lgamma(0.5 * (self.n - self.i))
            - math.lgamma(0.5 * self.n)
        )
        object.__setattr__(self, "log_norm", log_c)

    def exponent(self) -> float:
        return 0.5 * (self.n - self.i) - 1.0

    def log_pdf_sq(self, sq: np.ndarray) -> np.ndarray:
        """log_pdf at points of squared norm sq, -inf from sq >= 1 on; NaN stays NaN."""
        sq = np.asarray(sq, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.exponent() * np.log1p(-sq) - self.log_norm
        return np.where(sq >= 1.0, -np.inf, val)


# Nodes and weights of every panel estimate; the 8-point weights sum to 2.0
# exactly, so a constant integrand gives exact panel sums.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _scan_grid(densities: tuple[Density1D, ...]) -> np.ndarray:
    """2049 evenly spaced points between each pair of consecutive
    breakpoints: every window end and every support end inside the union
    of the windows, so each bulk is scanned at its own scale."""
    wlo = min(dens.window()[0] for dens in densities)
    whi = max(dens.window()[1] for dens in densities)
    ends = {e for dens in densities for e in (*dens.window(), *dens.support)}
    edges = sorted(e for e in ends if wlo <= e <= whi)
    pieces = [np.linspace(a, b, 2049) for a, b in zip(edges[:-1], edges[1:])]
    return np.unique(np.concatenate(pieces))


def _integrate(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> np.ndarray:
    """Integral of the vectorized f over each panel between consecutive
    sorted edges, by adaptive Gauss-Legendre: a panel is halved, at most 40
    times, until the rule on it agrees within 1e-13 with the sum of the
    rule on its halves. Raises QuadratureFailure when the summed accepted
    differences exceed 1e-8 (or are not finite), or past 2^17 open panels.
    """

    def rule(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        return half * (f(x.ravel()).reshape(x.shape) * _GL_WEIGHTS).sum(axis=1)

    total, err = np.zeros(edges.size - 1), 0.0
    owner, a, b = np.arange(edges.size - 1), edges[:-1], edges[1:]
    for split in range(41):
        mid = 0.5 * (a + b)
        left, right = rule(a, mid), rule(mid, b)
        diff = np.abs(rule(a, b) - (left + right))
        done = (diff <= 1e-13) | (split == 40)
        np.add.at(total, owner[done], left[done] + right[done])
        err += float(diff[done].sum())
        todo = ~done
        if not todo.any():
            break
        if 2 * np.count_nonzero(todo) > 1 << 17:
            raise QuadratureFailure("more than 2^17 open quadrature panels")
        owner = np.tile(owner[todo], 2)
        a, b = np.concatenate([a[todo], mid[todo]]), np.concatenate([mid[todo], b[todo]])
    if not err <= 1e-8:
        raise QuadratureFailure(f"accumulated quadrature error {err:.3e} > 1e-8")
    return total


def _crossings(h: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """Roots of h where its sign flips between scan points xs, all brackets
    bisected at once. Exact zeros are skipped: a run of them is no crossing,
    and a flip across one is bracketed by the run's nonzero neighbors.
    60 halvings shrink every bracket below 2^-60 of the scanned span."""
    sign = np.sign(h(xs))
    nz = np.flatnonzero(sign)
    flip = sign[nz[:-1]] * sign[nz[1:]] < 0.0
    a, b, sa = xs[nz[:-1][flip]], xs[nz[1:][flip]], sign[nz[:-1][flip]]
    for _ in range(60):
        mid = 0.5 * (a + b)
        sm = np.sign(h(mid))
        a = np.where((sm == sa) | (sm == 0.0), mid, a)
        b = np.where(sm == sa, b, mid)
    return 0.5 * (a + b)


def hockey_stick_1d(p: Density1D, q: Density1D, eps: float, form: str = "abs") -> float:
    """Hockey-stick divergence of order exp(eps) between two 1-d densities.

    Adaptive Gauss-Legendre (_integrate) over the cells of both densities'
    scan grid, split at every crossing of p = exp(eps) q the scan finds, so
    the integrand keeps one sign on each panel; the tails outside the
    windows are dropped (see Density1D). form selects the integral form
    ("abs" or "max"); the two agree up to quadrature error. Raises
    QuadratureFailure when the accumulated error bound exceeds 1e-8.
    """
    if not 0.0 <= eps <= _EPS_MAX:  # NaN fails the comparison too
        raise PreconditionViolated(f"eps must be finite and >= 0 with exp(eps) finite, got {eps}")
    if form not in ("abs", "max"):
        raise PreconditionViolated(f"unknown form {form!r}")
    ratio = math.exp(eps)

    def h(x: np.ndarray) -> np.ndarray:
        return p.pdf(x) - ratio * q.pdf(x)

    xs = _scan_grid((p, q))
    panels = _integrate(h, np.union1d(xs, _crossings(h, xs)))
    if form == "max":
        return max(0.0, float(panels[panels > 0.0].sum()))
    return max(0.0, 0.5 * float(np.abs(panels).sum()) - 0.5 * (ratio - 1.0))


def hs_discrete(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Hockey-stick divergence between finite distributions on a shared support."""
    if not 0.0 <= eps <= _EPS_MAX:  # NaN fails the comparison too
        raise PreconditionViolated(f"eps must be finite and >= 0 with exp(eps) finite, got {eps}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise SupportMismatch(f"supports of size {p.shape} vs {q.shape}")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < -1e-12) or abs(v.sum() - 1.0) > 1e-9:
            raise PreconditionViolated(f"{name} is not a probability vector")
    return float(np.sum(np.clip(p - math.exp(eps) * q, 0.0, None)))


def weak_triangle_check(
    p: np.ndarray, q: np.ndarray, r: np.ndarray, eps1: float, eps2: float
) -> bool:
    """Check D_{e^(e1+e2)}(P||Q) <= D_{e^e1}(P||R) + e^e1 D_{e^e2}(R||Q)."""
    lhs = hs_discrete(p, q, eps1 + eps2)
    rhs = hs_discrete(p, r, eps1) + math.exp(eps1) * hs_discrete(r, q, eps2)
    return lhs <= rhs + 1e-12


def t_density_log_pdf(t: np.ndarray, m: np.ndarray, n2: int) -> np.ndarray:
    """Log density at t of a linear image of a sphere projection.

    The projection density of ProjectedSphereDensity(n2, d) is pushed
    through an invertible map L with ``L L^T = M^{-1}`` (M = m, symmetric
    positive definite d x d), so a point t of the image comes from the
    projection point L^{-1} t. Its log density is
    ``0.5 ln det M + ((n2-d)/2 - 1) ln(1 - t^T M t) - ln C(n2, d)``,
    sharing the projection normalizer C, and -inf where t^T M t >= 1.
    Points lie on the last axis of t, under any leading shape, and the
    result has that leading shape; M is checked and factored once.
    """
    t = np.asarray(t, dtype=float)
    m = check_symmetric(m)
    if t.ndim == 0 or t.shape[-1] != m.shape[0]:
        raise DimensionMismatch(f"points need a last axis of {m.shape[0]}, got {t.shape}")
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0.0:
        raise NotPD("m must be positive definite")
    base = ProjectedSphereDensity(n2, m.shape[0])
    return 0.5 * logdet + base.log_pdf_sq(np.sum((t @ m) * t, axis=-1))


@dataclass(frozen=True)
class TvEstimate:
    """Histogram TV estimate with bootstrap spread and null-bias correction.

    tv = max(0, raw_tv - null_bias): raw_tv is the plain binned half-L1,
    null_bias the mean binned half-L1 of two same-size draws from the
    pooled empirical law (200 rounds), and boot_sigma the bootstrap
    standard deviation of raw_tv. The residual bias of tv is positive but
    well below boot_sigma for same-law samples.
    """

    tv: float
    boot_sigma: float
    raw_tv: float
    null_bias: float
    bins_per_axis: int


def tv_histogram(samples_a: np.ndarray, samples_b: np.ndarray, rng: RngStream) -> TvEstimate:
    """Total-variation estimate between two 1-d sample sets.

    Uses ceil(n^(1/3)) equal-width bins over the pooled range, where n is
    the smaller sample count; rng drives the 200 bootstrap and 200 null
    rounds.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise DimensionMismatch(f"samples must be 1-d, got shapes {a.shape} and {b.shape}")
    n_a, n_b = a.size, b.size
    if min(n_a, n_b) < 2:
        raise PreconditionViolated("need at least 2 samples on each side")
    bins = math.ceil(min(n_a, n_b) ** (1.0 / 3.0))
    pooled = np.concatenate([a, b])
    edges = np.linspace(pooled.min(), pooled.max() + 1e-9, bins + 1)
    count_a = np.histogram(a, bins=edges)[0]
    count_b = np.histogram(b, bins=edges)[0]
    raw_tv = 0.5 * float(np.abs(count_a / n_a - count_b / n_b).sum())

    gen = rng.generator()
    resamples = 200
    prob_a = count_a / n_a
    prob_b = count_b / n_b
    boots_a = gen.multinomial(n_a, prob_a, size=resamples) / n_a
    boots_b = gen.multinomial(n_b, prob_b, size=resamples) / n_b
    boot_vals = 0.5 * np.abs(boots_a - boots_b).sum(axis=1)
    boot_sigma = float(boot_vals.std(ddof=1))

    pooled_prob = (count_a + count_b) / (n_a + n_b)
    null_a = gen.multinomial(n_a, pooled_prob, size=resamples) / n_a
    null_b = gen.multinomial(n_b, pooled_prob, size=resamples) / n_b
    null_bias = float((0.5 * np.abs(null_a - null_b).sum(axis=1)).mean())

    return TvEstimate(
        tv=max(0.0, raw_tv - null_bias),
        boot_sigma=boot_sigma,
        raw_tv=raw_tv,
        null_bias=null_bias,
        bins_per_axis=bins,
    )
