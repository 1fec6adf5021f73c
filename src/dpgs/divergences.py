"""Divergence estimators and closed-form density ratios for the audits.

The hockey-stick divergence of order exp(eps) is
``max_S (P(S) - exp(eps) Q(S))``; at eps = 0 it is total variation. Two
equivalent integral forms are implemented and cross-checked:

  max form:  integral of max(p - exp(eps) q, 0)
  abs form:  0.5 * integral of |p - exp(eps) q|  -  0.5 * (exp(eps) - 1)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate

from .exceptions import (
    DimensionMismatch,
    NotPD,
    OutOfSupport,
    PreconditionViolated,
    QuadratureFailure,
    SupportMismatch,
)
from .linalg import check_symmetric
from .randomness import RngStream


@dataclass(frozen=True)
class Density1D:
    """A one-dimensional probability density.

    log_pdf must accept numpy arrays. support is the closed interval where
    the density may be positive (+-inf allowed). bulk is a finite interval
    carrying all but a negligible (< 1e-30) sliver of mass; it defaults to
    the support and must be supplied when the support is unbounded, since
    the quadrature scans it for integrand kinks.
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

    def mass(self) -> float:
        """Quadrature check of total mass; should be 1 within 1e-6."""
        lo, hi = self.support
        wlo, whi = self.window()
        total, _ = integrate.quad(lambda v: self.pdf(np.array([v]))[0], wlo, whi, limit=200)
        if math.isinf(lo):
            total += integrate.quad(lambda v: self.pdf(np.array([v]))[0], -np.inf, wlo)[0]
        if math.isinf(hi):
            total += integrate.quad(lambda v: self.pdf(np.array([v]))[0], whi, np.inf)[0]
        return float(total)


def gaussian_1d(mu: float, sigma: float) -> Density1D:
    """N(mu, sigma^2) as a Density1D with a 14-sigma bulk."""
    if sigma <= 0.0:
        raise PreconditionViolated("sigma must be positive")
    const = -0.5 * math.log(2.0 * math.pi) - math.log(sigma)

    def log_pdf(x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - mu) / sigma
        return const - 0.5 * z * z

    return Density1D(log_pdf, (-math.inf, math.inf), (mu - 14.0 * sigma, mu + 14.0 * sigma))


def uniform_1d(a: float, b: float) -> Density1D:
    if not a < b:
        raise PreconditionViolated("need a < b")
    level = -math.log(b - a)

    def log_pdf(x: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(x, dtype=float).shape, level)

    return Density1D(log_pdf, (a, b))


@dataclass(frozen=True)
class ProjectedSphereDensity:
    """Density of the first i coordinates of a uniform point on S^{n-1}.

    On the open unit ball of R^i the density is proportional to
    ``(1 - ||x||^2)^{(n-i)/2 - 1}``; the squared radius of the projection
    is Beta(i/2, (n-i)/2). log_pdf returns -inf outside the ball.
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

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.i == 1 and (x.ndim == 0 or x.ndim == 1):
            sq = x * x
        else:
            if x.shape[-1] != self.i:
                raise DimensionMismatch(f"expected last axis {self.i}, got {x.shape}")
            sq = np.sum(x * x, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.exponent() * np.log1p(-sq) - self.log_norm
        return np.where(sq < 1.0, val, -np.inf)

    def as_density1d(self) -> Density1D:
        if self.i != 1:
            raise PreconditionViolated("only the 1-d projection maps to Density1D")
        return Density1D(self.log_pdf, (-1.0, 1.0))


def _sign_changes(f: Callable[[float], float], lo: float, hi: float, probes: int) -> list[float]:
    """Roots of f located by grid scan plus bisection."""
    xs = np.linspace(lo, hi, probes)
    vals = np.array([f(x) for x in xs])
    roots = []
    for j in range(len(xs) - 1):
        a, b, fa, fb = xs[j], xs[j + 1], vals[j], vals[j + 1]
        if fa == 0.0:
            roots.append(float(a))
            continue
        if fa * fb < 0.0:
            for _ in range(100):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
                if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
                    break
            roots.append(0.5 * (a + b))
    return roots


def hockey_stick_1d(p: Density1D, q: Density1D, eps: float, form: str = "abs") -> float:
    """Hockey-stick divergence of order exp(eps) between two 1-d densities.

    Adaptive quadrature with breakpoints at both supports' endpoints and at
    every crossing of p = exp(eps) q inside the scan window (union of the
    bulks). form selects the integral form ("abs" or "max"); the two agree
    up to quadrature error. Raises QuadratureFailure when the accumulated
    error estimate exceeds 1e-8.
    """
    if eps < 0.0:
        raise PreconditionViolated("eps must be >= 0")
    if form not in ("abs", "max"):
        raise PreconditionViolated(f"unknown form {form!r}")
    ratio = math.exp(eps)

    def h(x: float) -> float:
        arr = np.array([x])
        return float(p.pdf(arr)[0] - ratio * q.pdf(arr)[0])

    wlo = min(p.window()[0], q.window()[0])
    whi = max(p.window()[1], q.window()[1])
    breaks = {wlo, whi}
    for dens in (p, q):
        for endpoint in dens.support:
            if math.isfinite(endpoint) and wlo < endpoint < whi:
                breaks.add(float(endpoint))
    edges = sorted(breaks)
    kinks: list[float] = []
    for a, b in zip(edges[:-1], edges[1:]):
        kinks.extend(_sign_changes(h, a, b, probes=2049))
    pts = sorted(set(edges) | set(kinks))

    segments = list(zip(pts[:-1], pts[1:]))
    if math.isinf(p.support[0]) or math.isinf(q.support[0]):
        segments.insert(0, (-math.inf, pts[0]))
    if math.isinf(p.support[1]) or math.isinf(q.support[1]):
        segments.append((pts[-1], math.inf))

    pos = 0.0
    abs_total = 0.0
    err_total = 0.0
    for a, b in segments:
        with warnings.catch_warnings():
            # support edges sit inside some segments; the error estimate
            # below is what actually guards accuracy
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, err = integrate.quad(h, a, b, epsabs=1e-12, epsrel=1e-12, limit=300)
        err_total += err
        mid = 0.5 * (a + b)
        if math.isinf(a):
            mid = b - 1.0
        elif math.isinf(b):
            mid = a + 1.0
        if h(mid) > 0.0:
            pos += val
        abs_total += abs(val)
    if err_total > 1e-8:
        raise QuadratureFailure(f"accumulated quadrature error {err_total:.3e} > 1e-8")
    if form == "max":
        return max(0.0, pos)
    return max(0.0, 0.5 * abs_total - 0.5 * (ratio - 1.0))


def hs_discrete(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Hockey-stick divergence between finite distributions on a shared support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise SupportMismatch(f"supports of size {p.shape} vs {q.shape}")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < -1e-12) or abs(v.sum() - 1.0) > 1e-9:
            raise PreconditionViolated(f"{name} is not a probability vector")
    if eps < 0.0:
        raise PreconditionViolated("eps must be >= 0")
    return float(np.sum(np.clip(p - math.exp(eps) * q, 0.0, None)))


def weak_triangle_check(
    p: np.ndarray, q: np.ndarray, r: np.ndarray, eps1: float, eps2: float
) -> bool:
    """Check D_{e^(e1+e2)}(P||Q) <= D_{e^e1}(P||R) + e^e1 D_{e^e2}(R||Q)."""
    lhs = hs_discrete(p, q, eps1 + eps2)
    rhs = hs_discrete(p, r, eps1) + math.exp(eps1) * hs_discrete(r, q, eps2)
    return lhs <= rhs + 1e-12


def scaled_projection_log_ratio(t: float, ratio: float, n2: int) -> float:
    """Log density ratio of a sphere projection against its rescaling.

    If z1 is the first coordinate of a uniform point on S^{n2-1} and T is
    ratio * z1, the log ratio of their densities at t is
    ``ln(ratio) + ((n2 - 3)/2) ln((1 - t^2) / (1 - (t/ratio)^2))``.
    """
    if ratio <= 0.0:
        raise PreconditionViolated("ratio must be positive")
    if n2 < 2:
        raise PreconditionViolated("n2 must be >= 2")
    if not (abs(t) < 1.0 and abs(t / ratio) < 1.0):
        raise OutOfSupport(f"t={t} outside both supports (ratio={ratio})")
    return math.log(ratio) + 0.5 * (n2 - 3) * (
        math.log1p(-t * t) - math.log1p(-((t / ratio) ** 2))
    )


def _check_rotation(u: np.ndarray, d: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (d, d):
        raise DimensionMismatch(f"rotation must be {d}x{d}, got {u.shape}")
    if not np.allclose(u.T @ u, np.eye(d), atol=1e-8):
        raise PreconditionViolated("u is not orthonormal")
    return u


def t_density_log_ratio(t: np.ndarray, m: np.ndarray, u: np.ndarray, n2: int) -> float:
    """Log ratio of a d-dim sphere projection against its linear image.

    With s = u t and M symmetric positive definite, returns
    ``0.5 ln det(M^{-1}) + ((n2 - d - 2)/2) ln((1 - ||s||^2)/(1 - s^T M s))``.
    At d = 1 this reduces to scaled_projection_log_ratio with
    ratio = 1/sqrt(M).
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    d = t.shape[0]
    if n2 <= d + 1:
        raise PreconditionViolated("need n2 > d + 1")
    m = check_symmetric(m)
    if m.shape[0] != d:
        raise DimensionMismatch(f"m must be {d}x{d}, got {m.shape}")
    u = _check_rotation(u, d)
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0.0:
        raise NotPD("m must be positive definite")
    s = u @ t
    norm_sq = float(s @ s)
    quad = float(s @ m @ s)
    if not (norm_sq < 1.0 and quad < 1.0):
        raise OutOfSupport(f"point outside both supports: ||s||^2={norm_sq}, s^T M s={quad}")
    return -0.5 * logdet + 0.5 * (n2 - d - 2) * (math.log1p(-norm_sq) - math.log1p(-quad))


def t_density_log_pdf(t: np.ndarray, m: np.ndarray, u: np.ndarray, n2: int) -> float:
    """Log density at t of a linear image of a sphere projection.

    The projection density of ProjectedSphereDensity(n2, d) is pushed
    through an invertible map L with ``L L^T = M^{-1}`` (M = m, positive
    definite) and then through the rotation u^T, so a point t of the image
    comes from the projection point L^{-1} u t. Its log density is
    ``0.5 ln det M + ((n2-d)/2 - 1) ln(1 - s^T M s) - ln C(n2, d)`` at
    s = u t, sharing the projection normalizer C, and -inf where
    s^T M s >= 1. Used by normalization spot-checks.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    d = t.shape[0]
    m = check_symmetric(m)
    u = _check_rotation(u, d)
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0.0:
        raise NotPD("m must be positive definite")
    s = u @ t
    quad = float(s @ m @ s)
    base = ProjectedSphereDensity(n2, d)
    if quad >= 1.0:
        return -math.inf
    return 0.5 * logdet + base.exponent() * math.log1p(-quad) - base.log_norm


def shift_log_ratio(t: np.ndarray, ell: np.ndarray, n2: int) -> float:
    """Log ratio between a sphere projection density at t and at t - ell.

    ``((n2 - d - 2)/2) ln((1 - ||t||^2) / (1 - ||t - ell||^2))``; this is
    the density ratio cost of recentering the projection by ell.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    ell = np.asarray(ell, dtype=float).reshape(-1)
    if t.shape != ell.shape:
        raise DimensionMismatch("t and ell must share a shape")
    d = t.shape[0]
    if n2 <= d + 1:
        raise PreconditionViolated("need n2 > d + 1")
    norm_t = float(t @ t)
    norm_shift = float((t - ell) @ (t - ell))
    if not (norm_t < 1.0 and norm_shift < 1.0):
        raise OutOfSupport("t or t - ell outside the unit ball")
    return 0.5 * (n2 - d - 2) * (math.log1p(-norm_t) - math.log1p(-norm_shift))


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
