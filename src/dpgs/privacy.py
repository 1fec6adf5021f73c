"""Privacy parameters, the size planner, and the propose-test-release gate's
noise law and thresholds (the gate itself is ``samplers.ptr_check``).

All logarithms are natural.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from .exceptions import InvalidParams, NoConvergence, PreconditionViolated

E_SQ = math.e**2


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) pair with the ranges this pipeline supports."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidParams(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 0.0 < self.delta <= self.epsilon / 10.0:
            raise InvalidParams(
                f"delta must lie in (0, epsilon/10], got delta={self.delta} "
                f"with epsilon={self.epsilon}"
            )

    def split(self, eps_frac: float, delta_frac: float) -> "PrivacyParams":
        """Budget share (eps_frac * epsilon, delta_frac * delta)."""
        return PrivacyParams(self.epsilon * eps_frac, self.delta * delta_frac)


class PtrOutcome(enum.Enum):
    PASS = "pass"
    FAIL = "fail"


def outlier_threshold(d: int, n: int, alpha: float) -> float:
    """Squared-radius scale 4d + 8 sqrt(d L) + 8 L with L = log(3n/alpha).

    With n i.i.d. Gaussian rows, all squared Mahalanobis norms stay below a
    quarter of this value except with probability about alpha.
    """
    if d < 1 or n < 1:
        raise PreconditionViolated("d and n must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise PreconditionViolated(f"alpha must lie in (0, 1), got {alpha}")
    big_l = math.log(3.0 * n / alpha)
    return 4.0 * d + 8.0 * math.sqrt(d * big_l) + 8.0 * big_l


def ladder_granularity(params: PrivacyParams) -> int:
    """Ladder granularity k = ceil(6 log(6/delta) / epsilon) + 4."""
    return math.ceil(6.0 * math.log(6.0 / params.delta) / params.epsilon) + 4


def reference_size(n: int, k: int, delta: float) -> int:
    """Reference subset size 6k + ceil(18 log(16 n / delta))."""
    return 6 * k + math.ceil(18.0 * math.log(16.0 * n / delta))


def noise_multiplier_sq(lambda0: float, params: PrivacyParams, n: int) -> float:
    """Mean-estimator noise scale c^2 = 720 e^2 lambda0 log(12/delta) / (eps^2 n^2)."""
    c_sq = 720.0 * E_SQ * lambda0 * math.log(12.0 / params.delta) / (params.epsilon**2 * n**2)
    if not math.isfinite(c_sq):
        raise InvalidParams(f"noise scale c^2 overflows at lambda0={lambda0}, n={n}")
    return c_sq


@dataclass(frozen=True)
class SamplerPlan:
    """All sizes the samplers need, mutually consistent.

    n = n1 + 2 n2 exactly; the mean block is rows [0, n1), the covariance
    block rows [n1, n). ref_size is the reference-subset cardinality (drawn
    from the mean block, so ref_size <= n1). c_sq is the mean-estimator
    noise multiplier at these sizes; the sampler path ignores it.
    """

    alpha: float
    d: int
    params: PrivacyParams
    lambda0: float
    n1: int
    n2: int
    n: int
    k: int
    ref_size: int
    c1: float
    c2: float
    c_sq: float

    @property
    def gamma(self) -> float:
        """Covariance stability radius 8 e^2 lambda0 / n2."""
        return 8.0 * E_SQ * self.lambda0 / self.n2

    def to_dict(self) -> dict:
        out = asdict(self)
        out["params"] = {"epsilon": self.params.epsilon, "delta": self.params.delta}
        out["gamma"] = self.gamma
        return out


def stability_floors(k: int, lambda0: float) -> tuple[float, float, int]:
    """Stability-lemma size floors: n1 >= 32 e^2 k, n2 >= 16 e^2 lambda0 k, |R| > 6k."""
    return 32.0 * E_SQ * k, 16.0 * E_SQ * lambda0 * k, 6 * k


def solve_plan(
    alpha: float, params: PrivacyParams, d: int, k: int,
    step: Callable[[int], tuple[float, int, int, int]], n: int, c1: float, c2: float,
) -> SamplerPlan:
    """Iterate n -> n1 + 2 n2 from the start n until n repeats; plan the fixed point.

    step(n) gives (lambda0, n1, n2, ref_size) and must be monotone in n. From
    a start at or below the least fixed point n*, every iterate stays at or
    below n* (n <= n* maps to at most n*'s image, n*), and the iterates are
    monotone, so they end at a fixed point <= n*: n* itself, whatever the
    start. Raises NoConvergence when n has not repeated after 500 steps.
    """
    for _ in range(500):
        lambda0, n1, n2, ref_size = step(n)
        if n1 + 2 * n2 == n:
            c_sq = noise_multiplier_sq(lambda0, params, n)
            return SamplerPlan(alpha, d, params, lambda0, n1, n2, n, k, ref_size, c1, c2, c_sq)
        n = n1 + 2 * n2
    raise NoConvergence("size plan did not reach a fixed point")


def plan(
    alpha: float,
    params: PrivacyParams,
    d: int,
    c1: float = 1.0,
    c2: float = 1.0,
) -> SamplerPlan:
    """Fixed-point size plan for the unbounded sampler.

    Solves the circular dependency lambda0 <-> n with solve_plan: lambda0
    grows with n via the outlier threshold while n1, n2 and the reference
    size grow with lambda0 and n, starting from n = d + 2; n1 is raised to
    the reference size when needed so the reference subset always fits
    inside the mean block.
    """
    if d < 1:
        raise PreconditionViolated("d must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise PreconditionViolated(f"alpha must lie in (0, 1), got {alpha}")
    if not (0.0 < c1 < math.inf and 0.0 < c2 < math.inf):
        raise PreconditionViolated(f"c1 and c2 must be finite and positive, got {c1}, {c2}")
    eps, delta = params.epsilon, params.delta
    k = ladder_granularity(params)
    budget = math.log(1.0 / delta)

    def step(n: int) -> tuple[float, int, int, int]:
        lambda0 = outlier_threshold(d, n, alpha)
        m_ref = reference_size(n, k, delta)
        n1 = max(math.ceil(c1 * math.sqrt(lambda0) * budget / eps), m_ref)
        return lambda0, n1, math.ceil(c2 * lambda0 * budget / eps), m_ref

    try:
        return solve_plan(alpha, params, d, k, step, d + 2, c1, c2)
    except OverflowError as exc:
        # a size (or n**2 in the noise scale) beyond float range
        raise InvalidParams(f"plan sizes overflow at c1={c1}, c2={c2}") from exc


def truncated_laplace(
    gen: np.random.Generator, scale: float, radius: float, size: int | None = None
) -> np.ndarray | float:
    """Symmetric Laplace(scale) draw(s) conditioned on [-radius, radius].

    Inverse-CDF sampling from u in [0, 1); the result is clamped to
    [-radius, nextafter(radius, -inf)] so float rounding can never emit the
    open upper endpoint.
    """
    if scale <= 0.0 or radius <= 0.0:
        raise PreconditionViolated("scale and radius must be positive")
    u = gen.random(size)
    s = u - 0.5
    q = -math.expm1(-radius / scale)  # 1 - exp(-radius/scale)
    x = -np.sign(s) * scale * np.log1p(-2.0 * np.abs(s) * q)
    x = np.clip(x, -radius, np.nextafter(radius, -np.inf))
    return float(x) if size is None else x


def pass_threshold(params: PrivacyParams) -> float:
    """Score threshold ln(1/delta)/epsilon + 2 used by the gate."""
    return math.log(1.0 / params.delta) / params.epsilon + 2.0


def fail_threshold(params: PrivacyParams) -> float:
    """Score at or above which the gate fails with certainty."""
    return 2.0 * math.log(1.0 / params.delta) / params.epsilon + 4.0


def pass_probability(score, params: PrivacyParams) -> np.ndarray | float:
    """Exact probability that the gate passes each score: the truncated
    Laplace CDF at pass_threshold - score. It is exactly 1 at score 0 and
    exactly 0 from fail_threshold (twice the pass threshold) on."""
    t = pass_threshold(params)
    x = np.clip(t - np.asarray(score, dtype=float), -t, t)
    scale = 2.0 / params.epsilon
    return 0.5 + 0.5 * np.sign(x) * np.expm1(-np.abs(x) / scale) / np.expm1(-t / scale)


def gate_leakage(params: PrivacyParams) -> float:
    """Tight additive slack in the gate's per-bit privacy guarantee.

    For scores s, s' with |s - s'| <= 2 the pass probabilities satisfy
    p <= exp(epsilon) p' + gate_leakage(params) on both the pass and fail
    side, with equality on a whole band of scores, so the value is exact.

    It equals (e^eps - 1) / (2 (e^{eps T / 2} - 1)) with T the pass
    threshold.  A chaining argument over scores 0, 2, 4, ... shows no
    mechanism that passes score 0 surely and fails scores >= 2T surely can
    do better, so the truncated-Laplace gate is optimal; the value drops
    below delta itself only when 2 sqrt(delta) e^eps - 2 delta >= e^eps - 1.
    """
    t = pass_threshold(params)
    return math.expm1(params.epsilon) / (2.0 * math.expm1(params.epsilon * t / 2.0))
