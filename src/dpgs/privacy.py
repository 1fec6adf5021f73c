"""Privacy parameters, the size planner, and the propose-test-release
``Gate``: its budget share, threshold, noise scale and exact law (its one
draw is ``samplers.ptr_check``).

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
    """Ladder granularity k: the least integer score the pipeline's gate fails surely."""
    return math.ceil(Gate.of(params).fail_score)


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


def truncated_laplace(gen: np.random.Generator, scale: float, radius: float) -> float:
    """One symmetric Laplace(scale) draw conditioned on [-radius, radius]: the gate's noise.

    Inverse-CDF sampling from one ``gen.random()`` u in [0, 1), in plain float
    arithmetic with numpy's ``log1p``; the result is clamped to
    [-radius, nextafter(radius, -inf)] so float rounding can never emit the
    open upper endpoint.
    """
    if scale <= 0.0 or radius <= 0.0:
        raise PreconditionViolated("scale and radius must be positive")
    s = gen.random() - 0.5
    q = -math.expm1(-radius / scale)  # 1 - exp(-radius/scale)
    sign = 1.0 if s > 0.0 else -1.0 if s < 0.0 else 0.0  # np.sign(s)
    x = -sign * scale * float(np.log1p(-2.0 * abs(s) * q))
    return min(max(x, -radius), math.nextafter(radius, -math.inf))


GATE_EPS_FRAC = 1.0 / 3.0
GATE_DELTA_FRAC = 1.0 / 6.0


@dataclass(frozen=True)
class Gate:
    """The propose-test-release gate at its own budget params = (eps', delta'):
    score s passes iff s + eta < threshold, eta Laplace(scale) truncated to
    +-threshold. Score 0 passes surely, scores from fail_score on fail surely."""

    params: PrivacyParams

    @classmethod
    def of(cls, params: PrivacyParams) -> "Gate":
        """The gate of a pipeline at budget params: its (GATE_EPS_FRAC, GATE_DELTA_FRAC) share."""
        return cls(params.split(GATE_EPS_FRAC, GATE_DELTA_FRAC))

    @property
    def threshold(self) -> float:
        return math.log(1.0 / self.params.delta) / self.params.epsilon + 2.0

    @property
    def scale(self) -> float:
        return 2.0 / self.params.epsilon

    @property
    def fail_score(self) -> float:
        return 2.0 * self.threshold

    def pass_probability(self, score) -> np.ndarray | float:
        """Exact pass probability of each score: the truncated Laplace CDF at threshold - score."""
        t, scale = self.threshold, self.scale
        x = np.clip(t - np.asarray(score, dtype=float), -t, t)
        return 0.5 + 0.5 * np.sign(x) * np.expm1(-np.abs(x) / scale) / np.expm1(-t / scale)

    @property
    def leakage(self) -> float:
        """Exact additive slack of the per-bit guarantee: the largest pass-side
        (and fail-side) p(s) - e^eps' p(s') over |s - s'| <= 2, attained on a
        band of scores. It is optimal: no mechanism that passes score 0 and fails
        scores >= fail_score surely does better (chain scores 0, 2, 4, ...)."""
        eps = self.params.epsilon
        return math.expm1(eps) / (2.0 * math.expm1(eps * self.threshold / 2.0))


def fail_threshold(params: PrivacyParams) -> float:
    """``Gate(params).fail_score``, for a gate budget params (not a pipeline's)."""
    return Gate(params).fail_score
