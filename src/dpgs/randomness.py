"""Seeded, stream-addressable randomness.

Every randomized operation in the package consumes an RngStream, a value
describing an independent PCG64 stream keyed by ``(seed, stream_id)``.
Streams are value-like: building the generator twice from the same stream
replays the same draws, which is what lets adjacent sampler executions share
their random choices (same subset R, same sphere point, same PTR noise).
``RngStream.generator()`` is the only way from a stream to draws; the
helpers below take the open generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import PreconditionViolated, SubsetTooLarge


@dataclass(frozen=True)
class RngStream:
    """Address of an independent random stream.

    seed is the experiment-level seed; stream_id distinguishes independent
    streams (one per trial, per role) under the same seed.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream_id < 0:
            raise PreconditionViolated("seed and stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.stream_id)))

    def child(self, offset: int) -> "RngStream":
        """Derived stream for a sub-role; distinct offsets give independent streams."""
        return RngStream(self.seed, (self.stream_id << 20) + offset + 1)


def sphere_point(gen: np.random.Generator, n: int) -> np.ndarray:
    """Uniform point on the unit sphere in R^n (normalized Gaussian)."""
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    while True:
        g = gen.standard_normal(n)
        norm = math.sqrt(g @ g)  # np.linalg.norm's own computation for a 1-d array
        if norm > 0.0:  # resample on the measure-zero zero draw
            return g / norm


def sphere_batch(gen: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` independent uniform sphere points, one per row."""
    g = gen.standard_normal((count, n))
    norms = np.linalg.norm(g, axis=1)
    bad = norms == 0.0
    while np.any(bad):
        g[bad] = gen.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(g, axis=1)
        bad = norms == 0.0
    return g / norms[:, None]


def subset_indices(gen: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Sorted array of m distinct indices drawn uniformly from range(n).

    Exact-uniform over all size-m subsets (partial Fisher-Yates underneath).
    Indices are 0-based. A subset is drawn only when m < n: at m == n the
    answer is the only size-n subset, ``arange(n)``, and gen is not touched.
    """
    if n < 0 or m < 0:
        raise PreconditionViolated("n and m must be nonnegative")
    if m > n:
        raise SubsetTooLarge(f"cannot draw {m} distinct indices from {n}")
    if m == n:
        return np.arange(n, dtype=np.int64)
    picked = gen.choice(n, size=m, replace=False)
    return np.sort(picked.astype(np.int64))
