"""The benchmark's workloads and the inputs they generate from the seed.

Each workload is a closed loop from one process. It runs ``audit_repeats``
audit batches (``run_checks``, timed as ``audit_s``), each followed by a
stretch of the release loop, which cycles the three pipelines on fresh
datasets with one caller waiting on each call. Every workload does both
kinds of work so that every end-to-end metric is measured on each. The
workloads differ in which layer carries the time:

- ``clean-d1``: clean d=1 data at the plan the audit and acceptance Monte
  Carlo runs use. The ladder takes its full-set shortcut, so time goes to
  the dense neighbor count in ``stable_mean``.
- ``contaminated-d20``: d=20 data with an ill-conditioned covariance and
  1e6-sigma rows planted in both blocks, so the ladder (``largest_good_subset``
  and ``eigh``) carries the time.
- ``audit-mc``: the full ``run_checks`` batch at the registry's default trial
  counts, the only workload with every check, the divergences and the thread
  fan-out at full size. Its release loop is a probe on clean d=1 data.

The two release workloads time ``audit_s`` on many one-thread runs of a
short check (10-20 ms): score sensitivity at 2 trials on contaminated-d20, whose
far replacements run the ladder, and matrix bounds at 60 trials on clean-d1,
which runs no pipeline. After d=1 release calls, batches of the pipeline
checks ran 3-4x slower for a stretch of random length, up to a whole run
(OpenBLAS's second thread; not seen with OPENBLAS_NUM_THREADS=1), so their
fastest batch moved up to 4x between runs of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import dpgs
from dpgs import PrivacyParams, SamplerPlan

PARAMS = PrivacyParams(1.0, 0.05)
ALPHA = 0.2
FAR = 1.0e6  # planted rows sit this many standard deviations out
PIPELINES = ("sample", "mean", "known_cov")
# The low percentile of release-call latency the result reports. On a shared
# host the median lands on whichever speed the host's load gave most of the
# run; the fast end of the distribution tracks the code.
LOW_PCT = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    contaminated: bool
    tail_pct: float
    audit_checks: tuple[str, ...]
    audit_trials: int | None  # None keeps the registry's defaults
    audit_repeats: int
    audit_threads: int | None  # None fans out over every CPU the process may use

    @property
    def min_cycles(self) -> int:
        """Cycles the loop runs at least: 10 calls beyond the tail percentile
        and 10 below ``LOW_PCT``."""
        return math.ceil(10 / min(1.0 - self.tail_pct / 100.0, LOW_PCT / 100.0))

    def plan(self) -> SamplerPlan:
        return dpgs.plan(ALPHA, PARAMS, self.d)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("clean-d1", 1, False, 99.0, ("matrix_bounds",), 60, 200, 1),
        Workload("contaminated-d20", 20, True, 95.0, ("score_sensitivity",), 2, 150, 1),
        Workload("audit-mc", 1, False, 95.0, ("all",), None, 1, None),
    )
}


def _plant_far_rows(gen: np.random.Generator, z: np.ndarray, lo: int, hi: int, count: int) -> None:
    d = z.shape[1]
    for row in gen.choice(np.arange(lo, hi), size=count, replace=False):
        u = gen.standard_normal(d)
        z[row] += FAR * u / np.linalg.norm(u)


def make_input(wl: Workload, sp: SamplerPlan, seed: int, call: int) -> np.ndarray:
    """The dataset for release call number ``call``, a function of the seed.

    Calls that go to ``sample_known_cov`` (every third, as the loop cycles
    the pipelines) get the mean block only, with identity covariance, since
    that path assumes it; the others get all n rows.
    """
    gen = np.random.default_rng([seed, call])
    known_cov = PIPELINES[call % len(PIPELINES)] == "known_cov"
    rows, d = (sp.n1 if known_cov else sp.n), sp.d
    mu = gen.choice([-1.0, 1.0], size=d) * 10.0 ** gen.uniform(0.0, 6.0, size=d)
    z = gen.standard_normal((rows, d))
    if wl.contaminated:
        if not known_cov:
            _plant_far_rows(gen, z, sp.n1, sp.n, int(gen.integers(1, 6)))
        _plant_far_rows(gen, z, 0, sp.n1, int(gen.integers(1, 4)))
    if known_cov:
        return mu + z
    if d == 1:
        factor = np.array([[10.0 ** gen.uniform(-3.0, 3.0)]])
    else:
        q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        variances = np.logspace(0.0, 2.0, d) * 10.0 ** gen.uniform(-2.0, 2.0)
        factor = q * np.sqrt(variances)
    return mu + z @ factor.T
