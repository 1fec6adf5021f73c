"""The names the benchmark's traced run rebinds, checked in the main suite.

perfbench wraps module-level names of dpgs (RELEASE_WRAPS, AUDIT_WRAPS) and
every entry of audit.REGISTRY, and counts the ``np.linalg.eigh`` calls made
from the estimators module; a renamed or deleted hook, or an ``eigh`` moved
to another module, would otherwise surface only when the benchmark runs.
Each workload's audit batch also runs here, which pins the
``run_checks(..., threads=...)`` call the benchmark makes.
"""

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import measure  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

from dpgs import audit, estimators  # noqa: E402
from dpgs.privacy import PrivacyParams, plan  # noqa: E402
from dpgs.randomness import RngStream  # noqa: E402
from dpgs.samplers import sample_known_cov, sample_unbounded  # noqa: E402


def test_every_wrapped_name_exists_and_is_callable():
    for module, name, layer in measure.RELEASE_WRAPS + measure.AUDIT_WRAPS:
        assert callable(getattr(module, name, None)), (module.__name__, name, layer)


def test_registry_matches_the_benchmark_checks():
    assert set(audit.REGISTRY) == set(measure.AUDIT_CHECKS)


def test_estimators_eigh_count_sees_the_ladder_and_the_neighbor_kernel():
    # A clean d=1 release prunes nothing: one eigh for the whole ladder and
    # one in neighbor_counts; the known-covariance release has no ladder.
    sp = plan(0.2, PrivacyParams(1.0, 0.05), 1)
    gen = np.random.default_rng(2024)
    x = 3.0 + gen.standard_normal((sp.n, 1))
    tracer = Tracer()
    try:
        tracer.count_numpy_calls(estimators, "linalg", "eigh", "estimators.eigh")
        sample_unbounded(x, sp, RngStream(1, 1))
        assert tracer.counts() == {"estimators.eigh": 2}
        tracer.reset()
        sample_known_cov(x[: sp.n1], sp, RngStream(1, 1))
        assert tracer.counts() == {"estimators.eigh": 1}
        # Blocks the uniform shortcuts decline cost no extra pass: one far
        # covariance row prunes once (three eigh), one far mean row
        # leaves the known-covariance release at one.
        far = x.copy()
        far[sp.n1, 0] = 1e6
        tracer.reset()
        sample_unbounded(far, sp, RngStream(1, 1))
        assert tracer.counts() == {"estimators.eigh": 3}
        far[0, 0] = 1e6
        tracer.reset()
        sample_known_cov(far[: sp.n1], sp, RngStream(1, 1))
        assert tracer.counts() == {"estimators.eigh": 1}
    finally:
        tracer.restore()
    assert estimators.np is np


def test_every_workload_audit_batch_passes():
    # audit-mc narrowed to two quick checks; with audit_threads None it
    # still hands run_checks every CPU, so the pool runs on >= 2 CPUs
    for wl in WORKLOADS.values():
        if wl.name == "audit-mc":
            wl = dataclasses.replace(
                wl, audit_checks=("matrix_bounds", "density_lemmas"), audit_trials=12
            )
        tally = measure.Tally()
        _, text = measure.audit_batch(wl, 11, tally)
        assert tally.failed == 0, (wl.name, tally.notes)
        assert text
