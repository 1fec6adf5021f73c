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
from perfbench.workloads import ALPHA, PARAMS, WORKLOADS  # noqa: E402

from dpgs import audit, estimators, privacy, samplers  # noqa: E402
from dpgs.privacy import Gate, PrivacyParams, plan  # noqa: E402
from dpgs.randomness import RngStream  # noqa: E402
from dpgs.samplers import cov_aware_mean, sample_known_cov, sample_unbounded  # noqa: E402


def test_every_wrapped_name_exists_and_is_callable():
    for module, name, layer in measure.RELEASE_WRAPS + measure.AUDIT_WRAPS:
        assert callable(getattr(module, name, None)), (module.__name__, name, layer)


def test_registry_matches_the_benchmark_checks():
    assert set(audit.REGISTRY) == set(measure.AUDIT_CHECKS)


def test_each_pipeline_call_draws_the_gate_once_through_its_traced_name():
    # privacy.gate.ms times samplers.truncated_laplace; a gate that drew
    # through another name would read 0 there without any error
    sp = plan(ALPHA, PARAMS, 2)
    x = 3.0 + np.random.default_rng(2024).standard_normal((sp.n, sp.d))
    runs = (
        lambda: sample_unbounded(x, sp, RngStream(1, 1)),
        lambda: cov_aware_mean(x, sp.params, sp.lambda0, RngStream(1, 1), split_n1=sp.n1),
        lambda: sample_known_cov(x[: sp.n1], sp, RngStream(1, 1)),
    )
    tracer = Tracer()
    gate_spans = []
    try:
        measure.install(tracer)
        for run in runs:
            tracer.reset()
            run()
            gate_spans.append([s.name for s in tracer.spans()].count("privacy.gate"))
    finally:
        tracer.restore()
    assert gate_spans == [1, 1, 1]


def test_the_benchmark_fail_score_is_the_pipeline_gates():
    # perfbench's output check fails a release whose max score reaches this
    share = PARAMS.split(samplers.GATE_EPS_FRAC, samplers.GATE_DELTA_FRAC)
    assert privacy.fail_threshold(share) == Gate.of(PARAMS).fail_score


def _eigh_counts(d):
    """estimators' eigh counts on four releases at dimension d: a clean
    sample_unbounded and sample_known_cov, then the same two with one far
    covariance row and one far mean row planted."""
    sp = plan(0.2, PrivacyParams(1.0, 0.05), d)
    gen = np.random.default_rng(2024)
    x = 3.0 + gen.standard_normal((sp.n, d))
    far = x.copy()
    far[sp.n1, 0] = 1e6
    far_mean = x.copy()
    far_mean[0, 0] = 1e6
    runs = (
        lambda: sample_unbounded(x, sp, RngStream(1, 1)),
        lambda: sample_known_cov(x[: sp.n1], sp, RngStream(1, 1)),
        lambda: sample_unbounded(far, sp, RngStream(1, 1)),
        lambda: sample_known_cov(far_mean[: sp.n1], sp, RngStream(1, 1)),
    )
    tracer = Tracer()
    counts = []
    try:
        tracer.count_numpy_calls(estimators, "linalg", "eigh", "estimators.eigh")
        for run in runs:
            tracer.reset()
            run()
            counts.append(tracer.counts().get("estimators.eigh", 0))
    finally:
        tracer.restore()
    assert estimators.np is np
    return counts


def test_estimators_eigh_count_sees_the_ladder_and_the_neighbor_kernel():
    # A clean release prunes nothing: one eigh for the whole ladder and one
    # in neighbor_counts. The known-covariance release has no ladder, and
    # its identity covariance is not decomposed, so it calls none. Blocks
    # the uniform shortcuts decline cost no extra pass: one far covariance
    # row prunes once (three eigh), one far mean row leaves the
    # known-covariance release at none. d = 2, since a 1 x 1 matrix takes
    # the closed form and calls no eigh.
    assert _eigh_counts(2) == [2, 0, 3, 0]


def test_estimators_eigh_count_is_zero_at_d1():
    # every 1 x 1 decomposition takes the closed form
    assert _eigh_counts(1) == [0, 0, 0, 0]


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
