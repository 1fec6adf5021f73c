"""Differentially private sampling from unbounded multivariate Gaussians.

The package provides replacement-stable covariance/mean estimators, a
propose-test-release gate, private sampling pipelines built from them, and
a numerical audit harness (imported, with scipy, on first use) that checks
the stability, utility and privacy properties the design relies on.
"""

import importlib

from .estimators import (
    EstimatorConfig,
    WeightedCovOutput,
    WeightVectorOutput,
    largest_good_subset,
    pair_and_rescale,
    stable_cov,
    stable_mean,
)
from .privacy import (
    PrivacyParams,
    PtrOutcome,
    SamplerPlan,
    gate_leakage,
    ladder_granularity,
    noise_multiplier_sq,
    outlier_threshold,
    plan,
    reference_size,
)
from .randomness import RngStream, subset_indices
from .samplers import (
    RunTrace,
    SampleResult,
    cov_aware_mean,
    ptr_check,
    sample_known_cov,
    sample_unbounded,
)

__all__ = [
    "AuditReport",
    "EstimatorConfig",
    "PrivacyParams",
    "PtrOutcome",
    "RngStream",
    "RunTrace",
    "SampleResult",
    "SamplerPlan",
    "WeightVectorOutput",
    "WeightedCovOutput",
    "audit_cov_stability",
    "audit_density_lemmas",
    "audit_end_to_end",
    "audit_matrix_bounds",
    "audit_mean_stability",
    "audit_score_sensitivity",
    "audit_tail_facts",
    "audit_utility_events",
    "cov_aware_mean",
    "gate_leakage",
    "ladder_granularity",
    "largest_good_subset",
    "noise_multiplier_sq",
    "outlier_threshold",
    "pair_and_rescale",
    "plan",
    "ptr_check",
    "reference_size",
    "relaxed_plan",
    "reports_to_csv",
    "reports_to_json_lines",
    "run_checks",
    "sample_known_cov",
    "sample_unbounded",
    "stable_cov",
    "stable_mean",
    "strict_plan",
    "subset_indices",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import ``dpgs.audit``, and scipy with it, on first use (PEP 562)."""
    # every other name in __all__ is bound above, so one that reaches here is the audit's
    if name not in __all__ and name not in ("audit", "divergences"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    audit = importlib.import_module(".audit", __name__)
    if name in __all__:
        globals()[name] = getattr(audit, name)
    return globals()[name]
