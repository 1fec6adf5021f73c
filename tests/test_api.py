"""The public surface of the package, pinned.

A change to ``dpgs.__all__`` or to the public names of ``dpgs.divergences``
must edit these lists too, so adding, removing or renaming a public name is
always a deliberate, reviewed step.
"""

import dpgs
from dpgs import divergences

PUBLIC = [
    "AuditReport",
    "EstimatorConfig",
    "Gate",
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


def test_public_names_are_pinned():
    assert sorted(dpgs.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in dpgs.__all__:
        assert getattr(dpgs, name) is not None


# Names defined in dpgs.divergences without a leading underscore. The
# closed-form test densities live in tests/densities.py.
DIVERGENCES_PUBLIC = [
    "Density1D",
    "ProjectedSphereDensity",
    "TvEstimate",
    "hockey_stick_1d",
    "hs_discrete",
    "t_density_log_pdf",
    "tv_histogram",
    "weak_triangle_check",
]


def test_divergences_public_names_are_pinned():
    defined = [
        name
        for name, value in vars(divergences).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == divergences.__name__
    ]
    assert sorted(defined) == DIVERGENCES_PUBLIC
