"""The JSON form of a RunTrace that the golden trace digests hash."""

from typing import Any

from dpgs.samplers import RunTrace


def trace_dict(trace: RunTrace) -> dict[str, Any]:
    """Every field of trace as JSON values: the gate bit as its string and
    the reference set as a list of ints."""
    return {
        "score_cov": trace.score_cov,
        "score_mean": trace.score_mean,
        "ptr": trace.ptr.value,
        "cov_uniform": trace.cov_uniform,
        "mean_uniform": trace.mean_uniform,
        "reference_set": [int(i) for i in trace.reference_set],
        "sizes": dict(trace.sizes),
    }
