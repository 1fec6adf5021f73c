"""dpgs benchmark: release-call latency, audit Monte Carlo time and set-up.

Run from the repository root:

    python3 perfbench/run.py --workload clean-d1 --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/workloads.py): clean-d1, contaminated-d20, audit-mc.
Each run measures set-up in fresh interpreters, runs the workload's audit
batch and then its release loop for about ``--seconds`` seconds, checks every
output, and prints one metric per line followed by a JSON result as the last
line. ``--trace 0`` reports the end-to-end metrics (the result holds those
in END_TO_END; those in REPORTED are printed only, see there); ``--trace 1``
rebinds the names each dpgs module calls into, reports the per-layer metrics,
and writes the spans to perfbench/out/. dpgs is imported from ./src, never
from an installed copy; without it the benchmark exits with code 2 and no
result.
BLAS thread counts are left as found in the environment; glibc's malloc
thresholds are fixed at start (see ``steady_allocator``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("clean-d1", "contaminated-d20", "audit-mc")
MMAP_THRESHOLD = 32 << 20  # glibc's largest allowed value on 64-bit
TRIM_THRESHOLD = 64 << 20

END_TO_END = {
    "sample_ms_p2": "ms", "mean_ms_p2": "ms", "known_cov_ms_p2": "ms",
    "release_rate": "share", "audit_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but kept out of the result: on a shared
# 2-vCPU host, how much of a run the neighbours slow moves these by 10-25%
# between runs of the same code, more than a regression bound can allow.
REPORTED = {
    "sample_ms_p50": "ms", "sample_ms_tail": "ms",
    "mean_ms_p50": "ms", "mean_ms_tail": "ms",
    "known_cov_ms_p50": "ms", "known_cov_ms_tail": "ms",
    "calls_per_s": "1/s",
}
PER_LAYER = {
    "estimators.largest_good_subset.calls": "count/call",
    "estimators.largest_good_subset.ms": "ms/call",
    "estimators.eigh.calls": "count/call",
    "estimators.ladder_shortcut_ratio": "share",
    "estimators.stable_mean.ms": "ms/call",
    "estimators.neighbor_pairs": "pairs/call",
    "estimators.stable_cov.ms": "ms/call",
    "estimators.pair_and_rescale.ms": "ms/call",
    "linalg.sym_sqrt.ms": "ms/call",
    "privacy.gate.ms": "ms/call",
    "privacy.gate.pass_ratio": "share",
    "randomness.subset_indices.ms": "ms/call",
    "randomness.sphere_point.ms": "ms/call",
    "samplers.self_ms": "ms/call",
    "samplers.child_share": "share",
    "trace.overhead": "share",
    **{f"audit.{c}.s": "s" for c in (
        "score_sensitivity", "cov_stability", "mean_stability", "utility_events",
        "density_lemmas", "matrix_bounds", "tail_facts", "end_to_end",
    )},
    "audit.pipeline_calls": "count",
    "audit.stable_cov.calls": "count",
    "divergences.tv_histogram.ms": "ms/call",
    "divergences.hs_discrete.ms": "ms/call",
    "setup.import_s": "s",
    "setup.plan_s": "s",
}


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(mod) -> str:
        """BLAS name and version from the build configuration."""
        info = mod.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _seconds(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 600.0:
        raise argparse.ArgumentTypeError("seconds must lie in (0, 600]")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def steady_allocator() -> str:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    By default glibc raises both thresholds the first time a large block is
    freed, and which blocks a run frees depends on thread timing in the
    audit. Release calls at d=1 then ran at 4.2 ms or 3.4 ms per run
    depending on that state alone. Fixed thresholds keep large temporaries
    on the heap in every run. Returns the setting, or why none was made.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return "default (no mallopt)"
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if not (mallopt(m_mmap_threshold, MMAP_THRESHOLD) and mallopt(m_trim_threshold, TRIM_THRESHOLD)):
        return "default (mallopt refused)"
    return f"mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"


def _import_dpgs() -> bool:
    """Put ./src and the repository root on the path and import dpgs from
    ./src; False if that copy is missing."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import dpgs
    except ImportError as exc:
        print(f"cannot import dpgs from {SRC}: {exc}", file=sys.stderr)
        return False
    if Path(dpgs.__file__).resolve().parent != SRC / "dpgs":
        print(f"dpgs was imported from {dpgs.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=_seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    malloc = steady_allocator()
    if not _import_dpgs():
        return 2

    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print("env " + json.dumps({**environment(), "malloc": malloc}, sort_keys=True), flush=True)
    tally = measure.Tally()
    setup = measure.measure_setup(wl, SRC)
    if args.trace:
        out_dir = Path(__file__).with_name("out")
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        metrics, notes = measure.per_layer(wl, args.seed, args.seconds, tally, spans_path)
        metrics.update({k: v for k, v in setup.items() if k in PER_LAYER})
        units = PER_LAYER
    else:
        metrics, notes = measure.end_to_end(wl, args.seed, args.seconds, tally)
        metrics["setup_s"] = setup["setup_s"]
        units = END_TO_END
    printed = units if args.trace else {**units, **REPORTED}
    missing = sorted(set(printed) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")

    for name, unit in printed.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    op_fail_share = tally.failed / max(tally.attempted, 1)
    print(f"op_fail_share = {op_fail_share:.6g} share  ({tally.failed} of {tally.attempted} operations)")
    for key in ("output_digest", "spans"):
        if key in notes:
            print(f"{key} = {notes[key]}")
    for note in tally.notes:
        print(f"FAILED: {note}", file=sys.stderr)

    correct = (
        tally.failed == 0 and tally.attempted > 0
        and all(math.isfinite(metrics[name]) for name in printed)
    )
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
