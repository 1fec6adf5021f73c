"""One benchmark run: set-up probes, the audit batch and the release loop.

End-to-end metrics come from an untraced run. A traced run installs the tracer
for one audit batch, then alternates untraced and traced blocks of release
calls, and reports the per-layer metrics and the tracing overhead (traced
against untraced release calls).
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import dpgs
from dpgs import audit, estimators, samplers
from dpgs.privacy import fail_threshold

from perfbench.checks import OutputDigest, audit_problems, release_problems
from perfbench.tracing import Span, Tracer, parent_positions, self_times, write_spans
from perfbench.workloads import ALPHA, LOW_PCT, PARAMS, PIPELINES, Workload, make_input

SETUP_REPEATS = 5
TRACED_MIN_CYCLES = 20
BLOCK_CYCLES = 4
# A fresh process runs its first release calls 2-4x slower for about half a
# second; untimed calls on inputs the timed loop never uses absorb that.
WARMUP_SECONDS = 1.0
WARMUP_FIRST_CALL = 1 << 40
MAX_NOTES = 5

# Names each dpgs module calls into, and the layer a call through them is in.
RELEASE_WRAPS = (
    (samplers, "stable_cov", "estimators.stable_cov"),
    (samplers, "stable_mean", "estimators.stable_mean"),
    (samplers, "sym_sqrt", "linalg.sym_sqrt"),
    (samplers, "truncated_laplace", "privacy.gate"),  # the gate's noise draw, its only work
    (samplers, "subset_indices", "randomness.subset_indices"),
    (samplers, "sphere_point", "randomness.sphere_point"),
    (estimators, "largest_good_subset", "estimators.largest_good_subset"),
    (estimators, "pair_and_rescale", "estimators.pair_and_rescale"),
)
AUDIT_WRAPS = (
    (audit, "sample_unbounded", "samplers.sample_unbounded"),
    (audit, "stable_cov", "estimators.stable_cov"),
    (audit, "stable_mean", "estimators.stable_mean"),
    (audit, "tv_histogram", "divergences.tv_histogram"),
    (audit, "hs_discrete", "divergences.hs_discrete"),
)
AUDIT_CHECKS = (
    "score_sensitivity", "cov_stability", "mean_stability", "utility_events",
    "density_lemmas", "matrix_bounds", "tail_facts", "end_to_end",
)
# layers whose self time per release call is reported as "<layer>.ms"
RELEASE_LAYERS = tuple(layer for _, _, layer in RELEASE_WRAPS)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_NOTES:
            self.notes.append(note)


@dataclass
class LoopResult:
    times: dict[str, list[float]]
    wall: float
    passed: int
    next_call: int

    @property
    def released(self) -> int:
        return sum(len(t) for t in self.times.values())


def merge(loops: list[LoopResult]) -> LoopResult:
    return LoopResult(
        {name: [t for loop in loops for t in loop.times[name]] for name in PIPELINES},
        sum(loop.wall for loop in loops),
        sum(loop.passed for loop in loops),
        loops[-1].next_call,
    )


def _pipelines(sp) -> dict:
    return {
        "sample": lambda x, rng: dpgs.sample_unbounded(x, sp, rng),
        "mean": lambda x, rng: dpgs.cov_aware_mean(x, sp.params, sp.lambda0, rng, split_n1=sp.n1),
        "known_cov": lambda x, rng: dpgs.sample_known_cov(x, sp, rng),
    }


def release_loop(
    wl: Workload, sp, seed: int, seconds: float, min_cycles: int, tally: Tally,
    first_call: int = 0, tracer: Tracer | None = None,
    digest: OutputDigest | None = None, digest_calls: int = 0,
) -> LoopResult:
    """Closed loop of release calls, cycling the pipelines, for ``seconds``
    and at least ``min_cycles`` calls of each pipeline."""
    calls = _pipelines(sp)
    if tracer is not None:
        calls = {name: tracer.span(f"samplers.{name}", fn) for name, fn in calls.items()}
    fail_score = fail_threshold(PARAMS.split(samplers.GATE_EPS_FRAC, samplers.GATE_DELTA_FRAC))
    times: dict[str, list[float]] = {name: [] for name in PIPELINES}
    passed = 0
    call = first_call
    start = perf_counter()
    while call - first_call < min_cycles * len(PIPELINES) or perf_counter() - start < seconds:
        name = PIPELINES[call % len(PIPELINES)]
        x = make_input(wl, sp, seed, call)
        rng = dpgs.RngStream(seed, call)
        tally.attempted += 1
        call += 1
        t0 = perf_counter()
        try:
            result, trace = calls[name](x, rng)
        except Exception:  # an operation that raises counts as failed; the loop goes on
            tally.fail(f"{name} call {call - 1} raised:\n{traceback.format_exc()}")
            continue
        times[name].append(perf_counter() - t0)
        problems = release_problems(result, trace, sp.d, sp.k, fail_score)
        if problems:
            tally.fail(f"{name} call {call - 1}: {'; '.join(problems)}")
        passed += result.value is not None
        if digest is not None and call <= digest_calls:
            digest.add_release(name, result, trace)
    return LoopResult(times, perf_counter() - start, passed, call)


def audit_batch(wl: Workload, seed: int, tally: Tally) -> tuple[float, str]:
    """One run of the workload's audit batch: wall seconds and the reports
    as JSON lines. Every report must pass."""
    threads = wl.audit_threads or len(os.sched_getaffinity(0))
    t0 = perf_counter()
    reports = audit.run_checks(
        wl.audit_checks, mode="relaxed", seed=seed, trials=wl.audit_trials, threads=threads
    )
    seconds = perf_counter() - t0
    tally.attempted += len(reports)
    for note in audit_problems(reports):
        tally.fail(note)
    return seconds, audit.reports_to_json_lines(reports)


def measure_setup(wl: Workload, src: Path) -> dict[str, float]:
    """Medians over fresh interpreters of import and plan time."""
    probe = Path(__file__).with_name("setup_probe.py")
    plans = json.dumps([[ALPHA, PARAMS.epsilon, PARAMS.delta, wl.d]])
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(probe), str(src), plans],
            capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(r["import_s"] + r["plan_s"] for r in runs),
        "setup.import_s": statistics.median(r["import_s"] for r in runs),
        "setup.plan_s": statistics.median(r["plan_s"] for r in runs),
    }


def warm_up(wl: Workload, sp, seed: int, tally: Tally) -> None:
    release_loop(wl, sp, seed, WARMUP_SECONDS, 1, tally, first_call=WARMUP_FIRST_CALL)


def end_to_end(wl: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and notes to print.

    The run is split into ``audit_repeats`` rounds, each an audit batch and
    then release calls until the round's share of ``seconds`` is used, so
    that both kinds of work sample the whole run. Repeats of the audit batch
    must produce byte-identical reports. ``audit_s`` and the per-call
    latencies are the ``LOW_PCT`` percentile of their times: on a shared
    host, how much of a run the neighbours slow sets the median and the
    mean, while the fast end tracks the code.
    """
    sp = wl.plan()
    digest = OutputDigest()
    digest_calls = wl.min_cycles * len(PIPELINES)
    warm_up(wl, sp, seed, tally)
    audit_s, loops = [], []
    call = 0
    start = perf_counter()
    for r in range(wl.audit_repeats):
        elapsed, text = audit_batch(wl, seed, tally)
        audit_s.append(elapsed)
        if r == 0:
            digest.add_text(text)
            first_text = text
        elif text != first_text:
            tally.fail("audit reports differ between repeats of one seed")
        round_end = start + seconds * (r + 1) / wl.audit_repeats
        loops.append(release_loop(
            wl, sp, seed, max(round_end - perf_counter(), seconds / (4 * wl.audit_repeats)), 0,
            tally, first_call=call, digest=digest, digest_calls=digest_calls,
        ))
        call = loops[-1].next_call
    if call < digest_calls:
        loops.append(release_loop(
            wl, sp, seed, 0.0, math.ceil((digest_calls - call) / len(PIPELINES)), tally,
            first_call=call, digest=digest, digest_calls=digest_calls,
        ))
    loop = merge(loops)
    metrics = {}
    notes = {}
    for name in PIPELINES:
        ms = 1e3 * np.asarray(loop.times[name])
        for key, pct in ((f"p{LOW_PCT:g}", LOW_PCT), ("p50", 50.0), ("tail", wl.tail_pct)):
            metrics[f"{name}_ms_{key}"] = float(np.percentile(ms, pct))
            notes[f"{name}_ms_{key}"] = f"p{pct:g} of {ms.size} calls"
    metrics["calls_per_s"] = loop.released / loop.wall
    metrics["release_rate"] = loop.passed / max(loop.released, 1)
    metrics["audit_s"] = float(np.percentile(audit_s, LOW_PCT))
    notes["audit_s"] = (
        f"p{LOW_PCT:g} of {len(audit_s)} x run_checks{wl.audit_checks}, "
        f"min {min(audit_s):.6g} s, median {statistics.median(audit_s):.6g} s"
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes["output_digest"] = f"{digest.hexdigest()} (audit reports + first {digest_calls} release calls)"
    return metrics, notes


def _release_layers(spans: list[Span], counts: dict[str, int], sp, loop: LoopResult) -> dict:
    parents = parent_positions(spans)
    selfs = self_times(spans, parents)
    self_by_layer: Counter = Counter()
    calls_by_layer: Counter = Counter()
    root_total = root_self = 0.0
    roots = 0
    for s, p, own in zip(spans, parents, selfs):
        if p < 0 and s.site == "bench":
            roots += 1
            root_total += s.duration
            root_self += own
        else:
            self_by_layer[s.name] += own
            calls_by_layer[s.name] += 1
    ladder_parents = {p for s, p in zip(spans, parents) if s.name == "estimators.largest_good_subset"}
    cov_spans = [i for i, s in enumerate(spans) if s.name == "estimators.stable_cov"]
    per_call = 1.0 / max(roots, 1)
    out = {f"{layer}.ms": 1e3 * self_by_layer[layer] * per_call for layer in RELEASE_LAYERS}
    out["estimators.largest_good_subset.calls"] = calls_by_layer["estimators.largest_good_subset"] * per_call
    out["estimators.eigh.calls"] = counts.get("estimators.eigh", 0) * per_call
    out["estimators.ladder_shortcut_ratio"] = (
        sum(1 for i in cov_spans if i not in ladder_parents) / len(cov_spans) if cov_spans else 0.0
    )
    out["estimators.neighbor_pairs"] = float(sp.n1 * sp.ref_size)
    out["privacy.gate.pass_ratio"] = loop.passed / max(loop.released, 1)
    out["samplers.self_ms"] = 1e3 * root_self * per_call
    out["samplers.child_share"] = (root_total - root_self) / root_total if root_total else 0.0
    return out


def _audit_layers(spans: list[Span]) -> dict:
    by_name: dict[tuple[str, str], list[float]] = {}
    for s in spans:
        by_name.setdefault((s.site, s.name), []).append(s.duration)
    out = {f"audit.{c}.s": sum(by_name.get(("audit", f"audit.{c}"), [])) for c in AUDIT_CHECKS}
    out["audit.pipeline_calls"] = float(len(by_name.get(("audit", "samplers.sample_unbounded"), [])))
    out["audit.stable_cov.calls"] = float(len(by_name.get(("audit", "estimators.stable_cov"), [])))
    for layer in ("divergences.tv_histogram", "divergences.hs_discrete"):
        durations = by_name.get(("audit", layer), [])
        out[f"{layer}.ms"] = 1e3 * statistics.fmean(durations) if durations else 0.0
    return out


def install(tracer: Tracer) -> None:
    for module, attr, layer in RELEASE_WRAPS + AUDIT_WRAPS:
        tracer.wrap(module, attr, layer)
    tracer.count_numpy_calls(estimators, "linalg", "eigh", "estimators.eigh")
    for check in AUDIT_CHECKS:
        tracer.wrap_entry(audit.REGISTRY, "dpgs.audit.REGISTRY", check, f"audit.{check}", "audit")


def _median_sum(loop: LoopResult) -> float:
    return sum(float(np.median(t)) for t in loop.times.values() if t)


def per_layer(
    wl: Workload, seed: int, seconds: float, tally: Tally, spans_path: Path | None
) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and notes to print."""
    sp = wl.plan()
    warm_up(wl, sp, seed, tally)
    tracer = Tracer()
    start = perf_counter()
    try:
        install(tracer)
        audit_batch(wl, seed, tally)
    finally:
        tracer.restore()
    audit_spans, audit_counts = tracer.spans(), tracer.counts()
    tracer.reset()
    # Untraced and traced blocks alternate, so both see the same machine state.
    loop_end = perf_counter() + max(start + seconds - perf_counter(), seconds / 3.0)
    plain_blocks, traced_blocks = [], []
    call = 0
    while perf_counter() < loop_end or len(traced_blocks) * BLOCK_CYCLES < TRACED_MIN_CYCLES:
        plain_blocks.append(release_loop(wl, sp, seed, 0.0, BLOCK_CYCLES, tally, first_call=call))
        try:
            install(tracer)
            traced_blocks.append(release_loop(
                wl, sp, seed, 0.0, BLOCK_CYCLES, tally,
                first_call=plain_blocks[-1].next_call, tracer=tracer,
            ))
        finally:
            tracer.restore()
        call = traced_blocks[-1].next_call
    plain, traced = merge(plain_blocks), merge(traced_blocks)
    release_spans, release_counts = tracer.spans(), tracer.counts()
    metrics = _audit_layers(audit_spans)
    metrics.update(_release_layers(release_spans, release_counts, sp, traced))
    metrics["trace.overhead"] = _median_sum(traced) / _median_sum(plain) - 1.0
    notes = {
        "estimators.neighbor_pairs": "computed as n1 x |R| from the plan, not measured",
        "trace.overhead": f"summed pipeline medians, {traced.released} traced vs "
                          f"{plain.released} untraced calls",
    }
    if spans_path is not None:
        write_spans(
            spans_path,
            {"audit": audit_spans, "release": release_spans},
            {"audit": audit_counts, "release": release_counts},
        )
        notes["spans"] = str(spans_path)
    return metrics, notes

