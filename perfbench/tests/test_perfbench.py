"""Tests of the benchmark itself: output checks, tracer, and a smoke run.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import dpgs
from dpgs import samplers
from dpgs.privacy import PtrOutcome
from dpgs.samplers import RunTrace, SampleResult

from perfbench import measure, run, workloads
from perfbench.checks import OutputDigest, release_problems
from perfbench.tracing import Span, Tracer, TraceError, parent_positions, self_times

ROOT = Path(__file__).resolve().parents[2]
K = 33
FAIL_SCORE = 32.7


def _trace(score: int, ptr: PtrOutcome) -> RunTrace:
    return RunTrace(score, score, ptr, True, True, np.arange(3), {})


def test_check_rejects_nan_release():
    result = SampleResult(np.array([np.nan]))
    problems = release_problems(result, _trace(0, PtrOutcome.PASS), 1, K, FAIL_SCORE)
    assert any("not finite" in p for p in problems)


def test_check_rejects_score_zero_fail():
    result = SampleResult(None)
    problems = release_problems(result, _trace(0, PtrOutcome.FAIL), 1, K, FAIL_SCORE)
    assert any("max score 0" in p for p in problems)


@pytest.mark.parametrize(
    "result, trace, fragment",
    [
        (SampleResult(np.zeros(2)), _trace(0, PtrOutcome.PASS), "shape"),
        (SampleResult(np.zeros(1)), _trace(33, PtrOutcome.PASS), ">= 32.700"),
        (SampleResult(np.zeros(1)), _trace(34, PtrOutcome.PASS), "not an integer in"),
        (SampleResult(np.zeros(1)), _trace(5, PtrOutcome.FAIL), "gate bit"),
    ],
)
def test_check_rejects_other_bad_outputs(result, trace, fragment):
    problems = release_problems(result, trace, 1, K, FAIL_SCORE)
    assert any(fragment in p for p in problems), problems


def test_check_accepts_real_releases_and_digest_repeats():
    wl = workloads.WORKLOADS["contaminated-d20"]
    sp = wl.plan()

    def loop(seed):
        tally, digest = measure.Tally(), OutputDigest()
        measure.release_loop(wl, sp, seed, 0.0, 2, tally, digest=digest, digest_calls=6)
        assert (tally.attempted, tally.failed) == (6, 0), tally.notes
        return digest.hexdigest()

    assert loop(3) == loop(3) != loop(4)


def test_tracer_self_time_and_parents_per_thread():
    spans = [
        Span("root", "bench", 0.0, 10.0, -1, 0),
        Span("other", "x", 0.0, 4.0, -1, 1),
        Span("a", "x", 1.0, 4.0, 0, 0),
        Span("b", "x", 2.0, 3.0, 1, 0),
        Span("c", "x", 5.0, 9.0, 0, 0),
        Span("d", "x", 1.0, 2.0, 0, 1),
    ]
    parents = parent_positions(spans)
    assert parents == [-1, -1, 0, 2, 0, 1]
    assert self_times(spans, parents) == [3.0, 3.0, 2.0, 1.0, 4.0, 1.0]


def test_tracer_records_threads_and_restores():
    tracer = Tracer()
    tracer.wrap(samplers, "sphere_point", "randomness.sphere_point")
    try:
        gen = np.random.default_rng(0)
        worker = threading.Thread(target=lambda: samplers.sphere_point(np.random.default_rng(1), 3))
        worker.start()
        samplers.sphere_point(gen, 3)
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.restore()
    spans = tracer.spans()
    assert [s.name for s in spans] == ["randomness.sphere_point"] * 2
    assert len({s.thread for s in spans}) == 2
    assert samplers.sphere_point is dpgs.randomness.sphere_point


def test_missing_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(samplers, "sphere_point")
    tracer = Tracer()
    with pytest.raises(TraceError, match="sphere_point no longer exists"):
        measure.install(tracer)
    tracer.restore()
    assert samplers.stable_cov is dpgs.estimators.stable_cov
    assert dpgs.estimators.np is np


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert not set(run.REPORTED) & set(run.END_TO_END)


def _smoke(monkeypatch, capsys, trace: int) -> dict:
    small = dataclasses.replace(
        workloads.WORKLOADS["audit-mc"], tail_pct=90.0, audit_checks=("end_to_end",),
        audit_trials=50,
    )
    monkeypatch.setitem(workloads.WORKLOADS, "audit-mc", small)
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)
    monkeypatch.setattr(measure, "WARMUP_SECONDS", 0.05)
    argv = ["--workload", "audit-mc", "--seed", "5", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, unit in (names if trace else {**names, **run.REPORTED}).items():
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines), name
    assert any(line.startswith("op_fail_share = 0 ") for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result["metrics"]


def test_smoke_run_prints_every_end_to_end_metric(monkeypatch, capsys):
    metrics = _smoke(monkeypatch, capsys, 0)
    assert all(m["value"] > 0 for m in metrics.values())


def test_smoke_run_prints_every_per_layer_metric(monkeypatch, capsys):
    metrics = _smoke(monkeypatch, capsys, 1)
    assert metrics["audit.pipeline_calls"]["value"] > 0
    assert metrics["divergences.tv_histogram.ms"]["value"] > 0
    assert metrics["estimators.stable_mean.ms"]["value"] > 0
    assert metrics["estimators.largest_good_subset.calls"]["value"] == 0  # clean d=1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clean-d1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert time.monotonic() - start < 180
