"""Output checks and the output digest.

Every release call and every audit report the benchmark makes passes through
these checks; an operation whose output fails one counts as failed.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from dpgs.privacy import PtrOutcome


def release_problems(result, trace, d: int, k: int, fail_score: float) -> list[str]:
    """Why one pipeline output is wrong; empty when it is right.

    On Pass the value is a finite vector of shape (d,), on Fail it is None,
    and the gate bit in the trace agrees. Scores are integers in [0, k].
    A max score of 0 must pass and a max score at or above ``fail_score``
    (the gate's sure-fail threshold) must fail.
    """
    problems = []
    scores = [s for s in (trace.score_cov, trace.score_mean) if s is not None]
    if not scores:
        problems.append("no score")
    for s in scores:
        if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or not 0 <= s <= k:
            problems.append(f"score {s!r} is not an integer in [0, {k}]")
    passed = result.value is not None
    if passed:
        value = np.asarray(result.value)
        if value.shape != (d,):
            problems.append(f"released shape {value.shape} != ({d},)")
        elif not np.all(np.isfinite(value)):
            problems.append("released value is not finite")
    if (trace.ptr is PtrOutcome.PASS) != passed:
        problems.append(f"gate bit {trace.ptr.value} disagrees with the release")
    top = max(scores, default=0)
    if top == 0 and not passed:
        problems.append("max score 0 but the gate failed")
    if top >= fail_score and passed:
        problems.append(f"max score {top} >= {fail_score:.3f} but the gate passed")
    return problems


def audit_problems(reports) -> list[str]:
    return [f"audit {r.check_id} verdict {r.verdict}" for r in reports if r.verdict != "pass"]


class OutputDigest:
    """sha256 over released bytes, scores and gate bits, then audit reports."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add_release(self, pipeline: str, result, trace) -> None:
        h = self._h
        h.update(pipeline.encode())
        if result.value is None:
            h.update(b"-")
        else:
            h.update(np.ascontiguousarray(result.value, dtype="<f8").tobytes())
        score_cov = -1 if trace.score_cov is None else int(trace.score_cov)
        h.update(struct.pack("<qq", score_cov, int(trace.score_mean)))
        h.update(b"P" if trace.ptr is PtrOutcome.PASS else b"F")

    def add_text(self, text: str) -> None:
        self._h.update(text.encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()
