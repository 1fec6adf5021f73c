"""Span tracer for the traced benchmark run.

The tracer rebinds, in the benchmark's process only, module-level names that
one dpgs module calls into (``samplers.stable_cov``, ``audit.tv_histogram``,
an entry of ``audit.REGISTRY``, ...). Each call through a rebound name records
a span (layer name, calling module, start, end, parent span). Spans are kept in
memory per thread, so the audit's thread fan-out records without locking, and
are aggregated and written out when the run ends. ``restore`` puts every
original object back.

A name that no longer exists is an error, never a silent zero.
"""

from __future__ import annotations

import functools
import json
import threading
import types
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


class TraceError(RuntimeError):
    """A name the tracer must rebind is missing or not callable."""


@dataclass
class _ThreadState:
    ident: int  # unique per recording thread; OS thread ids can be reused
    # each span: [layer name, calling module, start, end, parent index or -1]
    spans: list[list[Any]] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int  # index into the same thread's spans, -1 for a root
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.state = st
        return st

    def span(self, name: str, fn: Callable, site: str = "bench") -> Callable:
        """``fn`` wrapped so that every call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            idx = len(st.spans)
            rec = [name, site, perf_counter(), 0.0, st.stack[-1] if st.stack else -1]
            st.spans.append(rec)
            st.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                st.stack.pop()

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call adds one to a per-thread count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner: Any, attr: str, make: Callable[[Any], Any], where: str) -> None:
        if isinstance(owner, dict):
            if attr not in owner:
                raise TraceError(f"{where}[{attr!r}] no longer exists")
            original = owner[attr]
            owner[attr] = make(original)
        else:
            if not hasattr(owner, attr):
                raise TraceError(f"{where}.{attr} no longer exists")
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(self, module: types.ModuleType, attr: str, layer: str) -> None:
        """Record a span named ``layer`` for every call ``module`` makes
        through its global name ``attr``."""
        site = module.__name__.rsplit(".", 1)[-1]

        def make(original):
            if not callable(original):
                raise TraceError(f"{module.__name__}.{attr} is not callable")
            return self.span(layer, original, site)

        self._rebind(module, attr, make, module.__name__)

    def wrap_entry(self, table: dict, where: str, key: str, layer: str, site: str) -> None:
        """Record a span for every call dispatched through ``table[key]``;
        ``where`` names the table in errors."""
        self._rebind(table, key, lambda original: self.span(layer, original, site), where)

    def count_numpy_calls(
        self, module: types.ModuleType, submodule: str, func: str, name: str
    ) -> None:
        """Count calls ``module`` makes to ``np.<submodule>.<func>``.

        Rebinds ``module.np`` to a copy of numpy whose ``submodule`` is a copy
        with ``func`` wrapped; every other lookup reaches numpy unchanged.
        """

        def make(np_mod):
            inner = getattr(np_mod, submodule, None)
            if not callable(getattr(inner, func, None)):
                raise TraceError(f"numpy.{submodule}.{func} no longer exists")
            inner_copy = types.ModuleType(inner.__name__)
            inner_copy.__dict__.update(vars(inner))
            setattr(inner_copy, func, self.counter(name, getattr(inner, func)))
            np_copy = types.ModuleType(np_mod.__name__)
            np_copy.__dict__.update(vars(np_mod))
            np_copy.__getattr__ = lambda attr: getattr(np_mod, attr)  # lazy numpy names
            setattr(np_copy, submodule, inner_copy)
            return np_copy

        self._rebind(module, "np", make, module.__name__)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and counts. Call only while no traced call runs."""
        with self._lock:
            for st in self._states:
                st.spans.clear()
                st.counts.clear()

    def spans(self) -> list[Span]:
        with self._lock:
            states = list(self._states)
        return [
            Span(name, site, start, end, parent, st.ident)
            for st in states
            for name, site, start, end, parent in st.spans
        ]

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        with self._lock:
            for st in self._states:
                for name, n in st.counts.items():
                    total[name] = total.get(name, 0) + n
        return total


def parent_positions(spans: list[Span]) -> list[int]:
    """Position in ``spans`` of each span's parent, -1 for a root.

    ``spans`` must hold every span of each thread in recording order, as
    ``Tracer.spans`` returns them.
    """
    seen: dict[int, list[int]] = {}
    out = []
    for i, s in enumerate(spans):
        positions = seen.setdefault(s.thread, [])
        positions.append(i)
        out.append(positions[s.parent] if s.parent >= 0 else -1)
    return out


def self_times(spans: list[Span], parents: list[int]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run inside it on the same thread and do not
    overlap, so the subtraction leaves the time no child span covers.
    """
    child = [0.0] * len(spans)
    for s, p in zip(spans, parents):
        if p >= 0:
            child[p] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def write_spans(path, phases: dict[str, list[Span]], counts: dict[str, dict[str, int]]) -> None:
    """One JSON object per span, then one per phase with its counts."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in phases.items():
            for s in spans:
                fh.write(json.dumps({
                    "phase": phase, "thread": s.thread, "site": s.site, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent,
                }) + "\n")
        for phase, c in counts.items():
            fh.write(json.dumps({"phase": phase, "counts": c}) + "\n")
