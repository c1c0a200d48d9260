"""In-memory spans and counters for the traced benchmark runs.

A span records a name, start and end (perf_counter seconds), the index of the
span that was open in the same thread when it started, and the trial it
belongs to. Spans stay in memory until the run ends. A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    trial: int | None


class Tracer:
    """Span and counter sink shared by the threads of one traced replay."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, trial: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if trial is None and parent is not None:
            trial = self.spans[parent].trial
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, math.nan, math.nan, parent, trial))
        stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n


class NullTracer:
    """Tracing off: spans cost one call and record nothing; counts are dropped."""

    def span(self, name: str, trial: int | None = None):
        return nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass


def covered(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(kids[i], s.start, s.end) for i, s in enumerate(spans)
    ]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        out[s.name] += t
    return dict(out)


def root_union(spans: list[Span]) -> float:
    """Wall time covered by the top-level spans (parallel trials overlap)."""
    return covered([(s.start, s.end) for s in spans if s.parent is None])
