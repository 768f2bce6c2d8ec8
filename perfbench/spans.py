"""In-memory span recorder and the self-time arithmetic of the traced run.

A span is (name, start, end, parent index); parent -1 marks a top-level
span.  Spans are opened and closed in stack order, so a child always lies
inside its parent.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock() if start is None else start,
                           None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, end: float | None = None) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        self.spans[index][2] = self.clock() if end is None else end

    def wrap(self, fn, name: str, count: str | None = None):
        """``fn`` recorded as one span named ``name`` per call, and counted
        under ``count`` when given."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count:
                self.counts[count] += 1
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced


def self_times(spans) -> dict:
    """Total self time per span name: each span's duration minus the
    durations of its direct children."""
    child_total = defaultdict(float)
    for name, start, end, parent in spans:
        if end is None:
            raise ValueError(f"span {name!r} was never closed")
        if parent >= 0:
            child_total[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child_total[i]
    return dict(out)
