"""In-memory span recorder for the traced benchmark run.

The recorder wraps callables at layer boundaries from outside the program:
each call opens a span (name, start, end, parent) and closes it when the
call returns or raises. A layer's self time is its span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    end: float = float("nan")
    error: str | None = None  # exception class name when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and named counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._clock = clock

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: str | None = None) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        span = self.spans[idx]
        span.end = self._clock()
        span.error = error

    def wrap(self, name: str, fn, on_return=None):
        """Return fn wrapped in a span; on_return(args, kwargs, result) counts work."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, type(exc).__name__)
                raise
            self.close(idx)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def total_by_name(spans: list[Span], values: list[float] | None = None) -> dict[str, float]:
    """Sum of durations (or of the given per-span values) for each span name."""
    out: defaultdict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        out[span.name] += span.duration if values is None else values[i]
    return dict(out)


def calls_by_name(spans: list[Span]) -> dict[str, int]:
    out: defaultdict[str, int] = defaultdict(int)
    for span in spans:
        out[span.name] += 1
    return dict(out)


def nearest_ancestor(spans: list[Span], idx: int, name: str) -> int | None:
    """Index of the closest enclosing span called name, or None."""
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return None


def wasted_calls(spans: list[Span], child: str, attempt: str, rejected) -> int:
    """Count child spans whose nearest enclosing attempt span was rejected.

    rejected(error_name) decides whether an attempt that raised error_name
    counts as a rejection; attempts that returned normally never do.
    """
    wasted = 0
    for i, span in enumerate(spans):
        if span.name != child:
            continue
        owner = nearest_ancestor(spans, i, attempt)
        if owner is not None and spans[owner].error is not None \
                and rejected(spans[owner].error):
            wasted += 1
    return wasted
