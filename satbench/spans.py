"""Span recording around the benchmark's calls into satkit.

A :class:`Tracer` records one span per call: name, tag, start, end, parent
span and op id. Spans stay in memory until the run writes them out. With
tracing off the benchmark uses :class:`NullTracer`, which only makes the
call.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter


class NullTracer:
    def call(self, name: str, fn, *args, tag: str | None = None, **kwargs):
        return fn(*args, **kwargs)

    def op(self, name: str):
        return _NullSpan()


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class Tracer:
    def __init__(self):
        # One row per span: [id, parent, op, name, tag, start, end].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str, tag: str | None) -> list:
        parent = self._stack[-1] if self._stack else -1
        row = [len(self.spans), parent, self._op, name, tag, 0.0, 0.0]
        self.spans.append(row)
        self._stack.append(row[0])
        row[5] = perf_counter()
        return row

    def _close(self, row: list) -> None:
        row[6] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, tag: str | None = None, **kwargs):
        row = self._open(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(row)

    def op(self, name: str):
        return _OpSpan(self, name)


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._op = len(self.tracer.spans)
        self.row = self.tracer._open(self.name, None)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.row)
        self.tracer._op = -1
        return False


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the time its children cover."""
    covered = [0.0] * len(spans)
    for _, parent, _, _, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, _, _, _, start, end) in enumerate(spans)]


def nesting_errors(spans) -> list[str]:
    """Spans that lie outside their parent or have negative self time."""
    errors = []
    for i, (sid, parent, _, name, _, start, end) in enumerate(spans):
        if sid != i or end < start:
            errors.append(f"span {i} {name}: bad id or interval")
        if parent >= 0:
            p = spans[parent]
            if parent >= i or start < p[5] or end > p[6]:
                errors.append(f"span {i} {name}: outside parent {parent} {p[3]}")
    for i, value in enumerate(self_times(spans)):
        if value < 0:
            errors.append(f"span {i} {spans[i][3]}: negative self time {value}")
    return errors


def summarize(spans) -> dict:
    """Per span name: summed self seconds, call count and median duration.

    Tagged spans are also summarized under ``<name>.<tag>``, which is how
    size sweeps report one median per size.
    """
    own = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for i, (_, _, _, name, tag, start, end) in enumerate(spans):
        for key in (name, f"{name}.{tag}") if tag else (name,):
            seconds[key] += own[i]
            durations[key].append(end - start)
    return {
        key: {
            "s": seconds[key],
            "calls": len(vals),
            "median_s": statistics.median(vals),
        }
        for key, vals in durations.items()
    }
