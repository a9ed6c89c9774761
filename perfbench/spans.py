"""Outside-in span tracing for the benchmark.

Spans are recorded by wrapping public limshape functions in the namespace
their caller looks them up in, so the program itself is not modified.
Spans are kept in memory and turned into per-layer metrics after a pass.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None  # index into the recorder's span list


@dataclass
class Recorder:
    """Collects spans and keeps the arguments and results of wrapped calls,
    so that size counts can be read from them after the pass."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    calls: list = field(default_factory=list)  # (span name, args, result)
    _stack: list = field(default_factory=list)

    def wrap(self, name, fn):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), None, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            calls.append((name, args, result))
            return result

        return traced


def patch(recorder, targets):
    """Replace each (owner, attribute, span name) by a traced wrapper.

    Returns the list of originals for `unpatch`.
    """
    saved = []
    for owner, attr, name in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(name, original))
    return saved


def unpatch(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(kids) for s, kids in zip(spans, children)
    ]


def layer_times(spans):
    """Per span name: inclusive seconds, call count and self seconds.

    Inclusive time counts only the outermost span of a name, so a name
    nested inside itself is not counted twice.
    """
    selfs = self_times(spans)
    out = {}
    for i, s in enumerate(spans):
        entry = out.setdefault(s.name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            entry["s"] += s.end - s.start
    return out


def coverage(spans, wall):
    """Share of a pass's wall time covered by its top-level spans."""
    top = [(s.start, s.end) for s in spans if s.parent is None]
    return _covered(top) / wall
