"""Span and counter recorder for the benchmark's traced runs.

A span is (name, start, end, parent, item id). Spans nest per thread; a
span opened on a thread with no open span (a ``run_evaluation`` worker)
takes the recorder's current root as its parent. Hot leaf calls, such as
adjacency lookups made millions of times, are not stored one by one: their
time and counts are folded into the innermost open span (``leaf_s``) and
into per-name totals.

The interface is ``span``/``open``/``close``, ``count`` and ``leaf``. An
in-program recorder with the same interface can later replace the
benchmark's wrappers, and the reporting below reads it unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "item_id", "leaf_s")

    def __init__(self, sid, name, start, parent, item_id):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item_id = item_id
        self.leaf_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans, leaf totals and counters in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        # leaf name -> enclosing span name -> [calls, items returned, seconds]
        self.leaves: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0, 0.0])
        )
        self.root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, item_id: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if item_id is None and parent is not None:
            item_id = parent.item_id
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent.sid if parent else None, item_id)
            self.spans.append(span)
        stack.append(span)
        span.start = span.end = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()

    @contextmanager
    def span(self, name: str, item_id: str | None = None):
        span = self.open(name, item_id)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def leaf(self, name: str, seconds: float, returned: int) -> None:
        """Fold one hot leaf call into the innermost open span of this thread."""
        stack = self._stack()
        enclosing = stack[-1] if stack else self.root
        if enclosing is not None:
            enclosing.leaf_s += seconds
        with self._lock:
            totals = self.leaves[name][enclosing.name if enclosing else ""]
            totals[0] += 1
            totals[1] += returned
            totals[2] += seconds


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus its children's covered time and its leaf time.

    Children on other threads may overlap one another; only the union of
    their intervals is subtracted, so a parent never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration
        - _covered(children.get(span.sid, []), span.start, span.end)
        - span.leaf_s
        for span in spans
    }


def layer_self_times(spans: list[Span], leaves) -> dict[str, float]:
    """Self seconds per layer: span self times plus leaf time, by name prefix."""
    totals: dict[str, float] = defaultdict(float)
    by_sid = {span.sid: span for span in spans}
    for sid, seconds in self_times(spans).items():
        totals[by_sid[sid].layer] += seconds
    for name, by_enclosing in leaves.items():
        totals[name.split(".", 1)[0]] += sum(t[2] for t in by_enclosing.values())
    return dict(totals)
