"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``Recorder.wrap``
rebinds a name that a calling module looks up (for example
``diffmeans.experiments.simulate_values``) to a wrapper that records a
span around the original function.  Nothing in the package changes, and
``Recorder.restore`` puts every original back.

Each span holds its name, start, end and the index of its parent span
(-1 for a root).  A span's self time is its duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Total length covered by the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    # -- rebinding ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``on_result(recorder, args, kwargs, result)`` runs after each call
        and may record counters.  A method is wrapped on its class.
        """
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            idx = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(idx)
            if on_result is not None:
                on_result(recorder, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count_calls(self, owner, attr: str, *names: str) -> None:
        """Count calls of ``owner.attr`` under each counter name, no span."""
        original = getattr(owner, attr)
        recorder = self

        def counted(*args, **kwargs):
            for counter in names:
                recorder.add(counter)
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent >= 0:
                children.setdefault(s.parent, []).append((s.start, s.end))
        total = 0.0
        for idx, s in enumerate(self.spans):
            if s.name == name:
                covered = union_length(children.get(idx, ()), s.start, s.end)
                total += (s.end - s.start) - covered
        return total

    def coverage(self, prefixes, lo: float, hi: float) -> float:
        """Length of [lo, hi] covered by spans whose name starts with a prefix."""
        prefixes = tuple(prefixes)
        return union_length(
            ((s.start, s.end) for s in self.spans if s.name.startswith(prefixes)), lo, hi
        )
