"""Spans and counters recorded by the benchmark around its calls into bykov.

Spans come only from the benchmark's own code: every call a workload makes
into a bykov module goes through ``Tracer.call`` with the layer-qualified
name of the function (``params.classify_region``, ``cli.main.strips`` ...).
Untraced runs use ``NoTracer``, whose methods do nothing beyond the call
itself, so the two runs execute the same workload code.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class NoTracer:
    """Tracing off: calls go straight through, counters are dropped."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, n=1):
        pass

    def low(self, name, value):
        pass

    def high(self, name, value):
        pass

    @contextmanager
    def op(self, op_id, kind):
        yield


class Tracer:
    """Tracing on: spans and counters are kept in memory until the run ends."""

    def __init__(self):
        # [name, start, end, parent span index or -1, op id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.lows: dict[str, float] = {}
        self.highs: dict[str, float] = {}
        self._stack: list[int] = []
        self._op_id = -1

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def add(self, name, n=1):
        self.counts[name] += n

    def low(self, name, value):
        self.lows[name] = min(value, self.lows.get(name, value))

    def high(self, name, value):
        self.highs[name] = max(value, self.highs.get(name, value))

    @contextmanager
    def op(self, op_id, kind):
        self._op_id = op_id
        self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close()

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per span name.

        Self time is a span's duration minus the time covered by its child
        spans; one process runs one span at a time, so children never
        overlap and their durations add up.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        return calls, self_s
