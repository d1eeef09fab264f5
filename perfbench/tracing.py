"""In-memory spans recorded around the benchmark's calls into graphmoves.

A span is (name, start, end, parent index, op id, kind): kind "op" for a
whole op, "call" for a public function called inside an op, "probe" for a
layer measured on its own, outside every op.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def span(self, name: str, kind: str, fn, *args):
        """Run fn(*args) inside a span; an exception closes the span and propagates."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op_id, kind]
        self.spans.append(rec)
        self._stack.append(index)
        try:
            return fn(*args)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        return self.span(name, "call", fn, *args)


def untraced_call(name: str, fn, *args):
    return fn(*args)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
