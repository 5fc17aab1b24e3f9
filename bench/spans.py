"""Spans kept in memory and written out once, when the benchmark ends.

A span records its name, start, end, the id of the span that caused it and
the id of the operation it belongs to.  ``perf_counter`` reads the system's
monotonic clock, so spans recorded by child processes line up with the
parent's.
"""

from __future__ import annotations

import os
import time


class Span:
    __slots__ = ("rec", "record")

    def __init__(self, rec, record):
        self.rec = rec
        self.record = record

    def __enter__(self):
        self.rec._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.rec._stack.pop()
        return False


class Recorder:
    """Hands out spans; keeps them only when ``keep`` is true.

    An operation that is not traced still times its stages through the
    same spans, so traced and untraced runs execute the same code.
    """

    def __init__(self, op=None, parent=None, keep=True):
        self.op = op
        self.keep = keep
        self.spans = []
        self._stack = [parent]
        self._prefix = f"{os.getpid()}."
        self._count = 0

    def span(self, name: str, tag=None) -> Span:
        self._count += 1
        record = {"id": self._prefix + str(self._count), "name": name, "op": self.op,
                  "parent": self._stack[-1], "tag": tag}
        if self.keep:
            self.spans.append(record)
        return Span(self, record)

    def add(self, name: str, start: float, end: float, tag=None) -> dict:
        """Record a span whose bounds were observed rather than wrapped."""
        record = self.span(name, tag).record
        record["start"], record["end"] = start, end
        return record


def self_times(spans) -> dict:
    """Self time per span id: its duration minus the part of its interval
    that its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def layer_self_times(spans) -> dict:
    """Total self time per layer, the part of each span name before its first dot."""
    own = self_times(spans)
    out = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s["id"]]
    return out
