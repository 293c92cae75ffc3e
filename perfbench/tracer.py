"""Spans and counts around the benchmark's own calls into posetcones.

Every call the benchmark makes into a layer goes through `Tracer.call`. With
tracing off it only tags an escaping exception with the layer it came from,
so that a failed task can be charged to that layer. With tracing on it also
records a span: name, start, end, parent span and task id. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, TASK, PASS = range(6)


class CheckFailed(Exception):
    """A layer returned a wrong answer."""

    def __init__(self, layer, what):
        super().__init__(f"{layer}: {what}")
        self.layer = layer


def check(layer, ok, what):
    if not ok:
        raise CheckFailed(layer, what)


def layer_of(exc):
    """Layer a task failure is charged to; `bench` for the benchmark itself."""
    if isinstance(exc, CheckFailed):
        return exc.layer
    return getattr(exc, "bench_layer", "bench")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.on = False
        self.spans = []
        self.counts = Counter()
        self.task = None
        self.pass_index = 0
        self._open = []

    def call(self, name, fn, *args):
        """fn(*args), charged to span `name` (`<layer>.<operation>`)."""
        if not self.on:
            try:
                return fn(*args)
            except Exception as exc:
                _tag(exc, name)
                raise
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None,
                self.task, self.pass_index]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = self.clock()
        try:
            return fn(*args)
        except Exception as exc:
            _tag(exc, name)
            raise
        finally:
            span[END] = self.clock()
            self._open.pop()

    def count(self, name, k=1):
        self.counts[name] += k


def _tag(exc, name):
    if not hasattr(exc, "bench_layer"):
        exc.bench_layer = name.split(".", 1)[0]


def self_times(spans, scale=None):
    """{(pass, name): summed self time}; self time is a span's duration
    minus the durations of its direct children, times scale[(pass, task)]
    when a scale is given."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    out = defaultdict(float)
    for i, s in enumerate(spans):
        k = scale[(s[PASS], s[TASK])] if scale else 1.0
        out[(s[PASS], s[NAME])] += (s[END] - s[START] - child[i]) * k
    return out
