"""In-memory spans recorded around the benchmark's calls into quatgrad.

A span is (name, start_ns, end_ns, parent, op, calls): `parent` is the
index of the enclosing span or -1, `op` the id of the workload op it
belongs to (-1 for probes outside an op), and `calls` the number of
calls into the layer the span covers, so that per-call time is
duration / calls.  The layer of a span is the part of its name before the
first dot.  Spans stay in memory and are written out once, at the end.
"""

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class NullTracer:
    """Tracing off: spans cost one call returning a shared null context."""

    enabled = False
    _null = nullcontext()

    def span(self, name, calls=1):
        return self._null

    def start_op(self, op):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def start_op(self, op):
        self._op = op

    @contextmanager
    def span(self, name, calls=1):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op, calls)

    def per_call(self, name):
        """Duration per covered call, in ns, of every span called `name`."""
        return [(end - start) / calls
                for n, start, end, _, _, calls in self.spans if n == name]

    def median_per_call(self, name, scale):
        """Median per-call duration of `name` in ns / scale, or 0.0 when the
        workload made no such call."""
        values = self.per_call(name)
        return statistics.median(values) / scale if values else 0.0

    def self_time_by_layer(self):
        """Self time in ns summed per layer over spans inside ops: a span's
        duration minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, op, _) in enumerate(self.spans):
            if op >= 0:
                layer = name.split(".", 1)[0]
                totals[layer] = totals.get(layer, 0) + end - start - child[i]
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, calls in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op, "calls": calls}) + "\n")
