"""Spans around the benchmark's calls into the library, and their sums.

A span is (id, name, start ns, end ns, parent id, op id).  Each op has a root
span named ``op``; the library calls it makes are its children.  Spans and
counts stay in memory until the run ends.

Self time of a span is its duration minus the durations of its children.
Children normally nest inside their parent; the traced classify op also
hangs its replayed layers under the classify span, which they precede (see
``workloads.op_classify``), so the rule subtracts durations rather than
intersecting intervals.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, parent=None, span_id=None):
        return fn(*args)

    def count(self, name, value):
        pass

    def begin_op(self, op_id):
        pass

    def end_op(self):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._stack: list[int] = []
        self._op = None
        self._op_start = 0

    def reserve(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, name, fn, *args, parent=None, span_id=None):
        sid = self.reserve() if span_id is None else span_id
        par = self._stack[-1] if parent is None else parent
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        except Exception as exc:
            self.errors[type(exc).__name__] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, name, start, end, par, self._op))

    def count(self, name, value):
        self.counts[name] += value

    def begin_op(self, op_id):
        self._op = op_id
        self._stack = [self.reserve()]
        self._op_start = time.perf_counter_ns()

    def end_op(self):
        end = time.perf_counter_ns()
        self.spans.append((self._stack[0], "op", self._op_start, end, None,
                           self._op))
        self._stack = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, par, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": par, "op": op}) + "\n")


def layer_times(spans):
    """Per span name: (self time ns, calls), op roots excluded."""
    child_ns: dict[int, int] = defaultdict(int)
    for _, _, start, end, par, _ in spans:
        if par is not None:
            child_ns[par] += end - start
    out: dict[str, list[int]] = {}
    for sid, name, start, end, _, _ in spans:
        if name == "op":
            continue
        acc = out.setdefault(name, [0, 0])
        acc[0] += end - start - child_ns[sid]
        acc[1] += 1
    return out


def coverage(spans):
    """(ns of op time inside some library span, ns of op time)."""
    ops = {}
    inner: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, name, start, end, _, op in spans:
        if name == "op":
            ops[op] = end - start
        else:
            inner[op].append((start, end))
    covered = 0
    for op, intervals in inner.items():
        intervals.sort()
        cur_start, cur_end = intervals[0]
        for start, end in intervals[1:]:
            if start > cur_end:
                covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        covered += cur_end - cur_start
    return covered, sum(ops.values())
