"""Span recorder that traces macie from the outside.

Each public entry point of a layer is wrapped where its caller looks it up
(a module global, a class attribute, or a name ``macie.report`` imported),
so the program itself stays untouched. A span records its name, start, end,
parent span and one work amount (rows, steps or bytes, depending on the
layer). Spans are kept in flat arrays and written out when the run ends.
Parents are tracked per thread, so spans opened on pool threads are roots.
A span's self time is its duration minus its children's, minus the
recorder's own measured cost per child (``measure_child_overhead_ns``).
"""

from __future__ import annotations

import array
import functools
import itertools
import threading
import time
from contextlib import contextmanager

import numpy as np


class Recorder:
    """In-memory span table for one traced repetition."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.span_id = array.array("q")
        self.name_id = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.work = array.array("d")
        # distinct stream keys seen by rng.derive_stream
        self.stream_keys: set = set()

    def _name(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, func, work=None):
        """Return ``func`` recording one span per call.

        ``work(args, result)`` gives the span's work amount.
        """
        nid = self._name(name)
        local = self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
            amount = work(args, result) if work is not None else 0.0
            with self._lock:
                self.span_id.append(sid)
                self.name_id.append(nid)
                self.parent.append(parent)
                self.start.append(t0)
                self.end.append(t1)
                self.work.append(amount)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each ``(name, owner, attr, work)`` target for the block."""
        saved = []
        try:
            for name, owner, attr, work in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def table(self, child_overhead_ns=0.0):
        """Spans as a :class:`SpanTable`, ordered by span id."""
        ids = np.frombuffer(self.span_id, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        return SpanTable(
            names=list(self.names),
            span_id=ids[order],
            name_id=np.frombuffer(self.name_id, dtype=np.int64)[order],
            parent=np.frombuffer(self.parent, dtype=np.int64)[order],
            start=np.frombuffer(self.start, dtype=np.int64)[order],
            end=np.frombuffer(self.end, dtype=np.int64)[order],
            work=np.frombuffer(self.work, dtype=np.float64)[order],
            distinct_streams=len(self.stream_keys),
            child_overhead_ns=child_overhead_ns,
        )


def measure_child_overhead_ns(calls=20000, samples=5):
    """Time the recorder adds to a parent span per traced child, in ns.

    The wrapper's bookkeeping around a child runs outside the child's own
    start and end, so it lands in the parent's self time. This measures it
    on an empty child; the median over ``samples`` batches is returned.
    """
    rec = Recorder()
    child = rec.wrap("child", lambda: None)

    def parent():
        for _ in range(calls):
            child()

    traced_parent = rec.wrap("parent", parent)
    for _ in range(samples):
        traced_parent()
    table = rec.table()
    per_child = table.self_ns[table.mask("parent")] / calls
    return float(np.median(per_child))


class SpanTable:
    """Finished spans with derived durations and self times (ns)."""

    def __init__(self, names, span_id, name_id, parent, start, end, work,
                 distinct_streams=0, child_overhead_ns=0.0):
        self.names = names
        self.span_id = span_id
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.work = work
        self.distinct_streams = distinct_streams
        self.duration = end - start
        # children of one parent run on its thread, one after another, so the
        # part of a span they cover is the sum of their durations
        has_parent = parent >= 0
        parent_idx = np.searchsorted(span_id, parent[has_parent])
        child_ns = np.zeros(len(span_id), dtype=np.int64)
        np.add.at(child_ns, parent_idx, self.duration[has_parent])
        self.child_ns = child_ns
        self.n_children = np.bincount(parent_idx, minlength=len(span_id))
        # the recorder's own cost per child is charged to no one
        self.self_ns = np.maximum(
            self.duration - child_ns - self.n_children * child_overhead_ns, 0.0
        )

    def mask(self, name):
        if name not in self.names:
            return np.zeros(len(self.span_id), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name):
        return int(self.mask(name).sum())

    def total_s(self, name):
        return float(self.duration[self.mask(name)].sum()) / 1e9

    def self_s(self, name):
        return float(self.self_ns[self.mask(name)].sum()) / 1e9

    def work_sum(self, name):
        return float(self.work[self.mask(name)].sum())

    def leaf_calls(self, name):
        """Calls of ``name`` that opened no child span."""
        return int((self.mask(name) & (self.n_children == 0)).sum())

    def uncovered_s(self, window_name, inner_names):
        """Time inside ``window_name`` spans covered by no ``inner_names`` span.

        Inner spans may run on other threads, so coverage is the union of
        their intervals, clipped to each window.
        """
        inner = np.zeros(len(self.span_id), dtype=bool)
        for name in inner_names:
            inner |= self.mask(name)
        starts, ends = self.start[inner], self.end[inner]
        total = 0
        for w in np.nonzero(self.mask(window_name))[0]:
            lo, hi = self.start[w], self.end[w]
            s = np.clip(starts, lo, hi)
            e = np.clip(ends, lo, hi)
            keep = e > s
            s, e = s[keep], e[keep]
            order = np.argsort(s, kind="stable")
            s, e = s[order], e[order]
            covered = 0
            if len(s):
                reach = np.maximum.accumulate(e)
                prev = np.concatenate(([lo], reach[:-1]))
                covered = int(np.maximum(e - np.maximum(s, prev), 0).sum())
            total += (hi - lo) - covered
        return total / 1e9

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            span_id=self.span_id,
            name_id=self.name_id,
            parent=self.parent,
            start=self.start,
            end=self.end,
            work=self.work,
        )
