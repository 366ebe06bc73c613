"""Span recording by wrapping the program's functions where it looks
them up, plus self-time and percentile arithmetic.

A span records name, start, end, parent, thread, worker, epoch and batch.
The parent is the enclosing span on the same thread. A span's self time
is its duration minus the part of its interval that its children cover;
children on another thread run concurrently and are never subtracted.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    worker: int | None = None
    epoch: int | None = None
    batch: int | None = None
    items: int | None = None  # work done by the call, e.g. rows pulled

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Keeps spans in memory; `wrap` replaces one attribute with a timed
    wrapper and `unwrap_all` puts every original back."""

    def __init__(self):
        self.spans: list[Span] = []
        self.thread_names: dict[int, str] = {}
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()
        self._wrapped: list[tuple[object, str, object]] = []

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.tid = next(self._threads)
            st.worker = None
            st.unassigned = []  # this thread's spans recorded before its worker was known
            st.current = (None, None)  # last (epoch, batch) seen on this thread
            self.thread_names[st.tid] = threading.current_thread().name
        return st

    def wrap(self, owner, attr: str, name: str, context=None) -> None:
        """Time every call of owner.attr as span `name`.

        `context(args, kwargs, result)` may return a dict with any of
        worker, epoch, batch and items; it runs after the call returns.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            span = Span(next(tracer._ids), name, 0, 0,
                        st.stack[-1].id if st.stack else None, st.tid)
            st.stack.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                st.stack.pop()
            # a call that raised fails the run; its span is not kept
            tracer._finish(st, span, context(args, kwargs, result) if context else {})
            return result

        setattr(owner, attr, wrapper)
        self._wrapped.append((owner, attr, fn))

    def _finish(self, st, span: Span, ctx: dict) -> None:
        if ctx.get("worker") is not None and st.worker is None:
            st.worker = ctx["worker"]
            for s in st.unassigned:
                s.worker = st.worker
            st.unassigned.clear()
        span.worker = st.worker
        span.items = ctx.get("items")
        if span.worker is None:
            st.unassigned.append(span)
        if ctx.get("epoch") is not None:
            span.epoch, span.batch = ctx["epoch"], ctx.get("batch")
            st.current = (span.epoch, span.batch)
        elif span.parent is None:
            span.epoch, span.batch = st.current
        self.spans.append(span)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._wrapped):
            setattr(owner, attr, fn)
        self._wrapped.clear()

    def resolved(self) -> list[Span]:
        """Spans by id, children inheriting epoch and batch from parents."""
        spans = sorted(self.spans, key=lambda s: s.id)
        by_id = {s.id: s for s in spans}
        for s in spans:  # a parent's id is always lower than its child's
            p = by_id.get(s.parent)
            if s.epoch is None and p is not None:
                s.epoch, s.batch = p.epoch, p.batch
        return spans


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time in ns per span id: duration minus the union of the
    intervals of same-thread children, clipped to the span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        hi = s.start_ns
        kids = sorted((c for c in children.get(s.id, ()) if c.thread == s.thread),
                      key=lambda c: c.start_ns)
        for c in kids:
            a, b = max(c.start_ns, hi), min(c.end_ns, s.end_ns)
            if b > a:
                covered += b - a
                hi = b
        out[s.id] = s.dur_ns - covered
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Median, p90 and the sample count, plus the highest percentile that
    has at least ten samples beyond it (None below 20 samples)."""
    xs = list(values)
    if not xs:
        return {"n": 0, "p50": 0.0, "p90": 0.0, "tail": None}
    tail = None
    for q in (50, 90, 99, 99.9):
        if len(xs) * (100 - q) / 100.0 >= 10:
            tail = q
    return {"n": len(xs), "p50": percentile(xs, 50), "p90": percentile(xs, 90),
            "tail": tail, "tail_value": percentile(xs, tail) if tail else None}


def chrome_trace(spans: list[Span], thread_names: dict[int, str]) -> dict:
    """Chrome Trace Event JSON: one process per worker (setup is pid 0)."""
    events = []
    self_ns = self_times(spans)
    seen = set()
    for s in spans:
        pid = 0 if s.worker is None else s.worker + 1
        if pid not in seen:
            seen.add(pid)
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "args": {"name": "setup" if pid == 0 else f"worker {pid - 1}"}})
        if (pid, s.thread) not in seen:
            seen.add((pid, s.thread))
            events.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": s.thread,
                           "args": {"name": thread_names.get(s.thread, str(s.thread))}})
        events.append({
            "ph": "X", "name": s.name, "pid": pid, "tid": s.thread,
            "ts": s.start_ns / 1000.0, "dur": s.dur_ns / 1000.0,
            "args": {"id": s.id, "parent": s.parent, "worker": s.worker,
                     "epoch": s.epoch, "batch": s.batch,
                     "self_us": self_ns[s.id] / 1000.0},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_spans(path, spans: list[Span], thread_names: dict[int, str]) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(spans, thread_names), f)
