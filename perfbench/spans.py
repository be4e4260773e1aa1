"""Measurement probes the benchmark installs around the program's layers.

Two probes share one interface, ``probe.call(name, fn, *args)``:

- :class:`LatencyLog` (untraced runs) keeps the wall time of each call
  of the predictor's public operations, so the simulations can report
  predict/observe latency the same way the serving clients do;
- :class:`SpanRecorder` (traced runs) keeps one span per call -- name,
  start, end and parent span -- in memory until the run ends.

:func:`install_slot_spans` wraps the model pool and slot methods (traced
runs only), and :func:`layer_report` turns a span list into per-layer
self times.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro.core.models import KNNSlot, LinearSlot, MLPSlot, RandomForestSlot
from repro.core.pool import ModelPool
from repro.sim.interface import MemoryPredictor

#: The four model families of the paper.
SLOT_CLASSES = (LinearSlot, KNNSlot, MLPSlot, RandomForestSlot)

_now = time.perf_counter_ns


class LatencyLog:
    """Per-operation call durations in nanoseconds."""

    def __init__(self) -> None:
        self.ns: dict[str, list[int]] = defaultdict(list)

    def call(self, name, fn, *args):
        start = _now()
        out = fn(*args)
        self.ns[name].append(_now() - start)
        return out


class SpanRecorder:
    """In-memory spans ``[name, start_ns, end_ns, parent]``.

    The parent is the innermost span open on the calling thread (or
    ``None``), so the server's executor threads each get their own
    nesting.  A parent is always recorded before its children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def call(self, name, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, 0, 0, stack[-1] if stack else None]
        self.spans.append(span)
        stack.append(span)
        span[1] = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = _now()
            stack.pop()

    def rows(self) -> list[list]:
        """The spans with each parent replaced by its index (-1: root)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [name, start, end, -1 if parent is None else index[id(parent)]]
            for name, start, end, parent in self.spans
        ]


class ProbedPredictor(MemoryPredictor):
    """Delegating predictor timing sizing, learning and failure calls.

    With a :class:`SpanRecorder` it also counts the tasks each sizing
    call answers and how many of them got exactly their user preset.
    """

    def __init__(self, inner: MemoryPredictor, probe) -> None:
        self.inner = inner
        self.name = inner.name
        self._call = probe.call
        self._count = isinstance(probe, SpanRecorder)
        self.sized_tasks = 0
        self.preset_tasks = 0

    def predict(self, task):
        return self._call("sizing", self.inner.predict, task)

    def predict_batch(self, tasks):
        return self._call("sizing", self._size, tasks)

    def _size(self, tasks):
        out = self.inner.predict_batch(tasks)
        if self._count:
            self.sized_tasks += len(tasks)
            self.preset_tasks += sum(
                1 for t, est in zip(tasks, out) if est == t.preset_memory_mb
            )
        return out

    def observe(self, record) -> None:
        self._call("learning", self.inner.observe, record)

    def on_failure(self, task, failed_allocation_mb, attempt):
        return self._call(
            "failure", self.inner.on_failure, task, failed_allocation_mb, attempt
        )

    def begin_trace(self, context=None) -> None:
        self.inner.begin_trace(context)

    def end_trace(self) -> None:
        self.inner.end_trace()


def spanned(recorder: SpanRecorder, name: str, fn):
    call = recorder.call

    def wrapper(*args, **kwargs):
        return call(name, fn, *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def install_slot_spans(recorder: SpanRecorder) -> None:
    """Wrap pool and slot methods so every call records a span."""
    for method in ("update", "predict_batch"):
        fn = getattr(ModelPool, method)
        setattr(ModelPool, method, spanned(recorder, f"modelpool.{method}", fn))
    for cls in SLOT_CLASSES:
        for method in ("train_full", "update_incremental", "predict", "predict_one"):
            fn = getattr(cls, method)
            name = f"slot.{cls.class_name}.{method}"
            setattr(cls, method, spanned(recorder, name, fn))


def _slot_label(name: str, parent_label: str | None) -> str:
    """Which pool metric a slot span belongs to, given its parent's."""
    _, cls, method = name.split(".")
    if parent_label is not None and parent_label.startswith("pool."):
        return parent_label  # nested inside train/predict/prequential work
    if method in ("train_full", "update_incremental"):
        return f"pool.{cls}.train"
    if parent_label == "modelpool.update":
        return "pool.prequential"
    return f"pool.{cls}.predict"


def layer_report(rows: list[list]) -> dict:
    """Aggregate :meth:`SpanRecorder.rows` into per-label totals.

    Every span gets a label; a slot span nested inside another slot span
    inherits its ancestor's label, so nested calls count once.  Returns
    ``{label: {"calls", "total_ns", "self_ns"}}`` -- ``total_ns`` sums
    the outermost span of each label only, ``self_ns`` excludes every
    child span's time.
    """
    labels: list[str] = []
    child_ns = [0] * len(rows)
    for name, start, end, parent in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
    )
    for i, (name, start, end, parent) in enumerate(rows):
        parent_label = labels[parent] if parent >= 0 else None
        label = _slot_label(name, parent_label) if name.startswith("slot.") else name
        labels.append(label)
        row = out[label]
        row["self_ns"] += end - start - child_ns[i]
        if label != parent_label:
            row["calls"] += 1
            row["total_ns"] += end - start
    return dict(out)
