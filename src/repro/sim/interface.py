"""Predictor contract shared by Sizey and every baseline (API v2).

The simulator only ever talks to predictors through this interface, so
all methods play under identical rules: they see a
:class:`TaskSubmission` (no ground truth), return an allocation in MB,
receive a :class:`~repro.provenance.records.TaskRecord` after each
attempt, and are asked for a new allocation after a failure.

API v2 adds two seams on top of the original per-task contract, both
with backwards-compatible defaults so every existing predictor keeps
working unchanged:

- **Batch prediction** — :meth:`MemoryPredictor.predict_batch` sizes a
  whole group of submissions in one call, and it is the one sizing
  path every simulator calls.  A predictor implements either method
  and the base class derives the other: the default ``predict_batch``
  loops over :meth:`~MemoryPredictor.predict`, and the default
  ``predict`` sizes a batch of one.  Sizey and every baseline
  implement only ``predict_batch``, with model queries vectorized per
  pool key, which the event backend exploits when several tasks become
  schedulable at the same instant.
- **Trace lifecycle hooks** — the simulator calls
  :meth:`~MemoryPredictor.begin_trace` with a :class:`TraceContext`
  before the first submission of a trace and
  :meth:`~MemoryPredictor.end_trace` after the last completion.
  Predictors can use these to reset per-trace state, pre-allocate
  buffers, or flush diagnostics; the defaults are no-ops.

The full v2 lifecycle, driven by the simulator backend::

    predictor.begin_trace(context)
    for each scheduling round:
        allocs = predictor.predict_batch(ready_tasks)
        while an attempt fails:
            predictor.observe(failure_record)
            alloc = predictor.on_failure(task, alloc, attempt)
        predictor.observe(success_record)
    predictor.end_trace()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.provenance.records import TaskRecord
from repro.workflow.task import TaskInstance

__all__ = [
    "TaskSubmission",
    "TraceContext",
    "MemoryPredictor",
    "batch_by_group",
]


def batch_by_group(tasks, key_fn, group_sizer) -> np.ndarray:
    """Shared scaffolding for grouped ``predict_batch`` overrides.

    Groups ``tasks`` by ``key_fn(task)`` (preserving submission order
    within each group) and asks ``group_sizer(key, group_tasks)`` for
    the group's allocations — a scalar (broadcast over the group), an
    array of ``len(group_tasks)``, or ``None`` to fall back to each
    task's user preset (the no-history case).  Returns the allocations
    re-assembled in the original task order.
    """
    out = np.empty(len(tasks), dtype=np.float64)
    groups: dict = {}
    for i, task in enumerate(tasks):
        groups.setdefault(key_fn(task), []).append(i)
    for key, idxs in groups.items():
        sized = group_sizer(key, [tasks[i] for i in idxs])
        if sized is None:
            for i in idxs:
                out[i] = tasks[i].preset_memory_mb
        else:
            out[idxs] = np.asarray(sized, dtype=np.float64)
    return out


@dataclass(frozen=True)
class TaskSubmission:
    """The predictor-visible view of a submitted task instance.

    Deliberately excludes ground-truth peak memory and runtime — those
    are only revealed through provenance records after execution.
    """

    task_type: str
    workflow: str
    machine: str
    instance_id: int
    input_size_mb: float
    preset_memory_mb: float
    timestamp: int

    @classmethod
    def from_instance(
        cls, inst: TaskInstance, timestamp: int, instance_id: int | None = None
    ) -> "TaskSubmission":
        """``inst`` as submitted at ``timestamp``, reporting ``instance_id``
        (default: the instance's own; a DAG copy's is shifted)."""
        # Built via __dict__ rather than the generated __init__: frozen
        # dataclasses pay object.__setattr__ per field, and the
        # simulation kernel constructs one submission per sized task.
        sub = object.__new__(cls)
        task_type = inst.task_type
        sub.__dict__.update(
            task_type=task_type.name,
            workflow=task_type.workflow,
            machine=inst.machine,
            instance_id=(
                inst.instance_id if instance_id is None else instance_id
            ),
            input_size_mb=inst.input_size_mb,
            preset_memory_mb=task_type.preset_memory_mb,
            timestamp=timestamp,
        )
        return sub

    @property
    def features(self) -> np.ndarray:
        """Feature vector (shape ``(1, d)``) for model queries."""
        return np.array([[self.input_size_mb]], dtype=np.float64)

    @property
    def pool_key(self) -> tuple[str, str]:
        """(task type, machine) — Sizey's model granularity key."""
        return (self.task_type, self.machine)


@dataclass(frozen=True)
class TraceContext:
    """What a predictor is told about a trace before replaying it.

    Passed to :meth:`MemoryPredictor.begin_trace` by every simulation
    backend.  Contains only simulation-harness facts — never ground
    truth about individual tasks.  ``n_tasks`` is -1 for a streaming
    source that cannot report its length.
    """

    workflow: str
    n_tasks: int
    time_to_failure: float


class MemoryPredictor:
    """Interface every memory-sizing method implements.

    Lifecycle per task instance, driven by the simulator::

        alloc = predictor.predict_batch([task, ...])[0]
        while attempt fails:
            predictor.observe(failure_record)
            alloc = predictor.on_failure(task, alloc, attempt)
        predictor.observe(success_record)

    ``observe`` is the online-learning hook (paper Phase 3); predictors
    that do not learn online simply ignore it.

    A subclass implements :meth:`predict` or :meth:`predict_batch`
    (or both); the base class derives the one it leaves out, and one
    that implements neither cannot be instantiated (``TypeError``).
    :meth:`begin_trace` / :meth:`end_trace` bracket each simulated
    trace.
    """

    #: Human-readable method name used in result tables.
    name: str = "predictor"

    def __new__(cls, *args, **kwargs):
        if (
            cls.predict is MemoryPredictor.predict
            and cls.predict_batch is MemoryPredictor.predict_batch
        ):
            raise TypeError(
                f"cannot instantiate {cls.__name__}: a MemoryPredictor "
                f"implements predict or predict_batch"
            )
        return super().__new__(cls)

    def predict(self, task: TaskSubmission) -> float:
        """Memory allocation (MB) for the first attempt of ``task``.

        The default sizes a batch of one with :meth:`predict_batch`.
        """
        return float(self.predict_batch([task])[0])

    def predict_batch(self, tasks: Sequence[TaskSubmission]) -> np.ndarray:
        """First-attempt allocations (MB) for a group of submissions.

        Returns an array of shape ``(len(tasks),)`` whose ``i``-th entry
        is the allocation for ``tasks[i]``; every simulator sizes
        through this method.  The default delegates to :meth:`predict`
        one task at a time, so a predictor that implements only
        ``predict`` keeps working.  A batch call must be equivalent to
        the loop of single calls (no observations happen between the
        two).
        """
        return np.array(
            [float(self.predict(t)) for t in tasks], dtype=np.float64
        )

    def begin_trace(self, context: TraceContext | None = None) -> None:
        """Lifecycle hook: called once before a trace starts replaying.

        ``context`` describes the upcoming trace (workflow, task count,
        time-to-failure).  Default: no-op.
        """

    def end_trace(self) -> None:
        """Lifecycle hook: called once after the trace finished.

        Runs after the last completion was observed — a natural point to
        flush diagnostics or drop per-trace caches.  Default: no-op.
        """

    def observe(self, record: TaskRecord) -> None:
        """Ingest an execution record (success or failure)."""

    def on_failure(
        self, task: TaskSubmission, failed_allocation_mb: float, attempt: int
    ) -> float:
        """Allocation for the next attempt after a failure.

        Default policy: double the failed allocation (the common
        failure-handling strategy of the Witt baselines).  ``attempt`` is
        the 1-based index of the attempt that just failed.
        """
        return failed_allocation_mb * 2.0
