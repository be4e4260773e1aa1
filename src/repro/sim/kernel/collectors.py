"""Pluggable metrics collectors for the simulation kernel.

The kernel executes the sizing lifecycle; *what gets measured* is the
business of composable :class:`MetricsCollector` objects that observe
the run through six callbacks and then attach their findings to the
:class:`~repro.sim.results.SimulationResult`:

- ``on_run_start`` — once, on the reset cluster;
- ``on_ready`` — a task entered the ready queue;
- ``on_dispatch`` — an attempt was placed on a node;
- ``on_attempt_end`` — an attempt freed its node slice, with its
  outcome: :data:`SUCCESS`, :data:`KILL` (it exceeded its allocation)
  or :data:`PREEMPT` (a node drain; no sizing fault);
- ``on_outage`` — a node's drain window opened or fully closed;
- ``contribute`` — once, when the run finishes.

The three inline accumulations of the pre-kernel engines are ordinary
collectors:

- :class:`WastageCollector` — the wastage ledger and per-task prediction
  logs (always installed; it produces the core of the result schema);
- :class:`ClusterMetricsCollector` — queue waits, per-node busy memory
  and allocation timelines (:class:`~repro.sim.results.ClusterMetrics`);
- :class:`WorkflowMetricsCollector` — per-workflow-instance accounting
  for the DAG engine (:class:`~repro.sim.results.WorkflowMetrics`).

The wastage collector keeps the hot path to an append: it buffers one
compact row per success or kill and folds the rows, in completion
order, every :data:`FOLD_ROWS` rows and at ``contribute`` — one
accounting path for exact, streaming and spill runs.  The cluster
collector folds its queue waits the same way.  The chunking never shows
in a result: sketches take each chunk through
:meth:`~repro.sim.sketches.QuantileSketch.extend`, which is
bit-identical to per-value ``add``.  The makespan is the kernel's; it
reaches the collectors as ``result.summary.makespan_hours``.

Custom collectors subclass :class:`BaseCollector` (all callbacks are
no-ops) and are passed to the kernel via ``collectors=[...]``; the
kernel only calls the per-event callbacks a collector overrides.  Each
callback sees the kernel's unified
:class:`~repro.sim.kernel.core.TaskState`.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.cluster.accounting import WastageLedger
from repro.cluster.machine import Machine
from repro.cluster.manager import ResourceManager
from repro.sim.backends.base import build_cluster_metrics
from repro.sim.results import (
    LOG_FIELDS,
    SimulationResult,
    WorkflowInstanceMetrics,
    WorkflowMetrics,
)
from repro.sim.sketches import QuantileSketch, RunningStat

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.instance import WorkflowInstance
    from repro.sim.kernel.core import TaskState

__all__ = [
    "FOLD_ROWS",
    "SUCCESS",
    "KILL",
    "PREEMPT",
    "MetricsCollector",
    "BaseCollector",
    "WastageCollector",
    "ClusterMetricsCollector",
    "WorkflowMetricsCollector",
]

_MB_PER_GB = 1024.0

#: Rows a collector buffers before it folds them into its aggregates.
#: Results do not depend on it; it bounds a streaming run's memory.
FOLD_ROWS = 4096

#: ``on_attempt_end`` outcomes (also the Chrome-trace span categories).
SUCCESS = "success"
KILL = "kill"
PREEMPT = "preempt"


@runtime_checkable
class MetricsCollector(Protocol):
    """Observes one kernel run and contributes metrics to the result.

    Callbacks fire in deterministic simulation order; collectors must
    not mutate task states or cluster state — they measure.
    """

    def on_run_start(self, manager: ResourceManager) -> None:
        """The run is about to start on ``manager``'s (reset) cluster."""
        ...

    def on_ready(self, state: "TaskState", now: float) -> None:
        """``state`` entered the ready queue (arrival, requeue, preempt)."""
        ...

    def on_dispatch(
        self, state: "TaskState", now: float, node: Machine, wait_hours: float
    ) -> None:
        """``state`` was placed on ``node`` after ``wait_hours`` queued."""
        ...

    def on_attempt_end(
        self,
        state: "TaskState",
        now: float,
        node: Machine,
        allocated_mb: float,
        occupied_hours: float,
        outcome: str,
    ) -> None:
        """``state``'s attempt freed its slice of ``node``.

        ``outcome`` is :data:`SUCCESS`, :data:`KILL` or :data:`PREEMPT`.
        ``state.attempt`` is still the ended attempt's number, also for
        a preemption (which then hands the attempt back).
        """
        ...

    def on_outage(self, node_id: int, now: float, active: bool) -> None:
        """A node's drain window opened (``active``) or fully closed."""
        ...

    def contribute(self, result: SimulationResult) -> None:
        """Attach this collector's metrics to the finished ``result``."""
        ...


class BaseCollector:
    """No-op implementation of every :class:`MetricsCollector` callback."""

    def on_run_start(self, manager: ResourceManager) -> None:
        pass

    def on_ready(self, state, now) -> None:
        pass

    def on_dispatch(self, state, now, node, wait_hours) -> None:
        pass

    def on_attempt_end(
        self, state, now, node, allocated_mb, occupied_hours, outcome
    ) -> None:
        pass

    def on_outage(self, node_id, now, active) -> None:
        pass

    def contribute(self, result: SimulationResult) -> None:
        pass


class WastageCollector(BaseCollector):
    """The paper's core accounting: wastage ledger + prediction logs.

    The kernel installs one unconditionally — the result schema is built
    from its ledger and logs — but it is an ordinary collector: the same
    callbacks, no privileged access to the engine.

    ``on_attempt_end`` appends one compact row per success or kill;
    :meth:`_fold` accounts the rows in completion order — ledger,
    summary aggregates, logs — every :data:`FOLD_ROWS` rows and at
    :meth:`contribute`.  Every mode runs that one fold:

    - exact (the default) keeps the per-task :class:`PredictionLog` rows
      and the ledger's per-attempt outcome list;
    - ``keep_logs=False`` drops both; only the running aggregates and
      quantile sketches survive, so memory stays O(task types), not
      O(tasks);
    - ``spill=path`` appends every folded prediction log to a JSONL file
      (one JSON object per line, keys in
      :data:`~repro.sim.results.LOG_FIELDS` order — the exact
      ``asdict(PredictionLog)`` shape — in completion order), so full
      logs remain available on disk even with ``keep_logs=False``.  A
      checkpoint records the file's byte offset and pickles the unfolded
      rows; resume truncates the file back to the offset, so an
      interrupted run never leaves duplicate lines.

    The summary aggregates (wastage / turnaround sketches, first-attempt
    over-allocation ratio) see the same values in the same order in
    every mode, so streaming and exact runs report identical summaries.
    """

    def __init__(
        self, keep_logs: bool = True, spill: "str | None" = None
    ) -> None:
        self.keep_logs = keep_logs
        self.ledger = WastageLedger(keep_outcomes=keep_logs)
        # Compact per-task rows in :data:`LOG_FIELDS` order, completion-
        # ordered; the result materializes the sorted
        # :class:`~repro.sim.results.PredictionLog` view lazily.
        self.logs: list[tuple] = []
        self.spill = str(spill) if spill is not None else None
        self._spill_fh = None
        self._spill_offset = 0
        self._first_ratio_sum = 0.0
        self._first_ratio_n = 0
        self._wastage_sketch = QuantileSketch()
        self._turnaround_sketch = QuantileSketch()
        # Unfolded attempt ends: (state, now, allocated) for successes,
        # (state, attempt, allocated, occupied) for kills — a killed
        # task's attempt is captured now, because the state mutates
        # when the task is dispatched again.
        self._rows: list[tuple] = []

    def on_attempt_end(
        self, state, now, node, allocated_mb, occupied_hours, outcome
    ) -> None:
        rows = self._rows
        if outcome == SUCCESS:
            rows.append((state, now, allocated_mb))
        elif outcome == KILL:
            rows.append((state, state.attempt, allocated_mb, occupied_hours))
        else:
            return  # a drain charges nothing
        if len(rows) >= FOLD_ROWS:
            self._fold()

    def _fold(self) -> None:
        """Account the buffered rows in completion order."""
        rows = self._rows
        if not rows:
            return
        self._rows = []
        ledger = self.ledger
        keep_rows = self.keep_logs or self.spill is not None
        wastages: list[float] = []
        turnarounds: list[float] = []
        logs: list[tuple] = []
        for row in rows:
            if len(row) == 4:
                state, attempt, allocated_mb, occupied_hours = row
                inst = state.inst
                task_type = inst.task_type
                wastages.append(
                    ledger.record_failure(
                        task_type.name,
                        task_type.workflow,
                        state.instance_id,
                        attempt,
                        allocated_mb,
                        inst.peak_memory_mb,
                        occupied_hours,
                    )
                )
                continue
            state, now, allocated_mb = row
            inst = state.inst
            task_type = inst.task_type
            name = task_type.name
            peak = inst.peak_memory_mb
            runtime = inst.runtime_hours
            wastages.append(
                ledger.record_success(
                    name,
                    task_type.workflow,
                    state.instance_id,
                    state.attempt,
                    allocated_mb,
                    peak,
                    runtime,
                )
            )
            turnarounds.append(now - state.arrival)
            first = state.first_allocation
            if first is not None and first >= peak:
                self._first_ratio_sum += first / peak
                self._first_ratio_n += 1
            if keep_rows:
                logs.append(
                    (
                        state.instance_id,
                        name,
                        task_type.workflow,
                        state.index,
                        inst.input_size_mb,
                        peak,
                        runtime,
                        first,
                        state.allocation,
                        state.attempt,
                    )
                )
        self._wastage_sketch.extend(wastages)
        self._turnaround_sketch.extend(turnarounds)
        if self.keep_logs:
            self.logs += logs
        if self.spill is not None and logs:
            self._spill_write(logs)

    def contribute(self, result: SimulationResult) -> None:
        self._fold()
        if self.keep_logs:
            # Hand over the compact rows; the result sorts and builds
            # the PredictionLog view lazily, off the timed run.
            result._prediction_rows = self.logs
        if self._spill_fh is not None:
            self._spill_fh.close()
            self._spill_fh = None
        summary = result.summary
        # One turnaround per successful task.
        summary.n_tasks = self._turnaround_sketch.n
        summary.n_attempts = self.ledger.num_attempts
        summary.n_failures = self.ledger.num_failures
        summary.total_wastage_gbh = self.ledger.total_wastage_gbh
        summary.total_runtime_hours = self.ledger.total_runtime_hours
        summary.wastage_by_task_type = self.ledger.wastage_by_task_type()
        summary.failures_by_task_type = self.ledger.failures_by_task_type()
        summary.first_ratio_sum = self._first_ratio_sum
        summary.first_ratio_n = self._first_ratio_n
        summary.wastage_sketch = self._wastage_sketch
        summary.turnaround_sketch = self._turnaround_sketch

    # ------------------------------------------------------------------
    # JSONL spill sink
    # ------------------------------------------------------------------
    def _spill_write(self, rows: list[tuple]) -> None:
        fh = self._spill_fh
        if fh is None:
            fh = self._spill_open()
        fh.write(
            b"".join(
                json.dumps(
                    dict(zip(LOG_FIELDS, row)), separators=(",", ":")
                ).encode()
                + b"\n"
                for row in rows
            )
        )

    def _spill_open(self):
        assert self.spill is not None
        if self._spill_offset:
            # Resuming from a checkpoint: drop whatever the interrupted
            # run wrote past the checkpointed offset, then continue.
            fh = open(self.spill, "r+b")
            fh.truncate(self._spill_offset)
            fh.seek(self._spill_offset)
        else:
            fh = open(self.spill, "wb")
        self._spill_fh = fh
        return fh

    def __getstate__(self):
        state = self.__dict__.copy()
        fh = state.pop("_spill_fh")
        state["_spill_fh"] = None
        if fh is not None:
            fh.flush()
            state["_spill_offset"] = fh.tell()
        return state


class ClusterMetricsCollector(BaseCollector):
    """Queue waits, per-node busy memory and allocation timelines.

    ``on_dispatch`` records the attempt's queue wait; ``on_attempt_end``
    adds its memory-hours to the node's busy integral.  Both also add a
    timeline point at the node's allocation after the change.  Waits
    fold into a quantile sketch whose running stat is the summary's
    exact count/total/min/max.

    ``stream`` decides two things.  In exact mode the per-dispatch waits
    and the per-node timelines are kept, and the waits fold at
    :meth:`contribute`.  With ``stream=True`` neither is kept: waits
    fold every :data:`FOLD_ROWS` dispatches and only the O(nodes)
    busy-memory integrals survive.  ``result.cluster`` is then left
    ``None`` (there is no exact timeline to report); the cluster section
    of ``result.summary`` carries the scalars instead — with numbers
    identical to an exact run's, since both fold the same waits in the
    same order.
    """

    def __init__(self, stream: bool = False) -> None:
        self.stream = stream
        self._manager: ResourceManager | None = None
        self._queue_waits: list[float] = []
        self._busy_mbh: dict[int, float] = {}
        self._timelines: dict[int, list[tuple[float, float]]] = {}
        self._wait_sketch = QuantileSketch()

    def on_run_start(self, manager: ResourceManager) -> None:
        self._manager = manager
        self._queue_waits = []
        self._busy_mbh = {node.node_id: 0.0 for node in manager.nodes}
        self._timelines = (
            {}
            if self.stream
            else {node.node_id: [(0.0, 0.0)] for node in manager.nodes}
        )
        self._wait_sketch = QuantileSketch()

    def on_dispatch(self, state, now, node, wait_hours) -> None:
        # Every dispatch pays its wait — including re-queues after a
        # kill, which otherwise vanish from the totals.
        waits = self._queue_waits
        waits.append(wait_hours)
        if not self.stream:
            self._timelines[node.node_id].append((now, node.allocated_mb))
        elif len(waits) >= FOLD_ROWS:
            self._wait_sketch.extend(waits)
            waits.clear()

    def on_attempt_end(
        self, state, now, node, allocated_mb, occupied_hours, outcome
    ) -> None:
        self._busy_mbh[node.node_id] += allocated_mb * occupied_hours
        if not self.stream:
            self._timelines[node.node_id].append((now, node.allocated_mb))

    def contribute(self, result: SimulationResult) -> None:
        assert self._manager is not None, "collector never saw on_run_start"
        # Exact mode folds every wait here; streaming folds its tail.
        self._wait_sketch.extend(self._queue_waits)
        summary = result.summary
        makespan = summary.makespan_hours
        if not self.stream:
            result.cluster = build_cluster_metrics(
                self._manager,
                makespan,
                self._queue_waits,
                self._busy_mbh,
                self._timelines,
            )
        caps = self._manager.node_capacities_mb()
        summary.n_nodes = len(caps)
        # A copy: RunSummary.merge folds queue_wait and the sketch's own
        # stat separately.
        summary.queue_wait = RunningStat().merge(self._wait_sketch.stat)
        summary.queue_wait_sketch = self._wait_sketch
        summary.utilization_sum = (
            sum(
                busy / (caps[n] * makespan)
                for n, busy in self._busy_mbh.items()
            )
            if makespan > 0
            else 0.0
        )


class WorkflowMetricsCollector(BaseCollector):
    """Per-workflow-instance accounting for the DAG scheduling engine.

    Accumulates onto each state's :class:`WorkflowInstance` (queue wait,
    wastage attribution, failure counts, first dispatch) and reports the
    :class:`WorkflowMetrics` at the end.  Dependency state — including
    ``finish_time`` — is owned by the DAG driver; this collector only
    measures.  Preemptions charge nothing: wastage attribution must keep
    summing to the ledger, which a drain does not touch.
    """

    def __init__(self, workflows: "list[WorkflowInstance]") -> None:
        self._workflows = workflows

    def on_dispatch(self, state, now, node, wait_hours) -> None:
        wi = state.wi
        if wi is None:
            return
        wi.queue_wait_hours += wait_hours
        if wi.first_dispatch is None:
            wi.first_dispatch = now

    def on_attempt_end(
        self, state, now, node, allocated_mb, occupied_hours, outcome
    ) -> None:
        wi = state.wi
        if wi is None:
            return
        if outcome == SUCCESS:
            inst = state.inst
            wi.wastage_gbh += (
                (allocated_mb - inst.peak_memory_mb)
                / _MB_PER_GB
                * inst.runtime_hours
            )
        elif outcome == KILL:
            wi.wastage_gbh += allocated_mb / _MB_PER_GB * occupied_hours
            wi.n_failures += 1

    def contribute(self, result: SimulationResult) -> None:
        result.workflows = WorkflowMetrics(
            instances=[self._instance_metrics(wi) for wi in self._workflows]
        )
        summary = result.summary
        summary.n_workflow_instances = len(result.workflows.instances)
        for w in result.workflows.instances:
            summary.workflow_makespan.add(w.makespan_hours)
            summary.workflow_stretch.add(w.stretch)
            summary.workflow_queue_wait_hours += w.queue_wait_hours

    @staticmethod
    def _instance_metrics(wi: "WorkflowInstance") -> WorkflowInstanceMetrics:
        finish = (
            wi.finish_time if wi.finish_time is not None else wi.submit_time
        )
        first = (
            wi.first_dispatch
            if wi.first_dispatch is not None
            else wi.submit_time
        )
        makespan = finish - wi.submit_time
        critical_path = wi.critical_path_hours()
        return WorkflowInstanceMetrics(
            key=wi.key,
            workflow=wi.workflow,
            tenant=wi.tenant,
            submit_time_hours=wi.submit_time,
            first_dispatch_hours=first,
            finish_time_hours=finish,
            makespan_hours=makespan,
            critical_path_hours=critical_path,
            stretch=(makespan / critical_path if critical_path > 0 else 1.0),
            queue_wait_hours=wi.queue_wait_hours,
            wastage_gbh=wi.wastage_gbh,
            n_tasks=wi.n_tasks,
            n_failures=wi.n_failures,
        )
