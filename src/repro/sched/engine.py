"""DAG-aware scheduling: a workflow driver over the simulation kernel.

The flat event backend consumes a pre-ordered task stream, so memory
sizing can never feed back into *workflow* makespan — there is no
workflow, only tasks.  This engine closes that gap: it injects whole
:class:`~repro.sched.instance.WorkflowInstance`\\ s via a
:class:`~repro.sim.arrivals.WorkflowArrivals` model, hands a task to the
kernel's FCFS ready queue only when all of its DAG predecessors'
instances have succeeded (each instance tracks its own dependency
state; a killed-and-requeued task holds its successors back until its
retry lands), and attributes
queue wait, wastage, and failures to each workflow instance — producing
the :class:`~repro.sim.results.WorkflowMetrics` (per-workflow makespan,
critical-path lower bound, stretch) that show how better memory sizing
shortens workflows, not just wastage.

Execution semantics are not re-implemented here: the clock, event heap,
dispatch/placement pass, chunked ``predict_batch`` sizing, kill at
``time_to_failure``, doubling-factor re-sizing, wastage formulas, and
node-drain scenarios all come from the shared
:class:`~repro.sim.kernel.core.SimulationKernel` — the same code the
flat backend runs — so with a linear-chain DAG, a single workflow
instance, and a non-learning predictor the per-task results reproduce
the flat stream's exactly, by construction rather than by vigilance.
This module contributes only the DAG notions of arrival (whole
instances, one heap event per copy) and release (dependency resolution)
via :class:`DagWorkflowDriver`, which
:class:`~repro.sim.backends.event.EventDrivenBackend` plugs into the
kernel when ``dag=`` or ``workflow_arrival=`` is set.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigError
from repro.sched.instance import WorkflowInstance
from repro.sim.arrivals import WorkflowArrivals
from repro.sim.kernel.core import SimulationKernel, TaskState
from repro.sim.kernel.events import ARRIVAL
from repro.workflow.dag import WorkflowDAG
from repro.workflow.task import WorkflowTrace
from repro.workload.base import WorkloadSource

__all__ = ["resolve_dag", "DagWorkflowDriver"]


def resolve_dag(dag: object | None, trace: WorkflowTrace) -> WorkflowDAG:
    """Resolve a ``dag=`` option against a trace.

    - ``None`` / ``"trace"`` — the DAG the trace generator exported on
      :attr:`WorkflowTrace.dag` (one dependency source of truth between
      generation and scheduling);
    - ``"linear"`` — a chain over the trace's task types in
      first-appearance order;
    - a :class:`WorkflowDAG` — used as-is; every task type occurring in
      the trace must be one of its nodes.
    """
    if dag is None or dag == "trace":
        if trace.dag is None:
            raise ConfigError(
                f"trace {trace.workflow!r} carries no DAG; generate it via "
                f"generate_trace (which exports the spec's DAG) or pass "
                f"dag='linear' / an explicit WorkflowDAG"
            )
        resolved = trace.dag
    elif dag == "linear":
        resolved = WorkflowDAG.linear_pipeline(
            [t.name for t in trace.task_types]
        )
    elif isinstance(dag, WorkflowDAG):
        resolved = dag
    else:
        raise ConfigError(
            f"dag must be None, 'trace', 'linear', or a WorkflowDAG, "
            f"got {dag!r}"
        )
    missing = {t.name for t in trace.task_types} - set(resolved.nodes)
    if missing:
        raise ConfigError(
            f"DAG is missing task types present in trace "
            f"{trace.workflow!r}: {sorted(missing)}"
        )
    return resolved


def _instantiate_workflows(
    source: WorkloadSource,
    dag_option: object | None,
    arrivals: WorkflowArrivals,
    rng: np.random.Generator,
    *,
    shard: int = 0,
    shards: int = 1,
) -> list[WorkflowInstance]:
    """Draw arriving workflow instances from a workload source.

    The source's traces are consumed in order; when it yields fewer
    traces than ``arrivals.n_instances``, the produced ones are reused
    round-robin — a single-trace source (every synthetic workload)
    therefore replicates exactly as before.  Every copy shares its
    trace's frozen task instances; copy ``k``'s ``id_offset`` moves the
    *original* instance ids past all earlier copies' id ranges
    (``k * stride`` for a single-trace source, stride = largest trace
    id + 1), so reported ids stay globally unique yet joinable back to
    the source trace — copy 0 preserves them exactly, even for
    subsampled traces with sparse ids.  Each copy gets its sampled
    submit time, a round-robin tenant, and its trace's resolved DAG.

    Sharding (``shard`` of ``shards``): only copies with
    ``k % shards == shard`` are materialized, but the arrival schedule,
    trace round-robin, and id-offset accounting run over *all* copies —
    a sharded instance therefore has exactly the submit time, tenant,
    and task ids it would have in the unsharded run, which is what makes
    shard merges meaningful.
    """
    times = arrivals.sample(rng)
    trace_iter: "object | None" = source.iter_traces()
    produced: list[WorkflowTrace] = []
    resolved: dict[int, WorkflowDAG] = {}
    instances: list[WorkflowInstance] = []
    id_offset = 0
    for k in range(arrivals.n_instances):
        trace: WorkflowTrace | None = None
        if trace_iter is not None:
            trace = next(trace_iter, None)  # type: ignore[arg-type]
            if trace is None:
                trace_iter = None
            else:
                produced.append(trace)
        if trace is None:
            if not produced:
                raise ConfigError(
                    f"workload source {source.name!r} yielded no traces"
                )
            trace = produced[k % len(produced)]
        offset = id_offset
        id_offset += 1 + max((t.instance_id for t in trace), default=0)
        if k % shards != shard:
            continue
        if id(trace) not in resolved:
            resolved[id(trace)] = resolve_dag(dag_option, trace)
        instances.append(
            WorkflowInstance(
                key=f"{trace.workflow}#{k}",
                workflow=trace.workflow,
                dag=resolved[id(trace)],
                tasks=list(trace),
                submit_time=float(times[k]),
                tenant=arrivals.tenant(k),
                id_offset=offset,
            )
        )
    return instances


class DagWorkflowDriver:
    """Kernel driver that releases tasks as DAG dependencies resolve.

    Arrival events carry whole :class:`WorkflowInstance`\\ s; a task's
    success may satisfy its type and release downstream types' instances
    into the ready queue.  ``workflows`` is populated during
    :meth:`seed` and shared (by reference) with the
    :class:`~repro.sim.kernel.collectors.WorkflowMetricsCollector`.
    """

    def __init__(
        self,
        dag: object | None,
        arrivals: WorkflowArrivals,
        seed: int,
        *,
        shard: int = 0,
        shards: int = 1,
    ) -> None:
        #: Raw ``dag=`` option; resolved per produced trace during
        #: :meth:`seed` (multi-trace sources may carry distinct DAGs).
        self.dag = dag
        self.arrivals = arrivals
        self.rng_seed = seed
        #: This driver's shard of the instance stream (copy ``k`` belongs
        #: to shard ``k % shards``); the default is the whole stream.
        self.shard = shard
        self.shards = shards
        self.workflows: list[WorkflowInstance] = []
        #: copy key -> {trace instance id: state}, one dict per copy.
        self._states: dict[str, dict[int, TaskState]] = {}
        self.n_tasks = 0

    def seed(self, kernel: SimulationKernel) -> None:
        rng = np.random.default_rng(self.rng_seed)
        self.workflows.extend(
            _instantiate_workflows(
                kernel.source,
                self.dag,
                self.arrivals,
                rng,
                shard=self.shard,
                shards=self.shards,
            )
        )
        self.n_tasks = sum(wi.n_tasks for wi in self.workflows)
        offset = 0
        new = object.__new__
        for wi in self.workflows:
            # ``index`` is the dense submission position (copy k owns
            # the positions past all earlier copies' tasks) — the flat
            # backends' timestamp convention — while instance ids are
            # the trace's, shifted by the copy's offset.  In a sharded
            # run the positions are dense *within the shard*.  State
            # assembly bypasses the dataclass constructor
            # (``object.__new__`` + direct stores — one state per task,
            # seed hot path at million-task scale).
            submit = wi.submit_time
            id_offset = wi.id_offset
            states = {}
            for i, t in enumerate(wi.tasks, offset):
                state = new(TaskState)
                state.inst = t
                state.instance_id = t.instance_id + id_offset
                state.index = i
                state.arrival = submit
                state.wi = wi
                state.allocation = None
                state.first_allocation = None
                state.attempt = 0
                state.queued_at = 0.0
                state.running = None
                state.dispatch_gen = 0
                state.priority = 0
                states[t.instance_id] = state
            self._states[wi.key] = states
            offset += wi.n_tasks
        # The heap orders submit times, sorted or not; equal ones keep
        # copy order.
        for wi in self.workflows:
            kernel.events.push(wi.submit_time, ARRIVAL, wi)

    def on_arrival(self, payload: object, now: float) -> Iterable[TaskState]:
        wi = payload
        assert isinstance(wi, WorkflowInstance)
        states = self._states[wi.key]
        released = [states[t.instance_id] for t in wi.release_roots()]
        if wi.done:  # a workflow with no tasks finishes on arrival
            wi.finish_time = now
        return released

    def on_success(self, state: TaskState, now: float) -> Iterable[TaskState]:
        # Dependency bookkeeping: this success may satisfy the task's
        # type and release downstream types' instances.
        wi = state.wi
        assert wi is not None
        released = wi.complete(state.inst.task_type.name)
        if released:
            states = self._states[wi.key]
            released = [states[t.instance_id] for t in released]
        if wi.done:
            wi.finish_time = now
        return released

    def finish(self, kernel: SimulationKernel) -> None:
        unfinished = [wi.key for wi in self.workflows if not wi.done]
        if unfinished:  # engine invariant, not a user-facing condition
            raise RuntimeError(
                f"DAG simulation ended with unfinished workflow instances: "
                f"{unfinished}"
            )
