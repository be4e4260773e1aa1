"""Flat-stream event backend: a thin driver over the simulation kernel.

The replay backend keeps one task in flight, which makes cluster-level
quantities — queueing delay, makespan, node utilization — unobservable.
This backend runs the same unified discrete-event kernel
(:mod:`repro.sim.kernel`) with every task arriving on its own schedule:

- every task *arrives* at the time assigned by a pluggable
  :class:`~repro.sim.arrivals.ArrivalModel` — a fixed inter-arrival
  gap (the default of 0 models a batch submission of the whole trace),
  a Poisson process, or bursty scatter-gather submissions, with all
  stochastic draws taken from the backend's seeded RNG;
- arrived tasks wait in the kernel's FCFS ready queue, in
  submission-index order;
- the kernel's scheduling pass sizes each dispatch wave via
  :meth:`~repro.sim.interface.MemoryPredictor.predict_batch` (in chunks
  of :data:`~repro.sim.backends.base.PREDICTION_CHUNK`), places onto
  :class:`~repro.cluster.manager.ResourceManager` nodes via the
  manager's placement policy, kills under-allocated tasks at
  ``time_to_failure`` of their runtime, and re-queues them re-sized
  with the doubling-factor escalation floor;
- :class:`~repro.sim.kernel.collectors.ClusterMetricsCollector` records
  every dispatch's queue wait, per-node allocation timelines, and the
  makespan into :class:`~repro.sim.results.ClusterMetrics`;
- scheduled node drains (``node_outage="start:duration:node"``) pause
  placement on a node and preempt its running tasks — a kernel-level
  scenario shared verbatim with the DAG engine.

Wastage is accounted by the same kernel collector as in the replay
backend; for a predictor that does not learn online the two backends
produce the same ledger totals, while the event backend additionally
reports the cluster-level metrics.

All of the execution semantics live in
:class:`~repro.sim.kernel.core.SimulationKernel`; this module
contributes the *flat* notion of arrival via :class:`FlatStreamDriver`,
and :class:`EventDrivenBackend`, which holds every event option and
builds the kernel for both the flat and the DAG
(:mod:`repro.sched.engine`) driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.cluster.manager import ResourceManager
from repro.errors import ConfigError
from repro.sim.arrivals import (
    ArrivalModel,
    FixedArrivals,
    WorkflowArrivals,
    parse_arrival,
    parse_workflow_arrival,
)
from repro.sim.interface import MemoryPredictor
from repro.sim.kernel.collectors import (
    ClusterMetricsCollector,
    WorkflowMetricsCollector,
)
from repro.sim.kernel.core import SimulationKernel, TaskState
from repro.sim.kernel.events import ARRIVAL
from repro.sim.kernel.outage import NodeOutage, parse_node_outages
from repro.sim.results import SimulationResult
from repro.workflow.task import TaskInstance, WorkflowTrace
from repro.workload.base import WorkloadSource, as_source

__all__ = ["EventDrivenBackend", "FlatStreamDriver"]


class FlatStreamDriver:
    """Kernel driver for a flat, pre-ordered task stream.

    Nothing is released on success — the stream has no dependencies,
    only submission times.  :meth:`seed` draws the run's whole arrival
    schedule once with the model's ``sample(n, rng)`` — n floats, not
    n events — and pushes only the first arrival.  The heap then holds
    one pending arrival: its payload is the next task's state, and
    :meth:`on_arrival` builds the state after it from the source and
    pushes its arrival before handing the popped one to the kernel.  A
    same-time arrival pushed during a wave pops in that wave, so tasks
    arrive, and are queued, in submission-index order.  One pending
    arrival cannot honour a schedule that decreases, so a model whose
    ``sample`` breaks the :class:`~repro.sim.arrivals.ArrivalModel`
    contract is refused with a :class:`~repro.errors.ConfigError`.

    A source that cannot report its length (``n_tasks is None``: a JSONL
    trace at full scale) is materialized with ``source.trace()`` first,
    so every source gets the same schedule and can be sharded.

    Sharding (``shard`` of ``shards``): only tasks whose global
    submission index is congruent to ``shard`` are built — every kept
    task has exactly the arrival time and index it has in the unsharded
    run.

    A checkpoint keeps the count of states built so far; the schedule
    and the shard-sliced task iterator are rebuilt from the seed and the
    source on the first arrival after a resume.
    """

    def __init__(
        self,
        arrival: ArrivalModel,
        seed: int,
        *,
        shard: int = 0,
        shards: int = 1,
    ) -> None:
        self.arrival = arrival
        self.rng_seed = seed
        self.shard = shard
        self.shards = shards
        self.n_tasks = 0
        #: Tasks in the whole source — the length of the schedule.
        self._n_source = 0
        #: Shard-local count of task states built so far (the pending
        #: arrival's included).
        self._consumed = 0
        #: The shard's arrival times and its live task iterator; never
        #: pickled — rebuilt by :meth:`_rebuild` after a resume.
        self._times: list[float] | None = None
        self._tasks: Iterator[TaskInstance] | None = None
        self._kernel: SimulationKernel | None = None

    def seed(self, kernel: SimulationKernel) -> None:
        source = kernel.source
        n = source.n_tasks
        if n is None:
            n = len(source.trace())
        self._kernel = kernel
        self._n_source = n
        self.n_tasks = len(range(self.shard, n, self.shards))
        self._rebuild()
        self._push_next()

    def _rebuild(self) -> None:
        """Draw the schedule and slice the task stream past ``_consumed``.

        One vectorized draw for the whole source, so sharded and
        resumed runs see the exact arrival times of the unsharded run.
        """
        kernel = self._kernel
        assert kernel is not None
        rng = np.random.default_rng(self.rng_seed)
        schedule = np.asarray(
            self.arrival.sample(self._n_source, rng), dtype=np.float64
        )
        if not np.all(schedule[1:] >= schedule[:-1]):
            raise ConfigError(
                f"arrival model {self.arrival.name!r} sampled times that "
                f"decrease; ArrivalModel.sample must return them "
                f"non-decreasing"
            )
        self._times = schedule[self.shard :: self.shards].tolist()
        self._tasks = islice(
            kernel.source.iter_tasks(),
            self.shard + self._consumed * self.shards,
            None,
            self.shards,
        )

    def _push_next(self) -> None:
        """Build the next task's state and push its arrival, if any.

        State assembly bypasses the dataclass constructor with
        ``object.__new__`` + direct slot stores (all non-identity fields
        are defaults) — one state per task on the arrival hot path.
        """
        k = self._consumed
        if k == self.n_tasks:
            return
        if self._tasks is None:
            self._rebuild()
        inst = next(self._tasks, None)
        if inst is None:
            return  # the source yielded fewer tasks than it reported
        self._consumed = k + 1
        arrival = self._times[k]
        state = object.__new__(TaskState)
        state.inst = inst
        state.instance_id = inst.instance_id
        state.index = self.shard + k * self.shards
        state.arrival = arrival
        state.wi = None
        state.allocation = None
        state.first_allocation = None
        state.attempt = 0
        state.queued_at = 0.0
        state.running = None
        state.dispatch_gen = 0
        state.priority = 0
        self._kernel.events.push(arrival, ARRIVAL, state)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Rebuilt from the seed, the source and ``_consumed``.
        state["_times"] = state["_tasks"] = None
        return state

    def on_arrival(self, payload: object, now: float) -> Iterable[TaskState]:
        self._push_next()
        return (payload,)

    def on_success(self, state: TaskState, now: float) -> Iterable[TaskState]:
        return ()

    def finish(self, kernel: SimulationKernel) -> None:
        pass


@dataclass(frozen=True)
class EventDrivenBackend:
    """Concurrent execution on a shared cluster with FCFS queueing.

    The one place event-simulation options live: every field below is
    validated and normalized once, here, and :meth:`build_kernel` builds
    every event :class:`~repro.sim.kernel.core.SimulationKernel`, flat
    or DAG.  Derive a variant with :func:`dataclasses.replace`.

    Parameters
    ----------
    arrival:
        Arrival model: a spec string (``"fixed:0.25"``,
        ``"poisson:0.5"``, ``"bursty:8x0.5"``) or an
        :class:`~repro.sim.arrivals.ArrivalModel` instance, stored
        parsed.  ``None`` (default) submits the whole trace at once —
        a batch workload whose concurrency is limited purely by cluster
        memory.  The flat driver draws the run's schedule once (a
        workload that cannot report its length is materialized first)
        and refuses one that decreases.
    seed:
        Seed of the backend's private RNG, which drives every stochastic
        arrival draw — a fixed seed makes the whole simulation
        deterministic.
    dag:
        Switches the backend into DAG-aware scheduling
        (:mod:`repro.sched`): tasks are released only when their DAG
        predecessors' instances succeeded.  ``"trace"`` uses the
        :attr:`~repro.workflow.task.WorkflowTrace.dag` exported by the
        trace generator, ``"linear"`` chains task types in
        first-appearance order, or pass a
        :class:`~repro.workflow.dag.WorkflowDAG` directly.  ``None``
        (default) keeps the flat pre-ordered task stream.
    workflow_arrival:
        Multi-workflow injection (implies DAG-aware scheduling, using
        the trace's DAG unless ``dag`` is given): a spec such as ``"4"``,
        ``"4@poisson:2"``, ``"6@bursty:2x0.5@tenants:3"`` or a
        :class:`~repro.sim.arrivals.WorkflowArrivals` — whole workflow
        instances from different tenants contending for one cluster.
    node_outage:
        Scheduled node drain windows — one spec string
        (``"start:duration:node"``), a
        :class:`~repro.sim.kernel.outage.NodeOutage`, or a list of
        either; stored as a tuple of :class:`NodeOutage`.  Applied
        identically in flat and DAG modes.
    stream_collectors:
        Streaming-collector mode: collectors keep online aggregates and
        quantile sketches instead of per-task logs, timelines, and
        outcome lists — memory stays bounded at million-task scale.  The
        result carries a ``summary`` (identical to the exact run's) but
        no raw ``predictions`` / ``cluster`` / ``workflows`` sections.
    spill:
        Optional JSONL path; every prediction log is appended there in
        completion order, with or without ``stream_collectors``.
    shard / shards:
        Run only slice ``shard`` of ``shards`` of the workload — flat
        tasks by global submission index, DAG workflow instances by copy
        number — with arrival schedules and ids matching the unsharded
        run.  The sharded grid runner (:mod:`repro.sim.runner`) merges
        the per-shard summaries.  In a sharded DAG run, prediction-log
        timestamps are dense within the shard, not global.
    profile:
        Enable the kernel phase profiler (:mod:`repro.obs.profile`):
        ``result.profile`` carries per-phase wall-time/call counters.
        Measurement only — never changes results.
    trace / trace_limit:
        Write a Chrome ``trace_event`` JSON timeline of the run to the
        ``trace`` path (:class:`~repro.obs.trace.TraceCollector`);
        ``trace_limit`` bounds the retained events with a ring buffer
        for million-task runs.

    The kernel sizes queued tasks :data:`~repro.sim.backends.base.
    PREDICTION_CHUNK` at a time and re-sizes a killed task to at least
    :data:`~repro.sim.backends.base.DOUBLING_FACTOR` times its failed
    allocation, as it does for the replay backend.
    """

    name = "event"

    arrival: str | ArrivalModel | None = None
    seed: int = 0
    dag: object | None = None
    workflow_arrival: str | int | WorkflowArrivals | None = None
    node_outage: str | NodeOutage | Sequence[str | NodeOutage] | None = None
    stream_collectors: bool = False
    spill: str | None = None
    shard: int = 0
    shards: int = 1
    profile: bool = False
    trace: str | None = None
    trace_limit: int | None = None

    def __post_init__(self) -> None:
        if self.shards < 1 or not 0 <= self.shard < self.shards:
            raise ConfigError(
                f"shard must satisfy 0 <= shard < shards, got "
                f"shard={self.shard} shards={self.shards}"
            )
        arrival = parse_arrival(
            FixedArrivals(0.0) if self.arrival is None else self.arrival
        )
        workflow_arrival = (
            None
            if self.workflow_arrival is None
            else parse_workflow_arrival(self.workflow_arrival)
        )
        if self.dag is not None or workflow_arrival is not None:
            # DAG scheduling releases tasks as dependencies resolve;
            # a task-level arrival model would be silently ignored, so
            # reject the combination instead of picking a winner.
            if not (
                isinstance(arrival, FixedArrivals)
                and arrival.interval_hours == 0.0
            ):
                raise ConfigError(
                    "dag/workflow_arrival replace the per-task arrival "
                    "model; drop arrival (workflow arrivals carry their "
                    "own fixed/poisson/bursty spec)"
                )
        if self.trace_limit is not None and self.trace is None:
            # The limit bounds the trace file's ring buffer; with no
            # file it would bound nothing.
            raise ConfigError("trace_limit needs a trace path")
        object.__setattr__(self, "arrival", arrival)
        object.__setattr__(self, "workflow_arrival", workflow_arrival)
        object.__setattr__(
            self, "node_outage", parse_node_outages(self.node_outage)
        )

    def build_kernel(
        self,
        workload: "WorkloadSource | WorkflowTrace | str",
        predictor: MemoryPredictor,
        manager: ResourceManager,
        time_to_failure: float,
    ) -> SimulationKernel:
        """Assemble (but do not run) this backend's configured kernel.

        The checkpoint and sharding seam: callers that need pause/resume
        drive the returned kernel via
        :func:`repro.sim.kernel.checkpoint.drive_kernel` instead of
        calling :meth:`run`.
        """
        collectors: list = [
            ClusterMetricsCollector(stream=self.stream_collectors)
        ]
        if self.dag is None and self.workflow_arrival is None:
            driver = FlatStreamDriver(
                self.arrival, self.seed, shard=self.shard, shards=self.shards
            )
        else:
            # DAG-aware scheduling plugs its own driver into the same
            # kernel; flat runs never import it.
            from repro.sched.engine import DagWorkflowDriver, resolve_dag

            workload = as_source(workload)
            # A missing or mismatched DAG fails here with resolve_dag's
            # error rather than deep inside the run.
            resolve_dag(self.dag, workload.trace())
            driver = DagWorkflowDriver(
                self.dag,
                self.workflow_arrival or WorkflowArrivals(),
                self.seed,
                shard=self.shard,
                shards=self.shards,
            )
            collectors.append(WorkflowMetricsCollector(driver.workflows))
        if self.trace is not None:
            from repro.obs.trace import TraceCollector

            collectors.append(
                TraceCollector(self.trace, limit=self.trace_limit)
            )
        return SimulationKernel(
            workload,
            predictor,
            manager,
            time_to_failure,
            driver=driver,
            collectors=collectors,
            outages=self.node_outage,
            stream_collectors=self.stream_collectors,
            spill=self.spill,
            profile=self.profile,
        )

    def run(
        self,
        workload: "WorkloadSource | WorkflowTrace | str",
        predictor: MemoryPredictor,
        manager: ResourceManager,
        time_to_failure: float,
    ) -> SimulationResult:
        result = self.build_kernel(
            workload, predictor, manager, time_to_failure
        ).run()
        assert result is not None
        return result
