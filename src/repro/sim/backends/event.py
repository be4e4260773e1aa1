"""Flat-stream event backend: a thin driver over the simulation kernel.

The replay backend executes one task at a time, which makes
cluster-level quantities — queueing delay, makespan, node utilization —
unobservable.  This backend runs the same predictor contract through the
unified discrete-event kernel (:mod:`repro.sim.kernel`) instead:

- every task *arrives* at the time assigned by a pluggable
  :class:`~repro.sim.arrivals.ArrivalModel` — a fixed inter-arrival
  gap (the default of 0 models a batch submission of the whole trace),
  a Poisson process, or bursty scatter-gather submissions, with all
  stochastic draws taken from the backend's seeded RNG;
- arrived tasks wait in a FCFS queue ordered by submission index;
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

Wastage accounting is attempt-for-attempt identical to the replay
backend; for a predictor that does not learn online the two backends
produce the same ledger totals, while the event backend additionally
reports the cluster-level metrics.

All of the execution semantics live in
:class:`~repro.sim.kernel.core.SimulationKernel`; this module
contributes the *flat* notion of arrival and priority via
:class:`FlatStreamDriver`, and :class:`EventDrivenBackend`, which holds
every event option and builds the kernel for both the flat and the
DAG (:mod:`repro.sched.engine`) driver.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from repro.cluster.manager import ResourceManager
from repro.errors import ConfigError
from repro.sim.arrivals import (
    ArrivalModel,
    FixedArrivals,
    WorkflowArrivals,
    iter_arrival_times,
    parse_arrival,
    parse_workflow_arrival,
)
from repro.sim.interface import MemoryPredictor
from repro.sim.kernel.collectors import (
    ClusterMetricsCollector,
    WorkflowMetricsCollector,
)
from repro.sim.kernel.core import SimulationKernel, TaskState, consume_unsized
from repro.sim.kernel.events import ARRIVAL
from repro.sim.kernel.outage import NodeOutage, parse_node_outages
from repro.sim.results import SimulationResult
from repro.workflow.task import WorkflowTrace
from repro.workload.base import WorkloadSource, as_source

__all__ = ["EventDrivenBackend", "FlatStreamDriver"]


class _FlatQueue:
    """FCFS ready queue ordered by submission index.

    Besides the main heap, a plain append-list tracks queued states that
    still need sizing, consumed through a cursor — O(1) per push and per
    pop, no heap sift at all.  The list *is* index-sorted because of two
    kernel invariants: states enter the queue unsized only on arrival
    (kill/preempt requeues are always already sized), and flat arrivals
    are handled in strictly increasing submission-index order (the event
    calendar pops same-time arrivals in schedule order).  Every state
    :meth:`unsized` returns is sized immediately by the caller, so
    consumed entries never come back; an entry whose state was sized as
    part of an earlier wave is simply skipped.  The consumed prefix is
    compacted once it dominates the list, keeping memory O(pending)
    (:func:`~repro.sim.kernel.core.consume_unsized`, shared with the DAG
    scheduler's list of fresh releases).
    """

    __slots__ = ("_heap", "_unsized", "_upos", "order")

    def __init__(self) -> None:
        self._heap: list[tuple[int, TaskState]] = []
        self._unsized: list[TaskState] = []
        self._upos = 0
        #: Kernel-internal contract (shared with ``_DagQueue``): the live
        #: heap list itself.  Entries sort FCFS and end with the state,
        #: so the kernel peeks ``order[0][-1]`` and pops with ``heappop``.
        self.order = self._heap

    def push(self, state: TaskState) -> None:
        heapq.heappush(self._heap, (state.index, state))
        if state.allocation is None:
            self._unsized.append(state)

    def unsized(self, limit: int) -> list[TaskState]:
        wave, self._upos = consume_unsized(self._unsized, self._upos, limit)
        return wave

    def requeue(self, state: TaskState) -> None:
        # A re-queued task re-enters at its original priority.
        self.push(state)


class FlatStreamDriver:
    """Kernel driver for a flat, pre-ordered task stream.

    Nothing is released on success — the stream has no dependencies,
    only submission times — and each arrival is pushed onto the FCFS
    :class:`_FlatQueue`.  The schedule comes from the arrival model's
    vectorized ``sample(n, rng)`` for sized sources and the
    draw-for-draw-identical ``times(rng)`` iterator for unsized
    (streaming) ones — the same schedule either way, so trace files and
    streams replay identically.

    **Scheduled arrivals** (sized sources): the whole (sharded)
    arrival timetable is bulk-loaded into the event calendar's columnar
    scheduled lane at seed time — no payloads, no per-event heap sift —
    and the task states themselves are prebuilt in blocks of
    :data:`_BLOCK` as arrivals drain, assembled straight from the
    workload iterator with ``object.__new__`` + direct slot stores.
    Each popped arrival takes the next prebuilt state; stream order *is*
    schedule order, which is what the old one-pending-arrival lazy
    machinery relied on anyway.  A custom arrival model whose sampled
    times are not non-decreasing (violating the
    :class:`~repro.sim.arrivals.ArrivalModel` contract) is caught by
    ``schedule_batch``'s validation and falls back to eager per-event
    pushes through the dynamic lane, which re-sorts them.

    Sharding (``shard`` of ``shards``, sized sources only): only tasks
    whose global submission index is congruent to ``shard`` are
    materialized — every kept task has exactly the arrival time and
    index it has in the unsharded run.
    """

    #: Task states prebuilt per refill of the scheduled-arrival path.
    _BLOCK = 256

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
        self.queue = _FlatQueue()
        self.n_tasks = 0
        #: Shard-local count of tasks pulled from the source so far
        #: (including those still waiting in ``_block``).
        self._consumed = 0
        #: Prebuilt task states in *reverse* schedule order (pop() takes
        #: the next arrival); refilled from the source in _BLOCK chunks.
        self._block: list[TaskState] = []
        #: Live shard-sliced task iterator; never pickled — rebuilt
        #: deterministically from ``_consumed`` after a resume.
        self._tasks: "Iterable | None" = None
        self._kernel: SimulationKernel | None = None

    def seed(self, kernel: SimulationKernel) -> None:
        source = kernel.source
        n = source.n_tasks
        if n is not None:
            self._kernel = kernel
            self.n_tasks = len(range(self.shard, n, self.shards))
            # One vectorized draw for the full schedule (n floats, not n
            # events) so sharded and resumed runs all see the exact
            # arrival times of the unsharded run.
            rng = np.random.default_rng(self.rng_seed)
            schedule = np.ascontiguousarray(
                self.arrival.sample(n, rng), dtype=np.float64
            )
            try:
                kernel.events.schedule_batch(
                    schedule[self.shard :: self.shards], ARRIVAL
                )
            except ValueError:
                # Contract-violating custom model (unsorted times):
                # push each arrival through the dynamic lane instead,
                # whose heap restores the time order.
                times = schedule.tolist()
                events = kernel.events
                shard, shards = self.shard, self.shards
                for k, inst in enumerate(source.iter_tasks()):
                    if k % shards != shard:
                        continue
                    state = TaskState(
                        inst=inst,
                        instance_id=inst.instance_id,
                        index=k,
                        arrival=times[k],
                    )
                    events.push(state.arrival, ARRIVAL, state)
                self._consumed = self.n_tasks
            return
        if self.shards != 1:
            raise ConfigError(
                "sharded flat runs require a sized workload source "
                f"(source {source.name!r} does not report n_tasks)"
            )
        rng = np.random.default_rng(self.rng_seed)
        try:
            times = iter_arrival_times(self.arrival, rng)
            tasks = source.iter_tasks()
        except ValueError:
            # The model cannot stream: materialize to learn the
            # count, then schedule exactly as the sized path would.
            materialized = list(source.iter_tasks())
            times = iter(self.arrival.sample(len(materialized), rng))
            tasks = iter(materialized)
        count = 0
        for timestamp, (inst, arrival_time) in enumerate(zip(tasks, times)):
            state = TaskState(
                inst=inst,
                instance_id=inst.instance_id,
                index=timestamp,
                arrival=float(arrival_time),
            )
            kernel.events.push(state.arrival, ARRIVAL, state)
            count += 1
        self.n_tasks = count

    # ------------------------------------------------------------------
    # batched state assembly (sized sources, scheduled arrivals)
    # ------------------------------------------------------------------
    def _refill(self) -> None:
        """Prebuild the next block of task states from the source.

        One ``islice`` drain per block instead of one generator resume
        per arrival; state assembly bypasses the dataclass constructor
        with ``object.__new__`` + direct slot stores (all non-identity
        fields are defaults).  ``arrival`` is stamped when the scheduled
        event pops — the popped timestamp *is* this task's sampled
        arrival time.
        """
        it = self._tasks
        if it is None:
            assert self._kernel is not None
            it = self._tasks = islice(
                self._kernel.source.iter_tasks(),
                self.shard + self._consumed * self.shards,
                None,
                self.shards,
            )
        index = self.shard + self._consumed * self.shards
        shards = self.shards
        new = object.__new__
        block: list[TaskState] = []
        append = block.append
        for inst in islice(it, self._BLOCK):
            state = new(TaskState)
            state.inst = inst
            state.instance_id = inst.instance_id
            state.index = index
            state.arrival = 0.0
            state.wi = None
            state.allocation = None
            state.first_allocation = None
            state.attempt = 0
            state.queued_at = 0.0
            state.running = None
            state.dispatch_gen = 0
            append(state)
            index += shards
        self._consumed += len(block)
        block.reverse()
        self._block = block

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_tasks"] = None  # live iterator; rebuilt from _consumed
        return state

    def on_arrival(self, payload: object, now: float) -> Iterable[TaskState]:
        if payload is None:
            # Scheduled-lane arrival: take the next prebuilt state.
            block = self._block
            if not block:
                self._refill()
                block = self._block
                if not block:
                    # Source yielded fewer tasks than n_tasks promised —
                    # match the old zip() truncation semantics.
                    return ()
            state = block.pop()
            state.arrival = now
        else:
            state = payload
        self.queue.push(state)
        return (state,)

    def on_success(self, state: TaskState, now: float) -> Iterable[TaskState]:
        return ()

    def finish(self, kernel: SimulationKernel) -> None:
        pass


@dataclass(frozen=True)
class EventDrivenBackend:
    """Concurrent execution on a shared cluster with FCFS queueing.

    The one place event-simulation options live: every field below is
    validated and normalized once, here, and :meth:`build_kernel` is the
    only builder of a :class:`~repro.sim.kernel.core.SimulationKernel`.
    Derive a variant with :func:`dataclasses.replace`.

    Parameters
    ----------
    arrival:
        Arrival model: a spec string (``"fixed:0.25"``,
        ``"poisson:0.5"``, ``"bursty:8x0.5"``) or an
        :class:`~repro.sim.arrivals.ArrivalModel` instance, stored
        parsed.  ``None`` (default) submits the whole trace at once —
        a batch workload whose concurrency is limited purely by cluster
        memory.
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
    allocation — the replay backend's factor, so the two stay
    attempt-for-attempt identical.
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
