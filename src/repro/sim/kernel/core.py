"""The unified discrete-event simulation kernel.

One event loop serves every execution mode — the paper's serial
replay, the flat event backend and the DAG scheduling engine.  The
kernel owns what they share:

- the **clock and typed event heap** (:mod:`repro.sim.kernel.events`)
  with deterministic three-level tie-breaking, and the FCFS
  :class:`ReadyQueue` every ready task waits in;
- the **sizing lifecycle** — size a dispatch wave with one
  :meth:`~repro.sim.interface.MemoryPredictor.predict_batch` call,
  place through the manager's policy, run under the strict limit, kill
  at ``time_to_failure`` of the runtime, re-size with the
  doubling-factor escalation floor, re-queue at original priority;
- the **makespan** (the clock of the last event wave that handled an
  arrival or a completion) and **metrics dispatch** to pluggable
  :class:`~repro.sim.kernel.collectors.MetricsCollector` objects: one
  ``on_attempt_end`` call per attempt end, whatever its outcome;
- kernel-level scenarios such as scheduled **node drains**
  (:mod:`repro.sim.kernel.outage`), available to every driver.

What still differs between modes lives in a :class:`KernelDriver`: how
work *arrives* (per-task arrival times vs. whole workflow instances)
and how completions *release* more work (the serial replay releases the
next task; a flat stream releases nothing; a DAG driver releases
successor tasks).  Drivers only say what becomes ready and when: the
kernel pushes every state they return onto its one :class:`ReadyQueue`,
in the order returned, and dispatches strictly FCFS from its head.
Two backends build kernels:
:class:`~repro.sim.backends.event.EventDrivenBackend` picks the flat or
DAG driver and its collectors, and
:class:`~repro.sim.backends.replay.ReplayBackend` runs the
:class:`~repro.sim.backends.replay.SerialDriver` with the wastage
collector alone.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from repro.cluster.machine import Machine
from repro.cluster.manager import ResourceManager
from repro.errors import ConfigError
from repro.obs.profile import KernelProfile, PhaseTimer
from repro.provenance.records import TaskRecord
from repro.sim.backends.base import (
    DOUBLING_FACTOR,
    MAX_ATTEMPTS,
    PREDICTION_CHUNK,
    clamp_allocation_checked,
)
from repro.sim.interface import MemoryPredictor, TaskSubmission, TraceContext
from repro.sim.kernel.collectors import (
    KILL,
    PREEMPT,
    SUCCESS,
    BaseCollector,
    MetricsCollector,
    WastageCollector,
)
from repro.sim.kernel.events import (
    ARRIVAL,
    COMPLETION,
    OUTAGE_END,
    OUTAGE_START,
    EventHeap,
)
from repro.sim.kernel.outage import NodeOutage, parse_node_outages
from repro.sim.results import RunSummary, SimulationResult
from repro.workflow.task import TaskInstance, WorkflowTrace
from repro.workload.base import WorkloadSource, as_source

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.instance import WorkflowInstance

__all__ = [
    "TaskState",
    "ReadyQueue",
    "KernelDriver",
    "SimulationKernel",
]

#: Young-generation collection threshold while :meth:`SimulationKernel.run`
#: runs (the interpreter's default is 700).  A run keeps every task's
#: state alive and allocates tuples on every event, so at the default
#: the middle and full collections traverse that live state over and
#: over and find nothing to free: a 74k-task DAG run spent a fifth of
#: its wall time there.  Reference cycles a predictor makes are still
#: collected during the run, just in larger batches.
GC_YOUNG_THRESHOLD = 7000


@dataclass(slots=True)
class TaskState:
    """Unified per-task bookkeeping shared by every kernel driver.

    Slotted: the kernel allocates one of these per task instance and
    reads/writes its fields on every lifecycle transition, so the dict
    per instance was measurable at bench scale.  The predictor's
    :class:`~repro.sim.interface.TaskSubmission` is not kept here: the
    kernel builds it from ``inst``, ``instance_id`` and ``index`` when
    it sizes or re-sizes the task.
    """

    #: Ground truth; every DAG copy of a trace shares its instances.
    inst: TaskInstance
    #: The id every record, log, ledger row, span and error reports:
    #: ``inst.instance_id`` shifted past earlier DAG copies' id ranges.
    instance_id: int
    #: Dense submission position — the prediction-log timestamp.
    index: int
    #: Arrival time (hours); meaningful in flat mode.
    arrival: float = 0.0
    #: Owning workflow instance; ``None`` outside DAG mode.
    wi: "WorkflowInstance | None" = None
    allocation: float | None = None
    first_allocation: float | None = None
    attempt: int = 0
    #: When the task last entered the ready queue (arrival, re-queue
    #: after a kill, or preemption); every dispatch charges
    #: ``now - queued_at`` as queue wait.
    queued_at: float = 0.0
    #: (node, task_id, allocated_mb, start_time) while executing.
    running: tuple[Machine, int, float, float] | None = None
    #: Incremented on every dispatch and preemption; completion events
    #: carry the value at dispatch time, so a preempted attempt's
    #: in-flight completion is recognized as stale and dropped.
    dispatch_gen: int = 0
    #: FCFS dispatch priority: the :class:`ReadyQueue`'s push count at
    #: the state's first push; a requeue reuses it.
    priority: int = 0


class ReadyQueue:
    """The kernel's ready queue: every ready task waits here, FCFS.

    A heap of ``(priority, state)`` entries.  :meth:`push` enters a
    fresh state with the next value of a push counter as its priority;
    :meth:`requeue` (after a kill or a drain preemption) re-enters a
    state at the priority it was first pushed with, ahead of everything
    pushed since.  A state has at most one entry, so priorities are
    unique while queued and the heap never compares two states.

    Fresh states are also appended to a plain list read through a
    cursor (:meth:`unsized`): the push counter only grows, so that list
    is already in heap order.  The kernel's dispatch pass peeks
    ``_heap[0][1]`` and pops with :func:`heapq.heappop` directly.
    """

    __slots__ = ("_heap", "_unsized", "_upos", "_pushed")

    def __init__(self) -> None:
        self._heap: list[tuple[int, TaskState]] = []
        #: Every fresh state once, in push order; read from ``_upos``
        #: on and compacted by :meth:`unsized`.
        self._unsized: list[TaskState] = []
        self._upos = 0
        self._pushed = 0

    def push(self, state: TaskState) -> None:
        """Enter a fresh state behind everything queued so far."""
        priority = self._pushed
        self._pushed = priority + 1
        state.priority = priority
        heapq.heappush(self._heap, (priority, state))
        self._unsized.append(state)

    def requeue(self, state: TaskState) -> None:
        """Re-enter ``state`` at its original dispatch priority."""
        heapq.heappush(self._heap, (state.priority, state))

    def unsized(self, limit: int) -> list[TaskState]:
        """The next ``limit`` fresh states still unsized, FCFS order.

        Entries are *consumed*: the caller sizes every returned state at
        once and a sized state never loses its allocation, so a state
        returned here never comes back, and one already sized is
        skipped.  Requeued states are always sized and never enter
        here.  Once the consumed prefix dominates the list it is
        deleted (the cursor returns to 0), keeping the list O(queued).
        """
        pending = self._unsized
        pos = self._upos
        wave: list[TaskState] = []
        n = len(pending)
        while pos < n and len(wave) < limit:
            state = pending[pos]
            pos += 1
            if state.allocation is None:
                wave.append(state)
        if pos > 512 and pos * 2 > n:
            del pending[:pos]
            pos = 0
        self._upos = pos
        return wave

    def __len__(self) -> int:
        return len(self._heap)


class KernelDriver(Protocol):
    """Mode-specific behaviour plugged into the kernel.

    After :meth:`seed` the driver exposes ``n_tasks`` (total task
    instances of the run, reported to the predictor's trace context;
    -1 when the source cannot report its length).
    The kernel pushes the states :meth:`on_arrival` and
    :meth:`on_success` return onto its :class:`ReadyQueue`, in order.
    """

    n_tasks: int

    def seed(self, kernel: "SimulationKernel") -> None:
        """Build the run's first states and push its arrival events."""
        ...

    def on_arrival(self, payload: object, now: float) -> Iterable[TaskState]:
        """Handle one arrival event; returns the states made ready."""
        ...

    def on_success(self, state: TaskState, now: float) -> Iterable[TaskState]:
        """Propagate a success; returns the states it makes ready."""
        ...

    def finish(self, kernel: "SimulationKernel") -> None:
        """Post-loop invariant checks (e.g. no unfinished workflows)."""
        ...


class SimulationKernel:
    """One event loop for every simulation mode.

    Parameters
    ----------
    workload:
        Where tasks come from: a
        :class:`~repro.workload.base.WorkloadSource`, a materialized
        :class:`~repro.workflow.task.WorkflowTrace`, or a workload spec
        string — normalized through
        :func:`~repro.workload.base.as_source`.  Drivers pull tasks and
        whole workflow instances from the source lazily; the source
        also names the workflow in results and the predictor's trace
        context.
    predictor / manager / time_to_failure:
        The standard backend contract
        (:class:`~repro.sim.backends.base.SimulatorBackend`).
    driver:
        Mode-specific arrival/release behaviour (:class:`KernelDriver`).
    collectors:
        Extra :class:`MetricsCollector` instances; a
        :class:`WastageCollector` is always installed first (the result
        schema is built from it).
    outages:
        Scheduled node drain windows
        (:class:`~repro.sim.kernel.outage.NodeOutage` or spec strings);
        each pauses placement on its node and preempts the attempts
        running there.
    stream_collectors:
        Streaming-collector mode: the always-installed
        :class:`WastageCollector` drops its per-task log and outcome
        lists, keeping only online aggregates and sketches — memory
        stays bounded at million-task scale.  The result then carries a
        ``summary`` but empty ``predictions``.
    spill:
        Optional JSONL path; every prediction log is appended there in
        completion order (works with or without ``stream_collectors``).
    profile:
        Enable the kernel phase profiler: per-phase wall-time/call
        counters (:class:`~repro.obs.profile.KernelProfile`) attached to
        the result as ``result.profile``.  Measurement only — results
        are bit-for-bit identical with profiling on or off.  When off
        (the default) the loop skips every lap on an ``is not None``
        check, so the hot path never reads the clock.

    The kernel sizes queued tasks :data:`~repro.sim.backends.base.
    PREDICTION_CHUNK` at a time, so online learning from earlier
    completions still reaches later tasks, and re-sizes a killed task
    to at least :data:`~repro.sim.backends.base.DOUBLING_FACTOR` times
    its failed allocation.  Both go through the one clamp,
    :func:`~repro.sim.backends.base.clamp_allocation_checked`, which
    refuses a task no node can host and a NaN request.  Placement goes
    through :meth:`ResourceManager.try_place` and each attempt's
    reservation through :meth:`Machine.allocate`.
    """

    def __init__(
        self,
        workload: WorkloadSource | WorkflowTrace | str,
        predictor: MemoryPredictor,
        manager: ResourceManager,
        time_to_failure: float,
        *,
        driver: KernelDriver,
        collectors: Sequence[MetricsCollector] = (),
        outages: Sequence[NodeOutage | str] = (),
        stream_collectors: bool = False,
        spill: str | None = None,
        profile: bool = False,
    ) -> None:
        self.source = as_source(workload)
        self.predictor = predictor
        self.manager = manager
        self.time_to_failure = time_to_failure
        self.driver = driver
        self.stream_collectors = stream_collectors
        self.wastage = WastageCollector(
            keep_logs=not stream_collectors, spill=spill
        )
        self.collectors: tuple[MetricsCollector, ...] = (
            self.wastage,
            *collectors,
        )
        # Per-callback dispatch lists: only collectors that actually
        # override a per-event callback get the call.  Every fire site
        # then loops a (usually short or empty) tuple of genuine
        # subscribers instead of fanning no-ops out to every collector —
        # at bench scale the no-op fan-out was a top-five cost.
        def _overrides(name: str) -> tuple[MetricsCollector, ...]:
            base = getattr(BaseCollector, name)
            return tuple(
                c
                for c in self.collectors
                if getattr(type(c), name, None) is not base
            )

        self._ready_collectors = _overrides("on_ready")
        self._dispatch_collectors = _overrides("on_dispatch")
        self._end_collectors = _overrides("on_attempt_end")
        self._outage_collectors = _overrides("on_outage")
        # ``MemoryPredictor.observe`` defaults to a no-op; when the
        # predictor doesn't override it the kernel skips building the
        # per-completion TaskRecord entirely.
        self._observe = (
            getattr(type(predictor), "observe", None)
            is not MemoryPredictor.observe
            or "observe" in getattr(predictor, "__dict__", {})
        )
        self.outages = parse_node_outages(outages)
        #: Per-phase wall-time accounting; ``None`` unless ``profile=True``.
        self.profile: KernelProfile | None = (
            KernelProfile() if profile else None
        )
        self._timer: PhaseTimer | None = (
            PhaseTimer(self.profile) if self.profile is not None else None
        )

        self.events = EventHeap()
        #: Every ready task, FCFS; drivers never touch it.
        self.queue = ReadyQueue()
        self.now = 0.0
        #: Clock of the last event wave that handled an arrival or a
        #: completion; handed to the collectors as
        #: ``result.summary.makespan_hours``.
        self.makespan = 0.0
        #: Set once the run has been seeded; a resumed kernel skips the
        #: seeding/begin_trace phase and picks the loop back up.
        self._started = False
        #: node_id -> number of currently open drain windows.
        self._drained: dict[int, int] = {}
        #: task_id -> state, insertion-ordered (= dispatch order).
        self._running: dict[int, TaskState] = {}

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> SimulationResult | None:
        """Run the simulation; returns the result, or ``None`` if paused.

        ``until`` pauses the loop at a clock boundary: every event batch
        with time <= ``until`` is processed, then the kernel returns
        ``None`` with its full state intact — ready to be
        :meth:`checkpoint`-ed and later resumed (or simply run again).
        Calling ``run()`` on a paused or resumed kernel continues where
        it left off and is bit-for-bit identical to an uninterrupted
        run.

        For the whole call the young-generation collection threshold is
        :data:`GC_YOUNG_THRESHOLD`; the caller's ``gc.get_threshold()``
        comes back on every exit.  A caller who switched automatic
        collection off (threshold 0) or set a higher threshold keeps it.
        """
        thresholds = gc.get_threshold()
        raise_young = 0 < thresholds[0] < GC_YOUNG_THRESHOLD
        if raise_young:
            gc.set_threshold(GC_YOUNG_THRESHOLD, *thresholds[1:])
        try:
            return self._run(until)
        finally:
            if raise_young:
                gc.set_threshold(*thresholds)

    def _run(self, until: float | None) -> SimulationResult | None:
        timer = self._timer
        if timer is None:
            if not self._started:
                self._start()
            if not self._loop(until, None):
                return None
            return self._finalize()
        timer.start()
        try:
            if not self._started:
                self._start()
                timer.lap("seed")
            if not self._loop(until, timer):
                return None
            result = self._finalize()
            timer.lap("finalize")
        finally:
            timer.stop()
        result.profile = self.profile
        return result

    def _start(self) -> None:
        known = {node.node_id for node in self.manager.nodes}
        for outage in self.outages:
            if outage.node_id not in known:
                raise ConfigError(
                    f"node outage {outage.spec!r} names unknown node "
                    f"{outage.node_id}; cluster has nodes {sorted(known)}"
                )
        self.manager.release_all()
        self.driver.seed(self)
        for outage in self.outages:
            self.events.push(outage.start_hours, OUTAGE_START, outage)
            self.events.push(outage.end_hours, OUTAGE_END, outage)
        self.predictor.begin_trace(
            TraceContext(
                workflow=self.source.workflow,
                n_tasks=self.driver.n_tasks,
                time_to_failure=self.time_to_failure,
            )
        )
        for collector in self.collectors:
            collector.on_run_start(self.manager)
        self._started = True

    def _loop(self, until: float | None, timer: PhaseTimer | None) -> bool:
        """Process event waves; False when paused by ``until``.

        This is the kernel's hottest code.  It reads the
        :class:`~repro.sim.kernel.events.EventHeap` raw: the wave clock
        is ``heap[0][0]``, and every event sharing it is popped with
        :func:`heapq.heappop` as one wave, including events pushed while
        the wave runs (a flat run's next arrival at the same instant).
        Arrivals go to the driver, a completion within its limit is
        released (:meth:`_release`) and reported, one over its limit is
        killed (:meth:`_kill`), and a wave that handled an arrival or a
        completion moves the makespan to its clock (stale completions
        and outage transitions do not count).  Every state the driver
        returns as ready is pushed onto the kernel's
        :class:`ReadyQueue`.  The dispatch pass then starts queued heads
        strictly FCFS: it sizes the next chunk of unsized tasks when the
        head has no allocation, asks :meth:`ResourceManager.try_place`
        for a node, and reserves the allocation with
        :meth:`Machine.allocate`.  Every mutable container aliased here
        (event heap, ready heap, ``_drained``, ``_running``) is
        identity-stable for the whole run — mutated in place, never
        rebound.

        ``timer`` is the run's :class:`~repro.obs.profile.PhaseTimer`,
        or ``None`` when profiling is off.  Every ``timer.lap(phase)``
        sits behind ``if timer is not None:`` and only reads the clock,
        so results are bit-for-bit the same either way (pinned by the
        golden profiler tests, which also pin each phase's lap count).
        A lap charges the interval since the previous one, so phase
        totals tile the loop's wall time:

        - ``heap``     — per-wave clock advance and loop control;
        - ``wave``     — per-event pop (the profile's ``n_events``
          counts these pops, the BENCH events/sec denominator);
        - ``arrival``  — driver arrival handling and the ready-queue
          push (incl. on_ready);
        - ``success``  — completion within limit: release,
          ``on_attempt_end`` fan-out, ``predictor.observe``, successor
          release;
        - ``kill``     — limit exceeded: release, ``on_attempt_end``
          fan-out, observe, re-size with escalation floor, requeue;
        - ``outage``   — drain open/close incl. preemptions;
        - ``collect``  — per-dispatch collector fan-out, and the
          per-wave makespan update;
        - ``size``     — ``predict_batch`` sizing waves and their clamp;
        - ``place``    — the placement policy call
          (:meth:`ResourceManager.try_place`);
        - ``dispatch`` — task id, :meth:`Machine.allocate` and the
          completion push.

        A stale completion takes no lap; its time goes to the next one.
        :meth:`run` charges ``seed`` and ``finalize`` around the loop.
        """
        profile = self.profile
        events = self.events
        heap = events._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        driver = self.driver
        on_arrival = driver.on_arrival
        on_success = driver.on_success
        # Bound-method tuples: the per-call attribute lookup inside the
        # collector fan-out loops was measurable at bench scale.
        ready_calls = tuple(c.on_ready for c in self._ready_collectors)
        dispatch_calls = tuple(c.on_dispatch for c in self._dispatch_collectors)
        observe = self._observe
        queue = self.queue
        ready = queue._heap
        enqueue = queue.push
        take_unsized = queue.unsized
        manager = self.manager
        try_place = manager.try_place
        next_task_id = manager.next_task_id
        drained = self._drained
        running = self._running
        time_to_failure = self.time_to_failure
        predictor = self.predictor
        predict_batch = predictor.predict_batch
        submission = TaskSubmission.from_instance
        record = TaskRecord.from_attempt
        clamp = clamp_allocation_checked
        release = self._release
        kill = self._kill
        while heap:
            now = heap[0][0]
            if until is not None and now > until:
                return False
            self.now = now
            if timer is not None:
                timer.lap("heap")
            handled = False
            while heap and heap[0][0] == now:
                _, kind, _, payload = heappop(heap)
                if timer is not None:
                    profile.n_events += 1
                    timer.lap("wave")
                if kind == COMPLETION:
                    state, gen = payload
                    run = state.running
                    if gen != state.dispatch_gen or run is None:
                        continue  # preempted attempt; completion is stale
                    inst = state.inst
                    if run[2] >= inst.peak_memory_mb:
                        allocated, _ = release(state, now, SUCCESS)
                        if observe:
                            predictor.observe(
                                record(
                                    inst,
                                    state.index,
                                    peak_memory_mb=inst.peak_memory_mb,
                                    runtime_hours=inst.runtime_hours,
                                    success=True,
                                    attempt=state.attempt,
                                    allocated_mb=allocated,
                                    instance_id=state.instance_id,
                                )
                            )
                        for released in on_success(state, now):
                            released.queued_at = now
                            enqueue(released)
                            for call in ready_calls:
                                call(released, now)
                        if timer is not None:
                            timer.lap("success")
                    else:
                        kill(state, now)
                        if timer is not None:
                            timer.lap("kill")
                elif kind == ARRIVAL:
                    for state in on_arrival(payload, now):
                        state.queued_at = now
                        enqueue(state)
                        for call in ready_calls:
                            call(state, now)
                    if timer is not None:
                        timer.lap("arrival")
                else:
                    if kind == OUTAGE_END:
                        self._end_outage(payload, now)
                    else:  # OUTAGE_START
                        self._start_outage(payload, now)
                    if timer is not None:
                        timer.lap("outage")
                    continue  # drains don't extend the measured makespan
                handled = True
            if handled:
                # Wave times are non-decreasing, so the makespan is just
                # the last counted wave's clock.
                self.makespan = now
                if timer is not None:
                    timer.lap("collect")
            # Dispatch pass: size, place, and start queued heads FCFS.
            while ready:
                head = ready[0][1]
                allocation = head.allocation
                if allocation is None:
                    # Size the next chunk of unsized states with one
                    # batch query.
                    states = take_unsized(PREDICTION_CHUNK)
                    allocations = predict_batch(
                        [
                            submission(st.inst, st.index, st.instance_id)
                            for st in states
                        ]
                    )
                    for st, alloc in zip(states, allocations):
                        alloc = clamp(manager, st.inst, alloc, st.instance_id)
                        st.allocation = alloc
                        st.first_allocation = alloc
                    allocation = head.allocation
                    if timer is not None:
                        timer.lap("size")
                node = try_place(allocation, drained)
                if timer is not None:
                    timer.lap("place")
                if node is None:
                    # Strict FCFS: the head blocks until memory frees up.
                    break
                heappop(ready)
                attempt = head.attempt + 1
                if attempt > MAX_ATTEMPTS:
                    raise RuntimeError(
                        f"task {head.instance_id} "
                        f"({head.inst.task_type.key}) did not finish within "
                        f"{MAX_ATTEMPTS} attempts; last allocation "
                        f"{allocation:.0f} MB, "
                        f"peak {head.inst.peak_memory_mb:.0f} MB"
                    )
                task_id = next_task_id()
                # A third-party policy may return an ill-fitting node;
                # allocate() refuses it with a MemoryError.
                node.allocate(task_id, allocation)
                head.attempt = attempt
                gen = head.dispatch_gen + 1
                head.dispatch_gen = gen
                head.running = (node, task_id, allocation, now)
                running[task_id] = head
                wait = now - head.queued_at
                if timer is not None:
                    timer.lap("dispatch")
                for call in dispatch_calls:
                    call(head, now, node, wait)
                if timer is not None:
                    timer.lap("collect")
                inst = head.inst
                duration = (
                    inst.runtime_hours
                    if allocation >= inst.peak_memory_mb
                    else inst.runtime_hours * time_to_failure
                )
                seq = events._seq
                events._seq = seq + 1
                heappush(heap, (now + duration, COMPLETION, seq, (head, gen)))
                if timer is not None:
                    timer.lap("dispatch")
        return True

    def _finalize(self) -> SimulationResult:
        if self.queue:
            # Nothing left to free memory, so the head can never start.
            head = self.queue._heap[0][1]
            raise RuntimeError(
                f"the events ran out with {len(self.queue)} tasks still "
                f"queued; the head, task {head.instance_id} "
                f"({head.inst.task_type.key}), found no node for its "
                f"{head.allocation:.0f} MB allocation"
            )
        self.driver.finish(self)
        self.predictor.end_trace()
        result = SimulationResult(
            workflow=self.source.workflow,
            method=self.predictor.name,
            time_to_failure=self.time_to_failure,
            ledger=self.wastage.ledger,
        )
        result.summary = RunSummary(
            workflow=self.source.workflow,
            method=self.predictor.name,
            time_to_failure=self.time_to_failure,
            makespan_hours=self.makespan,
        )
        for collector in self.collectors:
            collector.contribute(result)
        return result

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> None:
        """Serialize the paused kernel (clock, heap, drivers, collectors,
        RNG states) to ``path``; see :mod:`repro.sim.kernel.checkpoint`.
        """
        from repro.sim.kernel.checkpoint import save_checkpoint

        save_checkpoint(self, path)

    @classmethod
    def resume(cls, path: str) -> "SimulationKernel":
        """Load a checkpointed kernel; ``run()`` continues bit-for-bit."""
        from repro.sim.kernel.checkpoint import load_checkpoint

        return load_checkpoint(path)

    # ------------------------------------------------------------------
    # lifecycle transitions
    # ------------------------------------------------------------------
    def _release(
        self, state: TaskState, now: float, outcome: str
    ) -> tuple[float, float]:
        """End the attempt with ``outcome`` and free its node slice.

        Returns (allocated mb, occupied h).
        """
        node, task_id, allocated, start = state.running
        state.running = None
        # Inlined Machine.release: ``task_id`` is always present (the
        # state carried a live running tuple) and the stored reservation
        # equals ``allocated`` — the tuple and the node never disagree.
        del node.running[task_id]
        node.allocated_mb -= allocated
        del self._running[task_id]
        occupied = now - start
        for collector in self._end_collectors:
            collector.on_attempt_end(
                state, now, node, allocated, occupied, outcome
            )
        return allocated, occupied

    def _kill(self, state: TaskState, now: float) -> None:
        """Kill an over-limit attempt, re-size it and requeue it."""
        inst = state.inst
        allocated, occupied = self._release(state, now, KILL)
        # The failure record's "peak" is the exceeded limit — a lower
        # bound, flagged via ``success=False``.
        if self._observe:
            self.predictor.observe(
                TaskRecord.from_attempt(
                    inst,
                    state.index,
                    peak_memory_mb=allocated,
                    runtime_hours=occupied,
                    success=False,
                    attempt=state.attempt,
                    allocated_mb=allocated,
                    instance_id=state.instance_id,
                )
            )
        # Retries must strictly grow or the task can never finish; the
        # escalation floor is the doubling factor.
        next_allocation = float(
            self.predictor.on_failure(
                TaskSubmission.from_instance(
                    inst, state.index, state.instance_id
                ),
                allocated,
                state.attempt,
            )
        )
        if next_allocation <= allocated:
            next_allocation = allocated * DOUBLING_FACTOR
        state.allocation = clamp_allocation_checked(
            self.manager, inst, next_allocation, state.instance_id
        )
        state.queued_at = now
        self.queue.requeue(state)
        for collector in self._ready_collectors:
            collector.on_ready(state, now)

    # ------------------------------------------------------------------
    # node drains
    # ------------------------------------------------------------------
    def _start_outage(self, outage: NodeOutage, now: float) -> None:
        opened = outage.node_id not in self._drained
        self._drained[outage.node_id] = self._drained.get(outage.node_id, 0) + 1
        if opened:
            for collector in self._outage_collectors:
                collector.on_outage(outage.node_id, now, True)
        # Preempt in dispatch order (``_running`` is insertion-ordered).
        victims = [
            st
            for st in self._running.values()
            if st.running is not None
            and st.running[0].node_id == outage.node_id
        ]
        for state in victims:
            self._release(state, now, PREEMPT)
            # Not the sizing method's fault: the attempt budget and the
            # allocation are untouched, nothing hits the ledger, and the
            # stale completion event is invalidated by the bumped gen.
            state.attempt -= 1
            state.dispatch_gen += 1
            state.queued_at = now
            self.queue.requeue(state)
            for collector in self._ready_collectors:
                collector.on_ready(state, now)

    def _end_outage(self, outage: NodeOutage, now: float) -> None:
        remaining = self._drained.get(outage.node_id, 0) - 1
        if remaining > 0:
            self._drained[outage.node_id] = remaining
        else:
            self._drained.pop(outage.node_id, None)
            for collector in self._outage_collectors:
                collector.on_outage(outage.node_id, now, False)
