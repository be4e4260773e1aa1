"""Unit tests for the unified simulation kernel.

Covers the kernel's own contracts — event ordering, requeue-after-kill,
collector composition — plus the cross-mode determinism pin: identical
seeds must give identical results when the flat event backend and the
DAG engine execute the same effective workload.
"""

import pickle
import random
from bisect import insort
from collections import Counter

import numpy as np
import pytest

from repro.cluster.machine import MachineConfig
from repro.cluster.manager import ResourceManager
from repro.errors import ConfigError
from repro.experiments.factories import method_factories
from repro.sched.engine import DagWorkflowDriver
from repro.sim.backends.event import EventDrivenBackend, FlatStreamDriver
from repro.sim.arrivals import (
    FixedArrivals,
    WorkflowArrivals,
    parse_arrival,
    parse_workflow_arrival,
)
from repro.sim.interface import MemoryPredictor, TaskSubmission
from repro.sim.kernel import (
    ARRIVAL,
    COMPLETION,
    KILL,
    OUTAGE_END,
    OUTAGE_START,
    PREEMPT,
    SUCCESS,
    BaseCollector,
    ClusterMetricsCollector,
    EventHeap,
    SimulationKernel,
)
from repro.sim.results import result_to_dict
from repro.workflow.dag import WorkflowDAG
from repro.workflow.nfcore import build_workflow_trace
from repro.workflow.task import TaskInstance, TaskType, WorkflowTrace

EVENT_KINDS = (COMPLETION, OUTAGE_END, ARRIVAL, OUTAGE_START)


def make_trace(spec, workflow="wf", dag=None, preset=4096.0):
    """``spec``: list of (type_name, peak_mb, runtime_hours) tuples."""
    types = {}
    insts = []
    for i, (name, peak, runtime) in enumerate(spec):
        tt = types.setdefault(
            name,
            TaskType(name=name, workflow=workflow, preset_memory_mb=preset),
        )
        insts.append(
            TaskInstance(
                task_type=tt,
                instance_id=i,
                input_size_mb=100.0,
                peak_memory_mb=peak,
                runtime_hours=runtime,
            )
        )
    return WorkflowTrace(workflow, insts, dag=dag)


class FixedPredictor(MemoryPredictor):
    """Always proposes the same allocation — retries rely on the
    kernel's doubling-factor escalation floor."""

    name = "Fixed"

    def __init__(self, allocation_mb: float):
        self.allocation_mb = allocation_mb

    def predict(self, task: TaskSubmission) -> float:
        return self.allocation_mb

    def on_failure(self, task, failed_allocation_mb, attempt):
        return self.allocation_mb


class TestEventHeap:
    def test_time_orders_first(self):
        heap = EventHeap()
        heap.push(2.0, COMPLETION, "late")
        heap.push(1.0, ARRIVAL, "early")
        assert heap.pop() == (1.0, ARRIVAL, "early")
        assert heap.pop() == (2.0, COMPLETION, "late")

    def test_kind_breaks_time_ties(self):
        """At one instant: completions, node returns, arrivals, drains."""
        heap = EventHeap()
        heap.push(1.0, OUTAGE_START, "drain")
        heap.push(1.0, ARRIVAL, "arrive")
        heap.push(1.0, OUTAGE_END, "return")
        heap.push(1.0, COMPLETION, "complete")
        kinds = [heap.pop()[1] for _ in range(4)]
        assert kinds == [COMPLETION, OUTAGE_END, ARRIVAL, OUTAGE_START]

    def test_push_sequence_breaks_kind_ties(self):
        heap = EventHeap()
        for i in range(10):
            heap.push(1.0, ARRIVAL, i)
        assert [heap.pop()[2] for _ in range(10)] == list(range(10))
        assert not heap

    def test_pickle_keeps_the_seq_counter(self):
        # Events pushed after a resume sort after same-(time, kind)
        # events pushed before it.
        heap = EventHeap()
        heap.push(1.0, ARRIVAL, "before")
        resumed = pickle.loads(pickle.dumps(heap))
        resumed.push(1.0, ARRIVAL, "after")
        assert [resumed.pop()[2] for _ in range(2)] == ["before", "after"]

    def test_payloads_never_compared(self):
        class Opaque:  # no ordering defined
            pass

        heap = EventHeap()
        for _ in range(5):
            heap.push(0.0, COMPLETION, Opaque())
        while heap:
            heap.pop()

    def test_random_pushes_and_pops_follow_time_kind_push_order(self):
        """10k events on a coarse time grid, so same-time and same-kind
        ties are dense, with pushes between pops: every pop is the
        least ``(time, kind, push index)`` still pending."""
        rng = random.Random(42)
        heap = EventHeap()
        reference = []  # sorted (time, kind, push index)
        pushed = 0

        def push(time, kind):
            # Payloads run opposite to push order, so a heap that fell
            # back on comparing them would reverse every tie.
            nonlocal pushed
            heap.push(time, kind, -pushed)
            insort(reference, (time, kind, pushed))
            pushed += 1

        for _ in range(10_000):
            push(rng.choice([0.0, 0.5, 1.0, 2.0, 5.0]), rng.choice(EVENT_KINDS))
        popped = 0
        while heap:
            assert heap.next_time == reference[0][0]
            time, kind, index = reference.pop(0)
            assert heap.pop() == (time, kind, -index)
            popped += 1
            if popped % 97 == 0:
                # As the kernel does: nothing is pushed into the past.
                push(
                    reference[0][0] + rng.choice([0.0, 0.1, 1.0])
                    if reference
                    else 9.0,
                    rng.choice(EVENT_KINDS),
                )
        assert not reference
        assert popped == pushed > 10_000

    def test_next_time_tracks_the_earliest_event(self):
        heap = EventHeap()
        heap.push(2.0, ARRIVAL, None)
        assert heap.next_time == 2.0
        heap.push(1.0, COMPLETION, None)
        assert heap.next_time == 1.0
        heap.push(1.0, OUTAGE_START, None)
        assert heap.pop() == (1.0, COMPLETION, None)
        assert heap.next_time == 1.0
        heap.pop()
        assert heap.next_time == 2.0
        assert len(heap) == 1

    def test_pickle_mid_wave_resumes_bit_for_bit(self):
        """Pickled partway through a same-time wave, the heap pops the
        rest of the wave and what follows in the uninterrupted order."""

        def fill(heap):
            for i, time in enumerate([0.0, 1.0, 1.0, 1.0, 2.0]):
                heap.push(time, ARRIVAL, i)
            heap.push(1.0, COMPLETION, "mid")
            heap.push(3.0, OUTAGE_START, "later")

        reference, heap = EventHeap(), EventHeap()
        fill(reference)
        fill(heap)
        want = [reference.pop() for _ in range(len(reference))]
        got = [heap.pop() for _ in range(3)]  # stops inside t=1.0
        assert got[-1][0] == 1.0 and heap.next_time == 1.0
        resumed = pickle.loads(pickle.dumps(heap))
        assert len(resumed) == len(heap) == 4
        got += [resumed.pop() for _ in range(4)]
        assert got == want


class TestRequeueAfterKill:
    def test_killed_task_requeues_at_original_priority(self):
        # Task 0 is under-allocated and killed; it must re-enter the
        # queue ahead of task 1 (original priority), so on a one-slot
        # cluster its retry runs before task 1's first attempt.
        trace = make_trace([("a", 220.0, 1.0), ("a", 100.0, 1.0)])
        manager = ResourceManager(
            MachineConfig(name="tiny", memory_mb=256.0), n_nodes=1
        )
        backend = EventDrivenBackend()
        res = backend.run(trace, FixedPredictor(200.0), manager, 1.0)
        attempts = [
            (o.instance_id, o.attempt, o.success)
            for o in res.ledger.outcomes
        ]
        assert attempts == [(0, 1, False), (0, 2, True), (1, 1, True)]
        # task 0 re-dispatches in the same scheduling pass as its kill
        # (zero re-queue wait); task 1 waited the full 2 h behind it.
        assert res.cluster.total_queue_wait_hours == pytest.approx(2.0)
        assert len(res.cluster.node_timelines[0]) == 1 + 2 * 3

    def test_retry_allocation_escalates_through_doubling_floor(self):
        trace = make_trace([("a", 900.0, 1.0)])
        manager = ResourceManager(
            MachineConfig(name="tiny", memory_mb=2048.0), n_nodes=1
        )
        backend = EventDrivenBackend()
        res = backend.run(trace, FixedPredictor(100.0), manager, 1.0)
        allocs = [o.allocated_mb for o in res.ledger.outcomes]
        # FixedPredictor never grows its proposal, so the kernel's
        # escalation floor drives the retries: 100 -> 200 -> ... -> 1600.
        assert allocs == [100.0, 200.0, 400.0, 800.0, 1600.0]


class _CountingCollector(BaseCollector):
    """Custom collector: counts callbacks, attaches them to the result."""

    def __init__(self):
        self.dispatches = 0
        self.ends = Counter()

    def on_dispatch(self, state, now, node, wait_hours):
        self.dispatches += 1

    def on_attempt_end(
        self, state, now, node, allocated_mb, occupied_hours, outcome
    ):
        self.ends[outcome] += 1

    def contribute(self, result):
        # Ad-hoc attribute: composition works.
        result.collector_counts = {"dispatches": self.dispatches, **self.ends}


class TestCollectorComposition:
    def test_custom_collector_composes_with_stock_ones(self):
        trace = make_trace(
            [("a", 300.0, 1.0), ("a", 100.0, 1.0), ("a", 100.0, 0.5)]
        )
        manager = ResourceManager(
            MachineConfig(name="tiny", memory_mb=512.0), n_nodes=1
        )
        counting = _CountingCollector()
        kernel = SimulationKernel(
            trace,
            FixedPredictor(200.0),
            manager,
            1.0,
            driver=FlatStreamDriver(FixedArrivals(0.0), seed=0),
            collectors=[ClusterMetricsCollector(), counting],
        )
        res = kernel.run()
        counts = res.collector_counts
        assert counts[SUCCESS] == 3
        assert counts[KILL] == 1  # task 0's first attempt
        assert PREEMPT not in counts  # no drains in this scenario
        # every dispatched attempt ended exactly once
        assert counts["dispatches"] == counts[SUCCESS] + counts[KILL] == 4
        # the stock collectors were not displaced
        assert res.cluster is not None
        assert res.num_tasks == 3
        assert res.num_failures == 1

    def test_wastage_collector_always_installed(self):
        trace = make_trace([("a", 100.0, 1.0)])
        manager = ResourceManager(
            MachineConfig(name="tiny", memory_mb=512.0), n_nodes=1
        )
        kernel = SimulationKernel(
            trace,
            FixedPredictor(200.0),
            manager,
            1.0,
            driver=FlatStreamDriver(FixedArrivals(0.0), seed=0),
        )
        res = kernel.run()
        assert res.total_wastage_gbh > 0
        assert len(res.predictions) == 1
        assert res.cluster is None  # no cluster collector requested


class TestAttemptAccounting:
    """Each dispatch takes one task id and one node reservation, and each
    attempt end — success, kill or preemption — frees it exactly once."""

    @pytest.mark.parametrize(
        "driver, cluster, outages",
        [
            (lambda: FlatStreamDriver(parse_arrival("poisson:600"), 7),
             "4g:1,6g:1", ()),
            (lambda: FlatStreamDriver(parse_arrival("poisson:600"), 7),
             "4g:2", ("0.005:0.02:0",)),
            (lambda: DagWorkflowDriver(
                "trace", parse_workflow_arrival("2"), 7),
             "4g:1,6g:1", ()),
            (lambda: DagWorkflowDriver(
                "trace", parse_workflow_arrival("3@poisson:2"), 7),
             "6g:2", ("0.01:0.05:1",)),
        ],
        ids=["flat", "flat-drain", "dag", "dag-copies-drain"],
    )
    def test_every_attempt_frees_its_reservation(
        self, driver, cluster, outages
    ):
        trace = build_workflow_trace("iwd", seed=3, scale=0.05)
        manager = ResourceManager.from_spec(cluster)
        counting = _CountingCollector()
        kernel = SimulationKernel(
            trace,
            method_factories()["Witt-Percentile"](),
            manager,
            0.7,
            driver=driver(),
            collectors=[ClusterMetricsCollector(), counting],
            outages=outages,
        )
        res = kernel.run()
        counts = res.collector_counts
        assert counts[SUCCESS] == res.num_tasks
        assert counts[KILL] == res.num_failures > 0
        preempts = counts.get(PREEMPT, 0)
        assert (preempts > 0) == bool(outages)
        dispatches = counts["dispatches"]
        assert dispatches == counts[SUCCESS] + counts[KILL] + preempts
        # One task id per dispatch, and every reservation came back.
        assert manager.next_task_id() == dispatches
        assert kernel._running == {}
        for node in manager.nodes:
            assert node.running == {}
            assert node.allocated_mb == pytest.approx(0.0, abs=1e-6)
        assert res.cluster.total_queue_wait_hours > 0  # under contention


class TestPlacementGuard:
    @pytest.mark.parametrize("dag", [None, "linear"])
    def test_a_policy_choosing_a_full_node_is_refused(self, dag):
        # A third-party policy's choice still goes through
        # Machine.allocate's capacity check.
        class Careless:
            name = "careless"

            def select(self, nodes, memory_mb):
                return nodes[0] if nodes else None

        trace = make_trace([("a", 300.0, 1.0), ("a", 300.0, 1.0)])
        manager = ResourceManager(
            MachineConfig(name="tiny", memory_mb=512.0),
            n_nodes=1,
            placement=Careless(),
        )
        with pytest.raises(MemoryError, match="cannot fit 400 MB"):
            EventDrivenBackend(dag=dag).run(
                trace, FixedPredictor(400.0), manager, 1.0
            )


class TestQueueThatNeverDrains:
    """Events that run out with tasks still queued are an error in
    every mode, not a short result."""

    class Nowhere:
        name = "nowhere"

        def select(self, nodes, memory_mb):
            return None

    @pytest.mark.parametrize(
        "options, queued",
        [
            ({}, 4),
            ({"stream_collectors": True}, 4),
            ({"dag": "linear"}, 3),  # only the root type is released
        ],
    )
    def test_the_run_names_the_blocked_head(self, options, queued):
        trace = make_trace([("a", 100.0, 1.0)] * 3 + [("b", 100.0, 1.0)])
        manager = ResourceManager(placement=self.Nowhere())
        with pytest.raises(
            RuntimeError,
            match=(
                rf"with {queued} tasks still queued; the head, task 0 "
                rf"\(wf/a\), found no node for its 256 MB allocation"
            ),
        ):
            EventDrivenBackend(**options).run(
                trace, FixedPredictor(256.0), manager, 1.0
            )


class TestFlatArrivals:
    """The flat driver draws the schedule once and keeps one arrival
    pending in the event heap."""

    class Decreasing:
        """Decreases once, at task 2; each half of a two-way shard
        split ([0, 1] and [2, 3]) is sorted on its own."""

        name = "decreasing"

        def sample(self, n, rng):
            return np.array([0.0, 2.0, 1.0, 3.0])[:n]

    @pytest.mark.parametrize("shard, shards", [(0, 1), (0, 2), (1, 2)])
    def test_a_decreasing_schedule_is_refused(self, shard, shards):
        # The whole schedule is checked, so every shard refuses it as
        # the unsharded run does, although its own slice is sorted.
        trace = make_trace([("a", 100.0, 1.0)] * 4)
        backend = EventDrivenBackend(
            arrival=self.Decreasing(), shard=shard, shards=shards
        )
        with pytest.raises(ConfigError, match="'decreasing' sampled times"):
            backend.run(trace, FixedPredictor(256.0), ResourceManager(), 1.0)

    def test_same_time_arrivals_pop_in_one_wave_in_index_order(self):
        # A batch submission: each arrival pushes the next one at the
        # same instant, and the wave pops it before its clock moves on.
        trace = make_trace([("a", 100.0, 1.0)] * 5)
        kernel = EventDrivenBackend(shard=1, shards=2).build_kernel(
            trace, FixedPredictor(256.0), ResourceManager(), 1.0
        )
        assert kernel.run(until=0.0) is None
        assert kernel.driver._consumed == kernel.driver.n_tasks == 2
        assert not [e for e in kernel.events._heap if e[1] == ARRIVAL]
        states = sorted(kernel._running.values(), key=lambda s: s.priority)
        assert [(s.priority, s.index, s.arrival) for s in states] == [
            (0, 1, 0.0),
            (1, 3, 0.0),
        ]

    def test_at_most_one_arrival_is_pending_at_every_pause(self):
        trace = build_workflow_trace("iwd", seed=3, scale=0.05)
        kernel = EventDrivenBackend(arrival="poisson:600", seed=7).build_kernel(
            trace,
            FixedPredictor(2048.0),
            ResourceManager.from_spec("4g:1,6g:1"),
            0.7,
        )
        pending_indexes = []
        until = 0.0
        while kernel.run(until=until) is None:
            pending = [e[3] for e in kernel.events._heap if e[1] == ARRIVAL]
            assert len(pending) <= 1
            pending_indexes += [state.index for state in pending]
            until = kernel.events.next_time  # pause after every wave
        assert len(pending_indexes) > len(trace) // 2
        assert pending_indexes == sorted(pending_indexes)
        assert pending_indexes[-1] == len(trace) - 1


class TestDagArrivalOrder:
    def test_decreasing_submit_times_arrive_in_time_order(self):
        # A custom model may hand copies out of time order; the event
        # heap still admits them by submit time.
        class Reversed(WorkflowArrivals):
            def sample(self, rng):
                return np.arange(self.n_instances, 0, -1, dtype=np.float64)

        trace = make_trace([("a", 100.0, 0.5), ("b", 100.0, 0.5)])
        kernel = EventDrivenBackend(
            dag="linear", workflow_arrival=Reversed(3)
        ).build_kernel(trace, FixedPredictor(256.0), ResourceManager(), 1.0)
        seen = []
        on_arrival = kernel.driver.on_arrival

        def spy(wi, now):
            seen.append((now, wi.key))
            return on_arrival(wi, now)

        kernel.driver.on_arrival = spy
        result = kernel.run()
        assert seen == [(1.0, "wf#2"), (2.0, "wf#1"), (3.0, "wf#0")]
        assert [wi.first_dispatch for wi in kernel.driver.workflows] == [
            3.0,
            2.0,
            1.0,
        ]
        assert result.num_tasks == 6

class TestCrossModeDeterminism:
    """Identical seeds give identical results across flat and DAG modes.

    A single-type workload makes the DAG constraint vacuous (one node,
    no edges), so flat FCFS order and dependency-release order coincide
    even under contention and kills — the two drivers must then produce
    bit-for-bit identical results through the shared kernel.
    """

    def _trace(self):
        dag = WorkflowDAG(["a"])
        return make_trace(
            [("a", 300.0, 1.0), ("a", 500.0, 0.7), ("a", 120.0, 0.3),
             ("a", 450.0, 0.5), ("a", 80.0, 0.2)],
            dag=dag,
        )

    def _manager(self):
        return ResourceManager(
            MachineConfig(name="tiny", memory_mb=640.0), n_nodes=1
        )

    @pytest.mark.parametrize("seed", [0, 7])
    def test_flat_and_dag_identical_under_contention_and_kills(self, seed):
        trace = self._trace()
        flat = EventDrivenBackend(seed=seed).run(
            trace, FixedPredictor(256.0), self._manager(), 0.8
        )
        dag = EventDrivenBackend(dag="trace", seed=seed).run(
            trace, FixedPredictor(256.0), self._manager(), 0.8
        )
        flat_d, dag_d = result_to_dict(flat), result_to_dict(dag)
        # Workflow metrics exist only in DAG mode; everything else —
        # attempts, predictions, cluster metrics — must match exactly.
        dag_d.pop("workflows")
        flat_d.pop("workflows")
        assert flat_d == dag_d
        assert flat.num_failures > 0  # the scenario exercises kills
        assert flat.cluster.total_queue_wait_hours > 0  # and contention

    def test_repeat_runs_are_bit_identical(self):
        trace = self._trace()
        runs = [
            result_to_dict(
                EventDrivenBackend(arrival="poisson:2", seed=3).run(
                    trace, FixedPredictor(256.0), self._manager(), 0.8
                )
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestArrivalsShimRemoved:
    def test_sched_arrivals_shim_is_gone(self):
        # The PR 4 deprecation shim has been dropped; the single source
        # of truth is repro.sim.arrivals (re-exported by repro.sched).
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sched.arrivals")
        from repro.sched import WorkflowArrivals, parse_workflow_arrival
        from repro.sim.arrivals import (
            WorkflowArrivals as canonical,
            parse_workflow_arrival as canonical_parse,
        )

        assert WorkflowArrivals is canonical
        assert parse_workflow_arrival is canonical_parse
