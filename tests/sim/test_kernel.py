"""Unit tests for the unified simulation kernel.

Covers the kernel's own contracts — event ordering, requeue-after-kill,
collector composition — plus the cross-mode determinism pin: identical
seeds must give identical results when the flat event backend and the
DAG engine execute the same effective workload.
"""

from collections import Counter

import pytest

from repro.cluster.machine import MachineConfig
from repro.cluster.manager import ResourceManager
from repro.experiments.factories import method_factories
from repro.sched.engine import DagWorkflowDriver
from repro.sim.backends.event import EventDrivenBackend, FlatStreamDriver
from repro.sim.arrivals import (
    FixedArrivals,
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

    def test_payloads_never_compared(self):
        class Opaque:  # no ordering defined
            pass

        heap = EventHeap()
        for _ in range(5):
            heap.push(0.0, COMPLETION, Opaque())
        while heap:
            heap.pop()


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
