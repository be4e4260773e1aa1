"""Heterogeneous-cluster scenarios: backend equivalence and accounting.

Covers the cluster-accounting sweep: replay and event backends must
charge attempt-for-attempt identical wastage on heterogeneous clusters,
per-node utilization must be measured against each node's own capacity,
every dispatch's queue wait must be counted (including re-queues after a
kill), and the kill-escalation floor must route through the configured
doubling factor on both backends.
"""

import pytest

from repro.cluster.manager import ResourceManager
from repro.sim import EventDrivenBackend, OnlineSimulator, ReplayBackend
from repro.sim.backends.base import DOUBLING_FACTOR
from repro.sim.interface import MemoryPredictor, TaskSubmission
from repro.workflow.task import TaskInstance, TaskType, WorkflowTrace


def make_trace(peaks, runtimes=None, inputs=None, workflow="wf", preset=4096.0):
    tt = TaskType(name="t", workflow=workflow, preset_memory_mb=preset)
    runtimes = runtimes or [1.0] * len(peaks)
    inputs = inputs or [100.0] * len(peaks)
    insts = [
        TaskInstance(
            task_type=tt,
            instance_id=i,
            input_size_mb=x,
            peak_memory_mb=p,
            runtime_hours=r,
        )
        for i, (p, r, x) in enumerate(zip(peaks, runtimes, inputs))
    ]
    return WorkflowTrace(workflow, insts)


class FixedPredictor(MemoryPredictor):
    """Allocates a constant; never learns (replay == event totals)."""

    name = "Fixed"

    def __init__(self, allocation_mb: float):
        self.allocation_mb = allocation_mb

    def predict(self, task: TaskSubmission) -> float:
        return self.allocation_mb


class InputSizedPredictor(MemoryPredictor):
    """Allocates exactly the submission's input size (per-task control)."""

    name = "InputSized"

    def predict(self, task: TaskSubmission) -> float:
        return task.input_size_mb


class StubbornPredictor(FixedPredictor):
    """Re-proposes the failed allocation, forcing the escalation floor."""

    name = "Stubborn"

    def on_failure(self, task, failed_allocation_mb, attempt):
        return failed_allocation_mb


class TestHeterogeneousEquivalence:
    def test_ledger_totals_match_replay(self):
        # Peaks straddle the small-node capacity: 5000 and 7000 MB only
        # ever fit the 8g node, and 7000 needs two retries.
        trace = make_trace(
            [1000.0, 5000.0, 2500.0, 7000.0],
            runtimes=[1.0, 0.5, 2.0, 0.25],
        )
        results = {}
        for backend in ("replay", "event"):
            manager = ResourceManager.from_spec("2g:2,8g:1")
            results[backend] = OnlineSimulator(
                trace, manager=manager, backend=backend
            ).run(FixedPredictor(3000.0))
        replay, event = results["replay"], results["event"]
        assert event.total_wastage_gbh == pytest.approx(
            replay.total_wastage_gbh
        )
        assert event.num_failures == replay.num_failures
        assert event.total_runtime_hours == pytest.approx(
            replay.total_runtime_hours
        )
        assert [p.n_attempts for p in event.predictions] == [
            p.n_attempts for p in replay.predictions
        ]
        assert [p.final_allocation_mb for p in event.predictions] == [
            p.final_allocation_mb for p in replay.predictions
        ]

    @pytest.mark.parametrize("placement", ["first-fit", "best-fit", "worst-fit"])
    def test_placement_policy_does_not_change_wastage(self, placement):
        # Placement moves tasks between nodes but never changes what a
        # task is charged — the ledger is policy-invariant.
        trace = make_trace([1000.0, 3500.0, 500.0, 2500.0])
        manager = ResourceManager.from_spec(
            "4g:2,8g:2", placement=placement
        )
        res = OnlineSimulator(trace, manager=manager, backend="event").run(
            FixedPredictor(3000.0)
        )
        baseline = OnlineSimulator(trace, backend="replay").run(
            FixedPredictor(3000.0)
        )
        assert res.total_wastage_gbh == pytest.approx(
            baseline.total_wastage_gbh
        )
        assert res.num_failures == baseline.num_failures

    def test_event_deterministic_under_poisson_seed(self):
        trace = make_trace([1000.0] * 12, runtimes=[0.5] * 12)
        def run_once():
            manager = ResourceManager.from_spec("2g:2,8g:1")
            backend = EventDrivenBackend(arrival="poisson:4.0", seed=11)
            return OnlineSimulator(
                trace, manager=manager, backend=backend
            ).run(FixedPredictor(1500.0))
        a, b = run_once(), run_once()
        assert a.cluster.makespan_hours == b.cluster.makespan_hours
        assert a.cluster.total_queue_wait_hours == (
            b.cluster.total_queue_wait_hours
        )
        assert a.cluster.node_utilization == b.cluster.node_utilization
        assert a.total_wastage_gbh == b.total_wastage_gbh

    def test_different_seeds_change_arrivals(self):
        trace = make_trace([1000.0] * 12, runtimes=[0.5] * 12)
        def run_seed(seed):
            backend = EventDrivenBackend(arrival="poisson:4.0", seed=seed)
            return OnlineSimulator(trace, backend=backend).run(
                FixedPredictor(1500.0)
            )
        a, b = run_seed(1), run_seed(2)
        assert a.cluster.makespan_hours != b.cluster.makespan_hours


class TestPerNodeUtilization:
    def test_divides_by_each_nodes_own_capacity(self):
        # 1024 MB on the 1g node and 2048 MB on the 2g node, both for
        # the whole 1 h makespan: both nodes are 100% utilized.  The old
        # shared denominator (largest node) would report node 0 at 50%.
        trace = make_trace(
            [1000.0, 2000.0], inputs=[1024.0, 2048.0]
        )
        manager = ResourceManager.from_spec("1g:1,2g:1")
        res = OnlineSimulator(trace, manager=manager, backend="event").run(
            InputSizedPredictor()
        )
        assert res.cluster.node_utilization[0] == pytest.approx(1.0)
        assert res.cluster.node_utilization[1] == pytest.approx(1.0)
        assert res.cluster.node_capacity_gb == {0: 1.0, 1: 2.0}
        assert res.cluster.node_busy_memory_gbh[0] == pytest.approx(1.0)
        assert res.cluster.node_busy_memory_gbh[1] == pytest.approx(2.0)


class TestQueueWaitAccounting:
    def test_requeued_wait_after_kill_is_counted(self):
        # One 4096 MB node.  Task 0 (2000 MB alloc, killed at 0.5 h)
        # must wait for task 1 (2000 MB until t=2 h) before its 4000 MB
        # retry fits: the re-dispatch waits 1.5 h, which the old
        # first-start-only accounting silently dropped.
        trace = make_trace(
            [3000.0, 1500.0],
            runtimes=[1.0, 2.0],
            inputs=[2000.0, 2000.0],
        )
        manager = ResourceManager.from_spec("4096m:1")
        res = OnlineSimulator(
            trace, manager=manager, backend="event", time_to_failure=0.5
        ).run(InputSizedPredictor())
        assert res.num_failures == 1
        assert res.cluster.total_queue_wait_hours == pytest.approx(1.5)
        assert res.cluster.max_queue_wait_hours == pytest.approx(1.5)
        # Three dispatches: two first starts (wait 0) + one retry (1.5).
        assert res.cluster.mean_queue_wait_hours == pytest.approx(0.5)
        assert res.cluster.makespan_hours == pytest.approx(3.0)

    def test_unobstructed_retry_waits_zero(self):
        trace = make_trace([3000.0], inputs=[2000.0])
        res = OnlineSimulator(
            trace, backend="event", time_to_failure=0.5
        ).run(InputSizedPredictor())
        assert res.cluster.total_queue_wait_hours == pytest.approx(0.0)


class TestDoublingFactor:
    def test_floor_doubles_the_failed_allocation(self):
        # A stubborn predictor re-proposes the failed allocation, so the
        # escalation floor drives growth: 1000 -> 2000 -> 4000 -> 8000.
        trace = make_trace([7000.0])
        for backend in (ReplayBackend(), EventDrivenBackend()):
            res = OnlineSimulator(trace, backend=backend).run(
                StubbornPredictor(1000.0)
            )
            (log,) = res.predictions
            assert log.n_attempts == 4
            assert log.final_allocation_mb == 1000.0 * DOUBLING_FACTOR**3

    def test_backends_stay_attempt_identical_on_the_floor(self):
        trace = make_trace([5000.0, 2000.0], inputs=[1200.0, 1200.0])
        logs = {}
        for name in ("replay", "event"):
            res = OnlineSimulator(trace, backend=name).run(
                StubbornPredictor(1200.0)
            )
            logs[name] = [
                (p.n_attempts, p.final_allocation_mb)
                for p in res.predictions
            ]
        assert logs["replay"] == logs["event"]
