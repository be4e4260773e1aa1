"""Tests for the pluggable simulation backends."""

import pytest

from repro.cluster.machine import MachineConfig
from repro.cluster.manager import ResourceManager
from repro.sim import (
    EventDrivenBackend,
    OnlineSimulator,
    ReplayBackend,
    UnschedulableTaskError,
    backend_names,
    resolve_backend,
)
from repro.sim.interface import MemoryPredictor, TaskSubmission, TraceContext
from repro.workflow.task import TaskInstance, TaskType, WorkflowTrace


def make_trace(peaks, runtimes=None, workflow="wf", preset=4096.0):
    tt = TaskType(name="t", workflow=workflow, preset_memory_mb=preset)
    runtimes = runtimes or [1.0] * len(peaks)
    insts = [
        TaskInstance(
            task_type=tt,
            instance_id=i,
            input_size_mb=100.0,
            peak_memory_mb=p,
            runtime_hours=r,
        )
        for i, (p, r) in enumerate(zip(peaks, runtimes))
    ]
    return WorkflowTrace(workflow, insts)


class FixedPredictor(MemoryPredictor):
    name = "Fixed"

    def __init__(self, allocation_mb: float):
        self.allocation_mb = allocation_mb
        self.seen = []
        self.contexts = []
        self.trace_ended = 0

    def predict(self, task: TaskSubmission) -> float:
        return self.allocation_mb

    def observe(self, record) -> None:
        self.seen.append(record)

    def begin_trace(self, context=None) -> None:
        self.contexts.append(context)

    def end_trace(self) -> None:
        self.trace_ended += 1


class TestBackendResolution:
    def test_registered_names(self):
        assert "replay" in backend_names()
        assert "event" in backend_names()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            OnlineSimulator(make_trace([100.0]), backend="nope")

    def test_instance_accepted(self):
        sim = OnlineSimulator(
            make_trace([100.0]), backend=EventDrivenBackend()
        )
        assert sim.backend.name == "event"

    def test_resolve_rejects_non_backend(self):
        with pytest.raises(TypeError, match="SimulatorBackend"):
            resolve_backend(42)


class TestReplayBackendFidelity:
    def test_default_backend_is_replay(self):
        assert OnlineSimulator(make_trace([100.0])).backend.name == "replay"

    def test_explicit_replay_matches_default(self):
        trace = make_trace([1000.0, 3000.0, 1500.0])
        a = OnlineSimulator(trace).run(FixedPredictor(2048.0))
        b = OnlineSimulator(trace, backend="replay").run(FixedPredictor(2048.0))
        assert a.total_wastage_gbh == b.total_wastage_gbh
        assert a.num_failures == b.num_failures
        assert [p.final_allocation_mb for p in a.predictions] == [
            p.final_allocation_mb for p in b.predictions
        ]

    def test_replay_has_no_cluster_metrics(self):
        res = OnlineSimulator(make_trace([100.0])).run(FixedPredictor(1024.0))
        assert res.cluster is None


class TestLifecycleHooks:
    @pytest.mark.parametrize("backend", ["replay", "event"])
    def test_hooks_called_with_context(self, backend):
        trace = make_trace([100.0, 200.0], workflow="hooked")
        pred = FixedPredictor(1024.0)
        OnlineSimulator(trace, backend=backend, time_to_failure=0.5).run(pred)
        assert pred.trace_ended == 1
        (ctx,) = pred.contexts
        assert isinstance(ctx, TraceContext)
        assert ctx.workflow == "hooked"
        assert ctx.n_tasks == 2
        assert ctx.time_to_failure == 0.5
        assert ctx.backend == backend


class TestEventBackendConcurrency:
    def test_parallel_tasks_compress_makespan(self):
        # Two 1 h tasks on the default 8-node cluster run side by side.
        trace = make_trace([1000.0, 1000.0])
        res = OnlineSimulator(trace, backend="event").run(FixedPredictor(2048.0))
        assert res.cluster is not None
        assert res.cluster.makespan_hours == pytest.approx(1.0)
        assert res.cluster.mean_queue_wait_hours == pytest.approx(0.0)
        # Accounting is unchanged: total occupancy is still 2 h.
        assert res.total_runtime_hours == pytest.approx(2.0)

    def test_capacity_limit_serializes_and_queues(self):
        tiny = ResourceManager(
            config=MachineConfig(name="tiny", memory_mb=2048.0), n_nodes=1
        )
        trace = make_trace([1000.0, 1000.0])
        res = OnlineSimulator(trace, manager=tiny, backend="event").run(
            FixedPredictor(1500.0)
        )
        assert res.cluster.makespan_hours == pytest.approx(2.0)
        # Second task waited a full hour for the single node.
        assert res.cluster.max_queue_wait_hours == pytest.approx(1.0)
        assert res.cluster.total_queue_wait_hours == pytest.approx(1.0)

    def test_kill_and_requeue(self):
        trace = make_trace([3000.0])
        res = OnlineSimulator(trace, backend="event", time_to_failure=0.5).run(
            FixedPredictor(2000.0)
        )
        assert res.num_failures == 1
        assert res.predictions[0].n_attempts == 2
        assert res.predictions[0].final_allocation_mb == pytest.approx(4000.0)
        # 0.5 h killed attempt + 1 h successful retry.
        assert res.cluster.makespan_hours == pytest.approx(1.5)
        assert res.total_wastage_gbh == pytest.approx(
            2000.0 * 0.5 / 1024 + 1000.0 / 1024
        )

    def test_wastage_matches_replay_for_static_predictor(self):
        # A predictor with no online learning is charged identically per
        # attempt, so both backends produce the same ledger totals.
        trace = make_trace(
            [1000.0, 3000.0, 500.0, 2500.0], runtimes=[1.0, 0.5, 2.0, 0.25]
        )
        replay = OnlineSimulator(trace, backend="replay").run(
            FixedPredictor(2048.0)
        )
        event = OnlineSimulator(trace, backend="event").run(
            FixedPredictor(2048.0)
        )
        assert event.total_wastage_gbh == pytest.approx(replay.total_wastage_gbh)
        assert event.num_failures == replay.num_failures
        assert event.total_runtime_hours == pytest.approx(
            replay.total_runtime_hours
        )

    def test_predictions_in_submission_order(self):
        trace = make_trace([1000.0, 3000.0, 500.0], runtimes=[2.0, 0.5, 1.0])
        res = OnlineSimulator(trace, backend="event").run(FixedPredictor(2048.0))
        assert [p.instance_id for p in res.predictions] == [0, 1, 2]

    def test_arrival_interval_staggers_submissions(self):
        trace = make_trace([1000.0, 1000.0])
        res = OnlineSimulator(
            trace, backend=EventDrivenBackend(arrival_interval_hours=0.25)
        ).run(FixedPredictor(2048.0))
        # Second task arrives at 0.25 h and runs 1 h with no queueing.
        assert res.cluster.makespan_hours == pytest.approx(1.25)
        assert res.cluster.mean_queue_wait_hours == pytest.approx(0.0)

    def test_utilization_and_timelines(self):
        tiny = ResourceManager(
            config=MachineConfig(name="tiny", memory_mb=2048.0), n_nodes=1
        )
        trace = make_trace([1000.0])
        res = OnlineSimulator(trace, manager=tiny, backend="event").run(
            FixedPredictor(1024.0)
        )
        # 1024 MB for 1 h on a 2048 MB node over a 1 h makespan => 0.5.
        assert res.cluster.node_utilization[0] == pytest.approx(0.5)
        assert res.cluster.node_busy_memory_gbh[0] == pytest.approx(1.0)
        timeline = res.cluster.node_timelines[0]
        assert timeline[0] == (0.0, 0.0)
        assert timeline[-1][1] == pytest.approx(0.0)  # everything released

    def test_invalid_backend_options(self):
        with pytest.raises(ValueError, match="arrival_interval_hours"):
            EventDrivenBackend(arrival_interval_hours=-1.0)
        with pytest.raises(ValueError, match="prediction_chunk"):
            EventDrivenBackend(prediction_chunk=0)

    def test_empty_trace(self):
        res = OnlineSimulator(make_trace([]), backend="event").run(
            FixedPredictor(1024.0)
        )
        assert res.num_tasks == 0
        assert res.cluster.makespan_hours == 0.0
        assert res.cluster.mean_utilization == 0.0


class TestUnschedulableTasks:
    @pytest.mark.parametrize("backend", ["replay", "event"])
    def test_peak_beyond_capacity_raises_typed_error(self, backend):
        trace = make_trace([200_000.0])  # > 128 GB node capacity
        with pytest.raises(UnschedulableTaskError) as exc:
            OnlineSimulator(trace, backend=backend).run(FixedPredictor(1024.0))
        err = exc.value
        assert err.task_type == "wf/t"
        assert err.peak_memory_mb == pytest.approx(200_000.0)
        assert err.capacity_mb == pytest.approx(128.0 * 1024)
        assert "unschedulable" in str(err)

    def test_is_a_runtime_error(self):
        # Back-compat: callers catching the old generic error still work.
        assert issubclass(UnschedulableTaskError, RuntimeError)


class TestPr2GoldenRegression:
    """Replay and flat-stream event outputs must stay bit-for-bit
    identical to the PR 2 engines.

    The golden numbers below were produced by the pre-DAG code (commit
    f46141f) on ``iwd`` (seed=3, scale=0.05) — replay totals plus an
    event run on a heterogeneous best-fit cluster with Poisson
    arrivals.  Any drift here means the DAG subsystem leaked into the
    flat paths.  The Sizey row was re-recorded when its incremental MLP
    update went from 20 to 5 Adam steps (a learning change judged on the
    quality gate of docs/QUALITY.md, not a kernel change).
    """

    GOLDEN = {
        "Sizey": (
            0.26003661250045146, 16, 0.3516579539525154,
            0.27840887637285305, 18, 1.856844235835395,
            0.0, 0.0013999429582942486,
        ),
        "Witt-Percentile": (
            0.33684742050403366, 11, 0.33687057934532866,
            0.35682648301315806, 11, 1.856844235835395,
            0.0, 0.0015649103637594012,
        ),
        "Workflow-Presets": (
            1.3580872160305373, 0, 0.29888201259001895,
            1.3580872160305373, 0, 1.856844235835395,
            0.0, 0.003671266224346433,
        ),
    }

    @pytest.mark.parametrize("method", sorted(GOLDEN))
    def test_flat_backends_match_pr2_outputs(self, method):
        from repro.experiments.factories import method_factories
        from repro.workflow.nfcore import build_workflow_trace

        trace = build_workflow_trace("iwd", seed=3, scale=0.05)
        factory = method_factories()[method]
        replay = OnlineSimulator(trace, backend="replay").run(factory())
        event = OnlineSimulator(
            trace,
            backend=EventDrivenBackend(arrival="poisson:40", seed=11),
            cluster="64g:2,128g:2",
            placement="best-fit",
        ).run(factory())
        (
            r_wastage, r_failures, r_runtime,
            e_wastage, e_failures, e_makespan,
            e_wait, e_util,
        ) = self.GOLDEN[method]
        assert replay.total_wastage_gbh == r_wastage
        assert replay.num_failures == r_failures
        assert replay.total_runtime_hours == r_runtime
        assert event.total_wastage_gbh == e_wastage
        assert event.num_failures == e_failures
        assert event.cluster.makespan_hours == e_makespan
        assert event.cluster.total_queue_wait_hours == e_wait
        assert event.cluster.mean_utilization == e_util
        assert event.workflows is None and replay.workflows is None


class TestManagerReuse:
    @pytest.mark.parametrize("backend", ["replay", "event"])
    def test_repeated_runs_on_one_manager(self, backend):
        manager = ResourceManager()
        trace = make_trace([1000.0, 3000.0])
        sim = OnlineSimulator(trace, manager=manager, backend=backend)
        first = sim.run(FixedPredictor(2048.0))
        second = sim.run(FixedPredictor(2048.0))
        assert second.total_wastage_gbh == pytest.approx(
            first.total_wastage_gbh
        )
        # No allocation bookkeeping leaked between runs.
        assert all(node.allocated_mb == 0.0 for node in manager.nodes)

    def test_release_all_resets_task_ids(self):
        manager = ResourceManager()
        manager.execute_attempt(
            allocated_mb=1024.0, true_peak_mb=512.0, runtime_hours=1.0
        )
        assert manager.next_task_id() > 0
        manager.release_all()
        assert manager.next_task_id() == 0

    def test_try_place_returns_none_when_full(self):
        manager = ResourceManager(
            config=MachineConfig(name="tiny", memory_mb=1024.0), n_nodes=1
        )
        node = manager.try_place(1000.0)
        assert node is not None
        node.allocate(manager.next_task_id(), 1000.0)
        assert manager.try_place(100.0) is None
