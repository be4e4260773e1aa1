"""Tests for the simulation backends."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.machine import MachineConfig
from repro.cluster.manager import ResourceManager
from repro.errors import ConfigError
from repro.obs.trace import TraceCollector
from repro.sched.engine import DagWorkflowDriver
from repro.sim import (
    BACKENDS,
    ClusterMetricsCollector,
    EventDrivenBackend,
    NodeOutage,
    OnlineSimulator,
    UnschedulableTaskError,
    WorkflowMetricsCollector,
)
from repro.sim.backends.base import clamp_allocation_checked
from repro.sim.backends.event import FlatStreamDriver, SerialDriver
from repro.sim.interface import MemoryPredictor, TaskSubmission, TraceContext
from repro.workflow.dag import WorkflowDAG
from repro.workflow.nfcore import build_workflow_trace
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
    def test_backend_names(self):
        # Two configurations of the one backend, named by their key.
        assert {name: b.name for name, b in BACKENDS.items()} == {
            "replay": "replay",
            "event": "event",
        }
        assert BACKENDS["replay"].serial and not BACKENDS["event"].serial
        assert OnlineSimulator(make_trace([100.0])).backend is BACKENDS["replay"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            OnlineSimulator(make_trace([100.0]), backend="nope")

    def test_instance_accepted(self):
        sim = OnlineSimulator(
            make_trace([100.0]), backend=EventDrivenBackend()
        )
        assert sim.backend.name == "event"

    def test_rejects_non_backend(self):
        with pytest.raises(TypeError, match="EventDrivenBackend"):
            OnlineSimulator(make_trace([100.0]), backend=42)

    @pytest.mark.parametrize(
        "options, named",
        [
            (dict(arrival="poisson:2"), "arrival"),
            (dict(dag="trace"), "dag"),
            (dict(workflow_arrival="2"), "workflow_arrival"),
            (dict(shards=2), "shards"),
            (dict(arrival="fixed:0.5", dag="linear"), "arrival, dag"),
        ],
    )
    def test_serial_refuses_what_picks_another_driver(self, options, named):
        with pytest.raises(ConfigError, match=f"one task in flight.*drop {named}$"):
            EventDrivenBackend(serial=True, **options)

    def test_serial_accepts_the_batch_arrival_it_derives_from(self):
        # dataclasses.replace hands the parsed default arrival back in.
        backend = dataclasses.replace(BACKENDS["replay"], profile=True)
        assert backend.serial and backend.profile


class TestBuildKernel:
    """Every :class:`EventDrivenBackend` field reaches the kernel it builds."""

    @pytest.mark.parametrize("mode", ["flat", "dag"])
    def test_every_field_reaches_the_kernel(self, mode, tmp_path):
        trace = make_trace([100.0, 200.0, 300.0, 400.0])
        if mode == "flat":
            arrival = dict(arrival="poisson:2")
        else:
            trace = WorkflowTrace("wf", list(trace), dag=WorkflowDAG(["t"]))
            arrival = dict(dag="trace", workflow_arrival="4@poisson:2")
        spill = str(tmp_path / "spill.jsonl")
        trace_path = str(tmp_path / "trace.json")
        backend = EventDrivenBackend(
            **arrival,
            seed=5,
            node_outage="0.5:1:1",
            shard=1,
            shards=2,
            stream_collectors=True,
            spill=spill,
            profile=True,
            trace=trace_path,
            trace_limit=64,
        )
        kernel = backend.build_kernel(
            trace, FixedPredictor(1024.0), ResourceManager(), 1.0
        )
        driver = kernel.driver
        if mode == "flat":
            assert type(driver) is FlatStreamDriver
            assert driver.arrival is backend.arrival
        else:
            assert type(driver) is DagWorkflowDriver
            assert driver.dag == "trace"
            assert driver.arrivals is backend.workflow_arrival
        assert (driver.rng_seed, driver.shard, driver.shards) == (5, 1, 2)
        wastage, cluster, *rest = kernel.collectors
        assert wastage is kernel.wastage
        assert not wastage.keep_logs and wastage.spill == spill
        assert type(cluster) is ClusterMetricsCollector and cluster.stream
        if mode == "dag":
            workflows, *rest = rest
            assert type(workflows) is WorkflowMetricsCollector
        (tracer,) = rest
        assert type(tracer) is TraceCollector
        assert (tracer.path, tracer.limit) == (trace_path, 64)
        assert kernel.outages == (NodeOutage(0.5, 1.0, 1),)
        assert kernel.stream_collectors and kernel.profile is not None
        result = kernel.run()
        # Shard 1 of 2: two of the 4 tasks, or two of the 4 instances.
        assert result.summary.n_tasks == (2 if mode == "flat" else 8)
        assert result.profile is kernel.profile

    def test_serial_builds_the_replay_kernel(self, tmp_path):
        # One task in flight and no cluster metrics; the kernel-level
        # options reach it as they reach a flat or DAG kernel.
        trace = make_trace([100.0, 200.0, 300.0, 400.0])
        plain = BACKENDS["replay"].build_kernel(
            trace, FixedPredictor(1024.0), ResourceManager(), 1.0
        )
        assert type(plain.driver) is SerialDriver
        assert plain.collectors == (plain.wastage,)
        assert plain.outages == () and plain.profile is None
        spill = str(tmp_path / "spill.jsonl")
        trace_path = str(tmp_path / "trace.json")
        kernel = EventDrivenBackend(
            serial=True,
            node_outage="0.5:1:1",
            stream_collectors=True,
            spill=spill,
            profile=True,
            trace=trace_path,
            trace_limit=64,
        ).build_kernel(trace, FixedPredictor(1024.0), ResourceManager(), 1.0)
        assert type(kernel.driver) is SerialDriver
        wastage, tracer = kernel.collectors
        assert wastage is kernel.wastage
        assert not wastage.keep_logs and wastage.spill == spill
        assert type(tracer) is TraceCollector
        assert (tracer.path, tracer.limit) == (trace_path, 64)
        assert kernel.outages == (NodeOutage(0.5, 1.0, 1),)
        result = kernel.run()
        assert result.summary.n_tasks == 4 and result.cluster is None
        assert result.summary.makespan_hours == 4.0
        assert result.profile is kernel.profile


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

    def test_fixed_arrivals_stagger_submissions(self):
        trace = make_trace([1000.0, 1000.0])
        res = OnlineSimulator(
            trace, backend=EventDrivenBackend(arrival="fixed:0.25")
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
        with pytest.raises(ValueError, match="interval_hours"):
            EventDrivenBackend(arrival="fixed:-1")
        with pytest.raises(ValueError, match="shard"):
            EventDrivenBackend(shard=2, shards=2)
        # The limit bounds the trace file's ring buffer: alone it would
        # bound nothing.
        with pytest.raises(ConfigError, match="trace_limit needs"):
            EventDrivenBackend(trace_limit=5)

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


class _NaNPredictor(MemoryPredictor):
    """A buggy predictor: NaN for one task's first sizing, or for every
    retry (its first guesses of 1 MB all fail)."""

    name = "NaN"

    def __init__(self, source: str):
        self.source = source
        self.nan_ids: list[int] = []

    def _nan(self, task: TaskSubmission) -> float:
        self.nan_ids.append(task.instance_id)
        return float("nan")

    def predict(self, task: TaskSubmission) -> float:
        if self.source == "on_failure":
            return 1.0
        return self._nan(task) if task.timestamp == 5 else 4096.0

    def on_failure(self, task, failed_allocation_mb, attempt):
        return self._nan(task)


class _CopyNaNPredictor(_NaNPredictor):
    """NaN only for the tasks of a later DAG copy (ids from ``first_id``);
    every other retry falls back to the kernel's doubling floor."""

    def __init__(self, source: str, first_id: int):
        super().__init__(source)
        self.first_id = first_id

    def predict(self, task: TaskSubmission) -> float:
        if self.source == "on_failure":
            return 1.0
        return self._nan(task) if task.instance_id >= self.first_id else 4096.0

    def on_failure(self, task, failed_allocation_mb, attempt):
        return self._nan(task) if task.instance_id >= self.first_id else 0.0


class TestNaNAllocation:
    """A NaN allocation passes every bound and fits no node; the one
    clamp refuses it as a predictor bug instead of cutting the run
    short (flat), ending it with unfinished workflows (DAG) or raising
    an out-of-memory error (replay)."""

    @pytest.mark.parametrize("source", ["predict", "on_failure"])
    @pytest.mark.parametrize(
        "backend",
        [
            "replay",
            EventDrivenBackend(),
            EventDrivenBackend(stream_collectors=True),
            EventDrivenBackend(dag="trace"),
        ],
        ids=["replay", "flat", "flat-stream", "dag"],
    )
    def test_nan_allocation_raises_value_error(self, backend, source):
        trace = build_workflow_trace("iwd", seed=0, scale=0.05)
        predictor = _NaNPredictor(source)
        with pytest.raises(ValueError, match="at nan MB") as exc:
            OnlineSimulator(trace, backend=backend).run(predictor)
        assert not isinstance(exc.value, ConfigError)
        message = str(exc.value)
        assert f"task instance {predictor.nan_ids[0]} of type 'iwd/" in message

    @pytest.mark.parametrize("source", ["predict", "on_failure"])
    def test_dag_copy_reports_its_shifted_instance_id(self, source):
        # The second copy's ids are its trace's, shifted past the first
        # copy's; the error names the id the run reports.
        trace = build_workflow_trace("iwd", seed=0, scale=0.05)
        first_id = 1 + max(t.instance_id for t in trace)
        predictor = _CopyNaNPredictor(source, first_id)
        backend = EventDrivenBackend(workflow_arrival="2")
        with pytest.raises(ValueError, match="at nan MB") as exc:
            OnlineSimulator(trace, backend=backend).run(predictor)
        shifted = predictor.nan_ids[0]
        assert shifted >= first_id
        assert f"task instance {shifted} of type 'iwd/" in str(exc.value)


class TestClampAllocationChecked:
    """The one allocation clamp: replay, the kernel's sizing wave and its
    re-size after a kill all size through it."""

    @staticmethod
    def _clamp(request_mb, peak_mb=100.0, instance_id=7):
        manager = ResourceManager(
            MachineConfig(name="small", memory_mb=4096.0), n_nodes=2
        )
        (inst,) = make_trace([peak_mb])
        return clamp_allocation_checked(manager, inst, request_mb, instance_id)

    @pytest.mark.parametrize(
        "request_mb, clamped",
        [
            (0.25, 1.0),
            (float("-inf"), 1.0),
            (np.float32(1536.0), 1536.0),
            (5000.0, 4096.0),
            (float("inf"), 4096.0),
        ],
    )
    def test_clamps_to_one_mb_and_the_largest_node(self, request_mb, clamped):
        got = self._clamp(request_mb)
        assert got == clamped
        assert type(got) is float

    def test_nan_names_the_reported_instance_id(self):
        # A DAG copy reports its trace's id shifted past earlier copies:
        # the message names the id it is given, not the trace's.
        with pytest.raises(ValueError) as exc:
            self._clamp(float("nan"), instance_id=107)
        assert not isinstance(exc.value, ConfigError)
        assert "task instance 107 of type 'wf/t' at nan MB" in str(exc.value)

    def test_unschedulable_names_the_reported_instance_id(self):
        with pytest.raises(UnschedulableTaskError) as exc:
            self._clamp(1024.0, peak_mb=5000.0, instance_id=107)
        err = exc.value
        assert (err.instance_id, err.task_type) == (107, "wf/t")
        assert err.capacity_mb == 4096.0


class TestPr2GoldenRegression:
    """Replay and flat-stream event outputs must stay bit-for-bit
    identical to the PR 2 engines.

    The golden numbers below were produced by the pre-DAG code (commit
    f46141f) on ``iwd`` (seed=3, scale=0.05) — replay totals plus an
    event run on a heterogeneous best-fit cluster with Poisson
    arrivals.  Any drift here means the DAG subsystem leaked into the
    flat paths.  The Sizey row was re-recorded when its incremental MLP
    update went from 20 to 5 Adam steps (a learning change judged on the
    quality gate of docs/QUALITY.md, not a kernel change).  The replay
    wastage of Sizey and Witt-Percentile moved by one ulp when replay
    became the kernel with one task in flight: the kernel charges a
    killed attempt its clock difference ``(start + runtime * ttf) -
    start``, where the old serial loop charged ``runtime * ttf``.
    """

    GOLDEN = {
        "Sizey": (
            0.2600366125004515, 16, 0.3516579539525154,
            0.27840887637285305, 18, 1.856844235835395,
            0.0, 0.0013999429582942486,
        ),
        "Witt-Percentile": (
            0.3368474205040336, 11, 0.33687057934532866,
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
        node = manager.try_place(1024.0)
        node.allocate(manager.next_task_id(), 1024.0)
        assert manager.next_task_id() > 0
        manager.release_all()
        assert manager.next_task_id() == 0
        assert node.allocated_mb == 0.0 and not node.running

    def test_try_place_returns_none_when_full(self):
        manager = ResourceManager(
            config=MachineConfig(name="tiny", memory_mb=1024.0), n_nodes=1
        )
        node = manager.try_place(1000.0)
        assert node is not None
        node.allocate(manager.next_task_id(), 1000.0)
        assert manager.try_place(100.0) is None
