"""Tests for the DAG-aware scheduling engine and its plumbing."""

import dataclasses
import gc

import pytest

from repro.cluster.machine import MachineConfig
from repro.cluster.manager import ResourceManager
from repro.sched.engine import resolve_dag
from repro.sim import (
    EventDrivenBackend,
    NodeOutage,
    OnlineSimulator,
    UnschedulableTaskError,
    run_cell,
    run_grid,
)
from repro.sim.interface import MemoryPredictor, TaskSubmission
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
    name = "Fixed"

    def __init__(self, allocation_mb: float):
        self.allocation_mb = allocation_mb

    def predict(self, task: TaskSubmission) -> float:
        return self.allocation_mb


class TestResolveDag:
    def test_trace_dag_used_by_default(self):
        dag = WorkflowDAG.linear_pipeline(["a"])
        trace = make_trace([("a", 100.0, 1.0)], dag=dag)
        assert resolve_dag(None, trace) is dag
        assert resolve_dag("trace", trace) is dag

    def test_missing_trace_dag_is_an_error(self):
        trace = make_trace([("a", 100.0, 1.0)])
        with pytest.raises(ValueError, match="carries no DAG"):
            resolve_dag("trace", trace)

    def test_linear_chains_types_in_appearance_order(self):
        trace = make_trace(
            [("b", 100.0, 1.0), ("a", 100.0, 1.0), ("b", 100.0, 1.0)]
        )
        dag = resolve_dag("linear", trace)
        assert dag.edges == [("b", "a")]

    def test_explicit_dag_must_cover_trace_types(self):
        trace = make_trace([("a", 100.0, 1.0), ("b", 100.0, 1.0)])
        with pytest.raises(ValueError, match="missing task types"):
            resolve_dag(WorkflowDAG(["a"]), trace)

    def test_garbage_rejected(self):
        trace = make_trace([("a", 100.0, 1.0)])
        with pytest.raises(ValueError, match="dag must be"):
            resolve_dag(42, trace)


class TestFlatStreamEquivalence:
    """A linear-chain DAG, one workflow instance, no contention: the DAG
    engine must reproduce the flat event stream's per-task results."""

    SPEC = [
        ("a", 1000.0, 1.0),
        ("a", 3000.0, 0.5),
        ("b", 500.0, 2.0),
        ("c", 2500.0, 0.25),
    ]

    def run_pair(self, time_to_failure=1.0):
        dag = WorkflowDAG.linear_pipeline(["a", "b", "c"])
        trace = make_trace(self.SPEC, dag=dag)
        flat = OnlineSimulator(
            trace, backend="event", time_to_failure=time_to_failure
        ).run(FixedPredictor(2048.0))
        dag_res = OnlineSimulator(
            trace,
            backend="event",
            dag="trace",
            time_to_failure=time_to_failure,
        ).run(FixedPredictor(2048.0))
        return flat, dag_res

    @pytest.mark.parametrize("ttf", [1.0, 0.5])
    def test_per_task_results_identical(self, ttf):
        flat, dag_res = self.run_pair(ttf)
        assert dag_res.total_wastage_gbh == pytest.approx(
            flat.total_wastage_gbh
        )
        assert dag_res.num_failures == flat.num_failures
        assert dag_res.total_runtime_hours == pytest.approx(
            flat.total_runtime_hours
        )
        for p_flat, p_dag in zip(flat.predictions, dag_res.predictions):
            assert p_dag.instance_id == p_flat.instance_id
            assert p_dag.first_allocation_mb == p_flat.first_allocation_mb
            assert p_dag.final_allocation_mb == p_flat.final_allocation_mb
            assert p_dag.n_attempts == p_flat.n_attempts

    def test_dag_serializes_stages(self):
        flat, dag_res = self.run_pair()
        # Flat: everything concurrent -> makespan = slowest task (2 h).
        assert flat.cluster.makespan_hours == pytest.approx(2.0)
        # DAG stage barriers: a takes 1.0 h (the killed 3000-peak task
        # restarts at 0.5 and finishes at 1.0), b adds 2.0 h, c adds
        # 0.5 h (one full-length failed attempt at ttf=1 plus the retry).
        assert dag_res.cluster.makespan_hours == pytest.approx(3.5)
        (w,) = dag_res.workflows.instances
        assert w.makespan_hours == pytest.approx(3.5)
        # The lower bound ignores sizing failures: 1.0 + 2.0 + 0.25.
        assert w.critical_path_hours == pytest.approx(3.25)
        assert w.stretch == pytest.approx(3.5 / 3.25)


class TestDependencyGating:
    def test_killed_and_requeued_task_delays_successors(self):
        # Parent is under-allocated once: killed at 0.5 h, retried for
        # 1 h.  The child must wait for the retry, not the first launch.
        dag = WorkflowDAG.linear_pipeline(["parent", "child"])
        trace = make_trace(
            [("parent", 3000.0, 1.0), ("child", 1000.0, 1.0)], dag=dag
        )
        res = OnlineSimulator(
            trace, backend="event", dag="trace", time_to_failure=0.5
        ).run(FixedPredictor(2000.0))
        assert res.num_failures == 1
        # 0.5 h failed attempt + 1 h retry + 1 h child.
        assert res.cluster.makespan_hours == pytest.approx(2.5)
        (w,) = res.workflows.instances
        assert w.n_failures == 1
        # Without dependencies the flat stream overlaps parent and child.
        flat = OnlineSimulator(
            trace, backend="event", time_to_failure=0.5
        ).run(FixedPredictor(2000.0))
        assert flat.cluster.makespan_hours == pytest.approx(1.5)

    def test_fan_out_fan_in_sink_waits_for_slowest_branch(self):
        dag = WorkflowDAG.fan_out_fan_in("src", ["p1", "p2"], "sink")
        trace = make_trace(
            [
                ("src", 100.0, 0.5),
                ("p1", 100.0, 1.0),
                ("p2", 100.0, 3.0),
                ("sink", 100.0, 0.5),
            ],
            dag=dag,
        )
        res = OnlineSimulator(trace, backend="event", dag="trace").run(
            FixedPredictor(1024.0)
        )
        # 0.5 (src) + 3.0 (slowest branch) + 0.5 (sink).
        assert res.cluster.makespan_hours == pytest.approx(4.0)
        (w,) = res.workflows.instances
        assert w.critical_path_hours == pytest.approx(4.0)
        assert w.stretch == pytest.approx(1.0)


class TestMultiWorkflow:
    def test_batch_of_instances_contend(self):
        dag = WorkflowDAG.linear_pipeline(["a"])
        trace = make_trace([("a", 1000.0, 1.0)], dag=dag)
        tiny = ResourceManager(
            config=MachineConfig(name="tiny", memory_mb=2048.0), n_nodes=1
        )
        res = OnlineSimulator(
            trace, manager=tiny, backend="event", workflow_arrival="3"
        ).run(FixedPredictor(1500.0))
        assert res.num_tasks == 3
        # One node, three one-hour tasks: strictly serialized.
        assert res.cluster.makespan_hours == pytest.approx(3.0)
        wm = res.workflows
        assert wm.n_instances == 3
        assert [w.key for w in wm.instances] == ["wf#0", "wf#1", "wf#2"]
        assert [w.tenant for w in wm.instances] == [
            "user0", "user1", "user2"
        ]
        assert sorted(w.makespan_hours for w in wm.instances) == pytest.approx(
            [1.0, 2.0, 3.0]
        )
        assert wm.max_stretch == pytest.approx(3.0)
        assert wm.mean_makespan_hours == pytest.approx(2.0)

    def test_wastage_attribution_sums_to_ledger(self):
        trace = build_workflow_trace("iwd", seed=3, scale=0.05)
        res = OnlineSimulator(
            trace,
            backend=EventDrivenBackend(
                workflow_arrival="3@poisson:2", seed=5
            ),
            cluster="64g:2,128g:2",
            placement="best-fit",
        ).run(FixedPredictor(4096.0))
        wm = res.workflows
        assert sum(w.wastage_gbh for w in wm.instances) == pytest.approx(
            res.total_wastage_gbh
        )
        assert sum(w.n_failures for w in wm.instances) == res.num_failures
        assert sum(w.queue_wait_hours for w in wm.instances) == pytest.approx(
            res.cluster.total_queue_wait_hours
        )
        assert res.num_tasks == 3 * len(trace)

    def test_instance_ids_stay_joinable_to_the_trace(self):
        # Subsampled traces have sparse ids; copy 0 must preserve them
        # exactly and copy k must offset them by a fixed stride, so
        # results join back to trace.instances like the flat backends.
        trace = build_workflow_trace("iwd", seed=3, scale=0.05)
        original_ids = sorted(t.instance_id for t in trace)
        assert original_ids != list(range(len(trace)))  # genuinely sparse
        res = OnlineSimulator(
            trace, backend="event", workflow_arrival="2"
        ).run(FixedPredictor(8192.0))
        stride = max(original_ids) + 1
        got = sorted(p.instance_id for p in res.predictions)
        assert got == sorted(
            original_ids + [i + stride for i in original_ids]
        )

    def test_poisson_workflow_arrivals_deterministic_per_seed(self):
        trace = build_workflow_trace("iwd", seed=3, scale=0.05)

        def submits(seed):
            res = OnlineSimulator(
                trace,
                backend=EventDrivenBackend(
                    workflow_arrival="3@poisson:1", seed=seed
                ),
            ).run(FixedPredictor(4096.0))
            return [w.submit_time_hours for w in res.workflows.instances]

        assert submits(7) == submits(7)
        assert submits(7) != submits(8)

    def test_tenants_round_robin(self):
        dag = WorkflowDAG.linear_pipeline(["a"])
        trace = make_trace([("a", 100.0, 1.0)], dag=dag)
        res = OnlineSimulator(
            trace, backend="event", workflow_arrival="4@fixed:0@tenants:2"
        ).run(FixedPredictor(1024.0))
        by_tenant = res.workflows.by_tenant()
        assert sorted(by_tenant) == ["user0", "user1"]
        assert all(len(v) == 2 for v in by_tenant.values())


class TestPlumbing:
    def test_replay_backend_rejects_dag_options(self):
        trace = make_trace([("a", 100.0, 1.0)])
        with pytest.raises(
            ValueError, match=r"serial \(replay\) run .* drop dag$"
        ):
            OnlineSimulator(trace, backend="replay", dag="linear")
        with pytest.raises(ValueError, match="drop workflow_arrival$"):
            OnlineSimulator(trace, backend="replay", workflow_arrival="2")

    def test_flat_event_backend_has_no_workflow_metrics(self):
        trace = make_trace([("a", 100.0, 1.0)])
        res = OnlineSimulator(trace, backend="event").run(
            FixedPredictor(1024.0)
        )
        assert res.workflows is None

    def test_dag_rejects_task_level_arrival_model(self):
        # A per-task arrival model would be silently ignored under DAG
        # scheduling; the constructor rejects the ambiguous combination.
        with pytest.raises(ValueError, match="replace the per-task"):
            EventDrivenBackend(arrival="poisson:1", dag="trace")
        with pytest.raises(ValueError, match="replace the per-task"):
            EventDrivenBackend(arrival="fixed:0.5", workflow_arrival="2")
        # The batch default (everything at t=0) stays compatible.
        assert EventDrivenBackend(dag="trace").dag == "trace"

    def test_replace_preserves_settings(self):
        backend = EventDrivenBackend(
            seed=13, node_outage="0.5:1:0", spill="run.jsonl", profile=True
        )
        configured = dataclasses.replace(
            backend, dag="linear", workflow_arrival="2"
        )
        assert configured.seed == 13
        assert configured.node_outage == (NodeOutage(0.5, 1.0, 0),)
        assert configured.spill == "run.jsonl"
        assert configured.profile is True
        assert configured.dag == "linear"
        assert configured.workflow_arrival.n_instances == 2
        # The original stays flat, and cannot be changed in place.
        assert backend.dag is None and backend.workflow_arrival is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            backend.dag = "linear"

    def test_unschedulable_task_still_raises(self):
        dag = WorkflowDAG.linear_pipeline(["a"])
        trace = make_trace([("a", 200_000.0, 1.0)], dag=dag)
        with pytest.raises(UnschedulableTaskError):
            OnlineSimulator(trace, backend="event", dag="trace").run(
                FixedPredictor(1024.0)
            )

    def test_run_cell_threads_dag_options(self):
        dag = WorkflowDAG.linear_pipeline(["a"])
        trace = make_trace([("a", 1000.0, 1.0)], dag=dag)
        res = run_cell(
            trace,
            lambda: FixedPredictor(2048.0),
            backend=EventDrivenBackend(dag="trace", workflow_arrival="2"),
        )
        assert res.workflows is not None
        assert res.workflows.n_instances == 2

    def test_run_grid_threads_dag_options(self):
        dag = WorkflowDAG.linear_pipeline(["a"])
        traces = {"wf": make_trace([("a", 1000.0, 1.0)], dag=dag)}
        results = run_grid(
            traces,
            {"Fixed": lambda: FixedPredictor(2048.0)},
            backend=EventDrivenBackend(
                dag="trace", workflow_arrival="2@fixed:0.5"
            ),
        )
        res = results["Fixed"]["wf"]
        assert res.workflows.n_instances == 2
        assert res.workflows.instances[1].submit_time_hours == pytest.approx(
            0.5
        )

    def test_empty_trace(self):
        dag = WorkflowDAG.linear_pipeline(["a"])
        trace = WorkflowTrace("wf", [], dag=dag)
        res = OnlineSimulator(
            trace, backend="event", dag="trace", workflow_arrival="2"
        ).run(FixedPredictor(1024.0))
        assert res.num_tasks == 0
        wm = res.workflows
        assert wm.n_instances == 2
        assert all(w.makespan_hours == 0.0 for w in wm.instances)
        assert all(w.stretch == 1.0 for w in wm.instances)

    def test_generated_trace_runs_with_learning_predictor(self):
        # End-to-end: a real generated DAG + Sizey under contention.
        from repro.experiments.factories import make_sizey

        trace = build_workflow_trace("iwd", seed=0, scale=0.05)
        res = OnlineSimulator(
            trace,
            backend=EventDrivenBackend(
                dag="trace", workflow_arrival="2@poisson:4", seed=1
            ),
            cluster="64g:2",
        ).run(make_sizey())
        assert res.num_tasks == 2 * len(trace)
        assert res.workflows.n_instances == 2
        for w in res.workflows.instances:
            assert w.finish_time_hours >= w.submit_time_hours
            assert w.critical_path_hours > 0


class TestSharedTaskInstances:
    """DAG copies share their trace's frozen task instances; each task
    state carries its copy's shifted id instead of a cloned instance."""

    @staticmethod
    def _kernel(trace, workflow_arrival, **backend):
        return EventDrivenBackend(
            workflow_arrival=workflow_arrival, **backend
        ).build_kernel(trace, FixedPredictor(8192.0), ResourceManager(), 1.0)

    @pytest.mark.parametrize("shard, shards", [(0, 1), (1, 2)])
    def test_states_point_at_the_trace_with_shifted_ids(self, shard, shards):
        trace = build_workflow_trace("iwd", seed=3, scale=0.05)
        by_id = {t.instance_id: t for t in trace}
        assert sorted(by_id) != list(range(len(trace)))  # sparse ids
        stride = max(by_id) + 1
        kernel = self._kernel(
            trace, "5@fixed:0.05", seed=2, shard=shard, shards=shards
        )
        result = kernel.run()
        driver = kernel.driver
        ids = []
        for wi in driver.workflows:
            k = int(wi.key.rsplit("#", 1)[1])
            assert k % shards == shard
            states = driver._states[wi.key].values()
            assert len(states) == len(trace)
            for state in states:
                assert state.inst is by_id[state.inst.instance_id]
                assert state.instance_id == (
                    state.inst.instance_id + k * stride
                )
                ids.append(state.instance_id)
        assert len(driver.workflows) == len(range(shard, 5, shards))
        assert sorted(ids) == sorted(p.instance_id for p in result.predictions)

    def test_submissions_at_sizing_and_resizing_agree(self):
        # Submissions are built when a task is sized and again when a
        # kill re-sizes it; both carry the copy's id and dense position.
        trace = build_workflow_trace("iwd", seed=3, scale=0.05)
        sized: dict[int, TaskSubmission] = {}
        resized: list[TaskSubmission] = []

        class Recording(MemoryPredictor):
            name = "recording"

            def predict(self, task):
                sized[task.instance_id] = task
                return 1024.0

            def on_failure(self, task, failed_allocation_mb, attempt):
                resized.append(task)
                return failed_allocation_mb * 2.0

        result = EventDrivenBackend(workflow_arrival="3@fixed:0.05").run(
            trace, Recording(), ResourceManager(), 1.0
        )
        assert sorted(sized) == sorted(p.instance_id for p in result.predictions)
        assert sorted(t.timestamp for t in sized.values()) == list(
            range(3 * len(trace))
        )
        assert len(resized) == result.num_failures > 0
        assert all(task == sized[task.instance_id] for task in resized)

    def test_seed_adds_about_one_tracked_object_per_task(self):
        # One slotted state per task; no per-copy instance clones and no
        # prebuilt submissions.
        trace = build_workflow_trace("rnaseq", seed=3, scale=0.3)
        kernel = self._kernel(trace, "16@poisson:2", seed=1)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            kernel.driver.seed(kernel)
            added = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        n_tasks = kernel.driver.n_tasks
        assert n_tasks == 16 * len(trace)
        assert added <= 1.5 * n_tasks


class TestDriverMaps:
    def test_one_states_dict_per_copy_and_no_other_per_task_map(self):
        # The driver maps each copy's trace instance ids to its states
        # in one dict per copy; neither it nor the kernel's ready queue
        # keeps another map, such as per-task priorities.
        trace = build_workflow_trace("iwd", seed=3, scale=0.05)
        kernel = EventDrivenBackend(
            workflow_arrival="4@fixed:0.05", seed=1
        ).build_kernel(trace, FixedPredictor(8192.0), ResourceManager(), 1.0)
        driver = kernel.driver
        assert kernel.run(until=0.0) is None  # seeds the copies
        last_arrival = driver.workflows[-1].submit_time
        assert kernel.run(until=last_arrival) is None
        keys = [wi.key for wi in driver.workflows]
        assert len(keys) == 4 and driver.n_tasks == 4 * len(trace)
        assert list(driver._states) == keys
        for wi in driver.workflows:
            states = driver._states[wi.key]
            assert sorted(states) == sorted(t.instance_id for t in wi.tasks)
            assert all(state.wi is wi for state in states.values())
        maps = [k for k, v in vars(driver).items() if isinstance(v, dict)]
        assert maps == ["_states"]
        queue = kernel.queue
        assert not any(
            isinstance(getattr(queue, slot), dict)
            for slot in type(queue).__slots__
        )
        assert kernel.run() is not None
