"""Tests for WorkflowInstance, the kernel's ready queue under DAG
release, and WorkflowArrivals."""

import heapq

import numpy as np
import pytest

from repro.sched import (
    WorkflowArrivals,
    WorkflowInstance,
    parse_workflow_arrival,
)
from repro.sim.kernel import ReadyQueue, TaskState
from repro.workflow.dag import WorkflowDAG
from repro.workflow.task import TaskInstance, TaskType


def make_tasks(spec, workflow="wf"):
    """``spec`` maps task-type name -> (count, runtime_hours)."""
    tasks = []
    instance_id = 0
    for name, (count, runtime) in spec.items():
        tt = TaskType(name=name, workflow=workflow, preset_memory_mb=4096.0)
        for _ in range(count):
            tasks.append(
                TaskInstance(
                    task_type=tt,
                    instance_id=instance_id,
                    input_size_mb=100.0,
                    peak_memory_mb=1000.0,
                    runtime_hours=runtime,
                )
            )
            instance_id += 1
    return tasks


def make_wi(dag, spec, key="wf#0", **kwargs):
    return WorkflowInstance(
        key=key, workflow="wf", dag=dag, tasks=make_tasks(spec), **kwargs
    )


class TestWorkflowInstance:
    def test_rejects_task_type_outside_dag(self):
        dag = WorkflowDAG(["a"])
        with pytest.raises(ValueError, match="not a node"):
            make_wi(dag, {"b": (1, 1.0)})

    def test_roots_released_first(self):
        dag = WorkflowDAG.linear_pipeline(["a", "b"])
        wi = make_wi(dag, {"a": (2, 1.0), "b": (1, 1.0)})
        ready = wi.release_roots()
        assert [t.task_type.name for t in ready] == ["a", "a"]
        assert wi.is_released("a") and not wi.is_released("b")

    def test_multi_root_release(self):
        dag = WorkflowDAG(["a", "b", "c"], [("a", "c"), ("b", "c")])
        wi = make_wi(dag, {"a": (1, 1.0), "b": (1, 1.0), "c": (1, 1.0)})
        ready = wi.release_roots()
        assert sorted(t.task_type.name for t in ready) == ["a", "b"]

    def test_successor_held_until_all_instances_succeed(self):
        dag = WorkflowDAG.linear_pipeline(["a", "b"])
        wi = make_wi(dag, {"a": (3, 1.0), "b": (1, 1.0)})
        wi.release_roots()
        assert wi.complete("a") == []
        assert wi.complete("a") == []
        released = wi.complete("a")
        assert [t.task_type.name for t in released] == ["b"]

    def test_diamond_sink_needs_both_branches(self):
        dag = WorkflowDAG(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        )
        wi = make_wi(
            dag, {"a": (1, 1.0), "b": (1, 1.0), "c": (1, 1.0), "d": (1, 1.0)}
        )
        wi.release_roots()
        both = wi.complete("a")
        assert sorted(t.task_type.name for t in both) == ["b", "c"]
        assert wi.complete("b") == []  # c still outstanding
        assert [t.task_type.name for t in wi.complete("c")] == ["d"]
        wi.complete("d")
        assert wi.done

    def test_empty_type_cascades(self):
        # b has no instances in this run; c must still be reachable.
        dag = WorkflowDAG.linear_pipeline(["a", "b", "c"])
        wi = make_wi(dag, {"a": (1, 1.0), "c": (1, 1.0)})
        wi.release_roots()
        released = wi.complete("a")
        assert [t.task_type.name for t in released] == ["c"]

    def test_complete_unknown_or_exhausted_type(self):
        dag = WorkflowDAG(["a"])
        wi = make_wi(dag, {"a": (1, 1.0)})
        wi.release_roots()
        with pytest.raises(KeyError):
            wi.complete("zzz")
        wi.complete("a")
        with pytest.raises(ValueError, match="already"):
            wi.complete("a")

    def test_critical_path_is_heaviest_path_of_type_maxima(self):
        # a(2h) -> b(1h) -> d(1h) and a -> c(5h) -> d: bound = 2+5+1.
        dag = WorkflowDAG(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        )
        wi = make_wi(
            dag, {"a": (1, 2.0), "b": (4, 1.0), "c": (2, 5.0), "d": (1, 1.0)}
        )
        assert wi.critical_path_hours() == pytest.approx(8.0)

    def test_critical_path_empty_workflow(self):
        wi = WorkflowInstance(
            key="empty#0", workflow="wf", dag=WorkflowDAG(["a"]), tasks=[]
        )
        assert wi.critical_path_hours() == 0.0
        assert wi.done


def task_states(wi):
    """One kernel state per task of ``wi``, keyed by trace instance id."""
    return {
        t.instance_id: TaskState(
            inst=t, instance_id=t.instance_id, index=t.instance_id, wi=wi
        )
        for t in wi.tasks
    }


def release(queue, states, tasks):
    """Push the states of released ``tasks`` in order, as the kernel
    pushes what a DAG driver returns; returns them."""
    released = [states[t.instance_id] for t in tasks]
    for state in released:
        queue.push(state)
    return released


def pop(queue):
    return heapq.heappop(queue._heap)[1]


def queued(queue):
    """All queued states, FCFS order (non-destructive)."""
    return [state for _, state in sorted(queue._heap, key=lambda e: e[0])]


class TestReadyQueue:
    """The kernel's FCFS ready queue under DAG release: priorities,
    requeues, the fresh-state list and ``(priority, state)`` entries."""

    def test_fcfs_across_workflow_instances(self):
        dag = WorkflowDAG.linear_pipeline(["a", "b"])
        wi1 = make_wi(dag, {"a": (1, 1.0), "b": (1, 1.0)}, key="wf#0")
        wi2 = make_wi(dag, {"a": (1, 1.0), "b": (1, 1.0)}, key="wf#1")
        s1, s2 = task_states(wi1), task_states(wi2)
        queue = ReadyQueue()
        first = release(queue, s1, wi1.release_roots())
        second = release(queue, s2, wi2.release_roots())
        assert first == [s1[0]] and second == [s2[0]]
        # wi1's root was released first, so it dispatches first.
        assert pop(queue) is s1[0]
        assert pop(queue) is s2[0]
        # wi2's successor releases before wi1's: release order rules.
        release(queue, s2, wi2.complete("a"))
        release(queue, s1, wi1.complete("a"))
        assert queued(queue) == [s2[1], s1[1]]
        assert len(queue) == 2

    def test_requeue_restores_original_priority(self):
        wi = make_wi(WorkflowDAG(["a"]), {"a": (3, 1.0)})
        states = task_states(wi)
        queue = ReadyQueue()
        release(queue, states, wi.release_roots())
        head = pop(queue)
        assert head is states[0]
        queue.requeue(head)
        # Re-queued task 0 outranks tasks released after it (1, 2).
        assert queued(queue)[0] is states[0]

    def test_unsized_follows_release_order_across_a_compaction(self):
        dag = WorkflowDAG(["a"])
        copies = [make_wi(dag, {"a": (700, 1.0)}, key=f"wf#{k}") for k in range(3)]
        queue = ReadyQueue()
        released = []
        for wi in copies[:2]:
            released += release(queue, task_states(wi), wi.release_roots())
        taken, compactions = [], 0
        while len(taken) < 1200:
            wave = queue.unsized(64)
            for state in wave:
                state.allocation = 1.0  # the kernel sizes every state it takes
            taken += wave
            compactions += queue._upos == 0
        # A copy released after the compaction keeps its place in order.
        wi = copies[2]
        released += release(queue, task_states(wi), wi.release_roots())
        while wave:
            wave = queue.unsized(64)
            for state in wave:
                state.allocation = 1.0
            taken += wave
        assert compactions >= 1
        assert taken == released
        assert queue.unsized(64) == []

    def test_unsized_skips_states_sized_elsewhere(self):
        wi = make_wi(WorkflowDAG(["a"]), {"a": (4, 1.0)})
        states = task_states(wi)
        queue = ReadyQueue()
        release(queue, states, wi.release_roots())
        states[1].allocation = 2.0
        assert queue.unsized(2) == [states[0], states[2]]
        assert queue.unsized(8) == [states[3]]

    def test_requeue_reenters_ahead_of_later_releases(self):
        # A kill (or a drain preemption) requeues a popped state at the
        # priority it was first pushed with: ahead of the successors its
        # siblings released meanwhile, and never back in the fresh list.
        dag = WorkflowDAG.linear_pipeline(["a", "b"])
        wi = make_wi(dag, {"a": (2, 1.0), "b": (2, 1.0)})
        states = task_states(wi)
        a0, a1, b0, b1 = (states[i] for i in range(4))
        queue = ReadyQueue()
        release(queue, states, wi.release_roots())
        assert queue.unsized(8) == [a0, a1]
        for state in (a0, a1):
            state.allocation = 1.0
        assert pop(queue) is a0
        assert pop(queue) is a1
        queue.requeue(a1)  # a1 killed
        assert release(queue, states, wi.complete("a")) == []  # a unsatisfied
        assert queued(queue) == [a1]
        assert pop(queue) is a1
        assert release(queue, states, wi.complete("a")) == [b0, b1]
        assert pop(queue) is b0
        queue.requeue(b0)  # b0 preempted by a drain
        assert queued(queue) == [b0, b1]
        assert [s.priority for s in (a0, a1, b0, b1)] == [0, 1, 2, 3]
        assert queue.unsized(8) == [b0, b1]

    def test_heap_entries_never_compare_states(self):
        # Priorities are unique while queued, so states need no order.
        wi = make_wi(WorkflowDAG(["a"]), {"a": (3, 1.0)})
        states = task_states(wi)
        with pytest.raises(TypeError):
            states[0] < states[1]
        queue = ReadyQueue()
        release(queue, states, wi.release_roots())
        first = pop(queue)
        queue.requeue(first)
        assert queued(queue) == [first, states[1], states[2]]
        assert all(len(entry) == 2 for entry in queue._heap)


class TestWorkflowArrivals:
    def test_defaults(self):
        wa = WorkflowArrivals()
        assert wa.n_instances == 1
        assert wa.tenant(0) == "user0"
        assert wa.sample(np.random.default_rng(0)).tolist() == [0.0]

    def test_parse_count_only(self):
        wa = parse_workflow_arrival("4")
        assert wa.n_instances == 4
        assert wa.sample(np.random.default_rng(0)).tolist() == [0.0] * 4
        # One tenant per instance by default.
        assert [wa.tenant(i) for i in range(4)] == [
            "user0", "user1", "user2", "user3"
        ]

    def test_parse_int_passthrough(self):
        assert parse_workflow_arrival(3).n_instances == 3
        wa = WorkflowArrivals(2)
        assert parse_workflow_arrival(wa) is wa

    def test_parse_fixed(self):
        wa = parse_workflow_arrival("3@fixed:1.5")
        assert wa.sample(np.random.default_rng(0)).tolist() == [0.0, 1.5, 3.0]

    def test_parse_poisson_seeded_determinism(self):
        wa = parse_workflow_arrival("5@poisson:2")
        a = wa.sample(np.random.default_rng(7))
        b = wa.sample(np.random.default_rng(7))
        c = wa.sample(np.random.default_rng(8))
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_parse_bursty(self):
        wa = parse_workflow_arrival("4@bursty:2x0.5")
        assert wa.sample(np.random.default_rng(0)).tolist() == [
            0.0, 0.0, 0.5, 0.5
        ]

    def test_parse_tenants(self):
        wa = parse_workflow_arrival("4@poisson:2@tenants:2")
        assert [wa.tenant(i) for i in range(4)] == [
            "user0", "user1", "user0", "user1"
        ]

    def test_tenants_capped_at_instances(self):
        assert WorkflowArrivals(2, n_tenants=5).n_tenants == 2

    @pytest.mark.parametrize(
        "spec",
        ["", "x", "0", "-1", "2@nope:1", "2@poisson:2@users:3",
         "2@poisson:2@tenants:x", "1@2@3@4"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_workflow_arrival(spec)

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            parse_workflow_arrival(1.5)
