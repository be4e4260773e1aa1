"""Node drain/outage scenario: parsing, pausing, preemption, both modes."""

import pytest

from repro.cluster.machine import MachineConfig
from repro.cluster.manager import ResourceManager
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.sim.kernel.outage import (
    NodeOutage,
    parse_node_outage,
    parse_node_outages,
)
from repro.sim.results import result_to_dict
from repro.workflow.dag import WorkflowDAG

from tests.sim.test_kernel import FixedPredictor, make_trace


class TestParsing:
    def test_spec_round_trip(self):
        outage = parse_node_outage("0.5:2:3")
        assert outage == NodeOutage(0.5, 2.0, 3)
        assert outage.end_hours == 2.5
        assert parse_node_outage(outage.spec) == outage

    @pytest.mark.parametrize(
        "bad",
        ["", "1:2", "1:2:3:4", "x:1:0", "1:x:0", "1:1:x",
         "-1:1:0", "1:0:0", "1:-2:0", "1:1:-1"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_node_outage(bad)

    def test_normalizer_accepts_singletons_lists_and_none(self):
        assert parse_node_outages(None) == ()
        assert parse_node_outages("1:1:0") == (NodeOutage(1.0, 1.0, 0),)
        assert parse_node_outages(
            ["1:1:0", NodeOutage(2.0, 1.0, 1)]
        ) == (NodeOutage(1.0, 1.0, 0), NodeOutage(2.0, 1.0, 1))

    def test_unknown_node_rejected_at_run_time(self):
        trace = make_trace([("a", 100.0, 1.0)])
        manager = ResourceManager(
            MachineConfig(name="tiny", memory_mb=512.0), n_nodes=2
        )
        backend = EventDrivenBackend(node_outage="0:1:9")
        with pytest.raises(ValueError, match="unknown node 9"):
            backend.run(trace, FixedPredictor(200.0), manager, 1.0)

    @pytest.mark.parametrize("start", [float("nan"), float("inf")])
    def test_non_finite_start_rejected(self, start):
        with pytest.raises(ValueError, match="outage start must be >= 0"):
            NodeOutage(start, 1.0, 0)

    def test_nan_duration_rejected(self):
        with pytest.raises(ValueError, match="outage duration must be positive"):
            NodeOutage(1.0, float("nan"), 0)
        with pytest.raises(ValueError, match="bad node-outage spec 'nan:0.1:0'"):
            parse_node_outage("nan:0.1:0")

    def test_infinite_duration_is_a_permanent_drain(self):
        outage = parse_node_outage("1:inf:0")
        assert outage == NodeOutage(1.0, float("inf"), 0)
        assert outage.end_hours == float("inf")
        # Node 0 goes at t = 1 h and never returns: the task that would
        # have used it waits for node 1 instead.
        trace = make_trace([("a", 100.0, 2.0), ("a", 100.0, 2.0), ("a", 100.0, 2.0)])
        backend = EventDrivenBackend(node_outage=outage)
        res = backend.run(
            trace, FixedPredictor(300.0), one_node_manager(n_nodes=2), 1.0
        )
        assert res.num_failures == 0
        # Tasks 0 and 1 start at t = 0; task 0 is preempted at t = 1 and
        # restarts on node 1 after task 1 ends (t = 2), task 2 after it.
        assert res.cluster.makespan_hours == pytest.approx(6.0)


def one_node_manager(memory_mb=512.0, n_nodes=1):
    return ResourceManager(
        MachineConfig(name="tiny", memory_mb=memory_mb), n_nodes=n_nodes
    )


class TestDrainSemantics:
    def test_drain_pauses_placement_until_window_ends(self):
        # The only node is down for [0, 2); the batch-submitted task can
        # only start once the drain lifts.
        trace = make_trace([("a", 100.0, 1.0)])
        backend = EventDrivenBackend(node_outage="0:2:0")
        res = backend.run(
            trace, FixedPredictor(200.0), one_node_manager(), 1.0
        )
        assert res.num_failures == 0
        assert res.cluster.total_queue_wait_hours == pytest.approx(2.0)
        assert res.cluster.makespan_hours == pytest.approx(3.0)

    def test_running_task_is_preempted_and_requeued(self):
        # The task starts at t=0 and runs 2 h; the node drains at t=1
        # for 1 h.  The attempt is preempted (no ledger failure), and
        # the full runtime replays after the node returns: 1 h of lost
        # work + 1 h drain + 2 h clean run.
        trace = make_trace([("a", 100.0, 2.0)])
        backend = EventDrivenBackend(node_outage="1:1:0")
        res = backend.run(
            trace, FixedPredictor(200.0), one_node_manager(), 1.0
        )
        assert res.num_failures == 0  # preemption is not a sizing fault
        assert [o.success for o in res.ledger.outcomes] == [True]
        assert res.predictions[0].n_attempts == 1  # budget untouched
        assert res.cluster.makespan_hours == pytest.approx(4.0)
        # The pre-drain hour still counts as occupied memory.
        assert res.cluster.node_busy_memory_gbh[0] == pytest.approx(
            200.0 / 1024.0 * (1.0 + 2.0)
        )

    def test_drain_only_affects_named_node(self):
        # Two nodes, node 0 drained the whole run: all work must land on
        # node 1.
        trace = make_trace([("a", 100.0, 1.0), ("a", 100.0, 1.0)])
        backend = EventDrivenBackend(node_outage="0:10:0")
        res = backend.run(
            trace, FixedPredictor(200.0), one_node_manager(n_nodes=2), 1.0
        )
        assert res.cluster.node_busy_memory_gbh[0] == 0.0
        assert res.cluster.node_busy_memory_gbh[1] > 0.0

    def test_overlapping_drains_on_one_node(self):
        # Two windows [0,2) and [1,3) overlap; the node is only usable
        # from t=3.
        trace = make_trace([("a", 100.0, 1.0)])
        backend = EventDrivenBackend(node_outage=["0:2:0", "1:2:0"])
        res = backend.run(
            trace, FixedPredictor(200.0), one_node_manager(), 1.0
        )
        assert res.cluster.total_queue_wait_hours == pytest.approx(3.0)

    def test_preempted_task_killed_later_still_charges_ledger(self):
        # Under-allocated task: preempted once, then killed on the
        # retry of the same attempt, then succeeds after escalation —
        # the ledger sees exactly one failure.
        trace = make_trace([("a", 300.0, 1.0)])
        backend = EventDrivenBackend(node_outage="0.5:0.5:0")
        res = backend.run(
            trace, FixedPredictor(200.0), one_node_manager(), 1.0
        )
        assert res.num_failures == 1
        assert [o.success for o in res.ledger.outcomes] == [False, True]


class TestBothModes:
    def _trace(self):
        dag = WorkflowDAG(["a", "b"], [("a", "b")])
        return make_trace(
            [("a", 300.0, 1.0), ("a", 120.0, 0.4), ("b", 450.0, 0.5),
             ("b", 80.0, 0.2)],
            dag=dag,
        )

    def test_outage_works_in_dag_mode_and_attribution_balances(self):
        trace = self._trace()
        backend = EventDrivenBackend(
            dag="trace", workflow_arrival="2@fixed:0.1",
            node_outage="0.3:0.5:0", seed=1,
        )
        res = backend.run(
            trace, FixedPredictor(256.0), one_node_manager(n_nodes=2), 0.8
        )
        assert res.workflows is not None
        # Preemptions charge nothing, so per-workflow wastage still sums
        # to the ledger exactly.
        total = sum(w.wastage_gbh for w in res.workflows.instances)
        assert total == pytest.approx(res.total_wastage_gbh)

    def test_outage_deterministic_in_both_modes(self):
        trace = self._trace()
        for kwargs in (
            dict(arrival="poisson:3", seed=5, node_outage="0.2:0.4:1"),
            dict(dag="trace", workflow_arrival="2@poisson:4", seed=5,
                 node_outage="0.2:0.4:1"),
        ):
            runs = [
                result_to_dict(
                    EventDrivenBackend(**kwargs).run(
                        trace,
                        FixedPredictor(256.0),
                        one_node_manager(n_nodes=2),
                        0.8,
                    )
                )
                for _ in range(2)
            ]
            assert runs[0] == runs[1]

    def test_online_simulator_threads_node_outage(self):
        trace = make_trace([("a", 100.0, 1.0)])
        sim = OnlineSimulator(
            trace, manager=one_node_manager(), backend="event",
            node_outage="0:2:0",
        )
        res = sim.run(FixedPredictor(200.0))
        assert res.cluster.makespan_hours == pytest.approx(3.0)

    def test_replay_waits_out_a_drain(self):
        # The only node is down for [0, 2): the replay's one task starts
        # when the drain lifts.  A drain is not a sizing fault, so the
        # ledger is the plain replay's.
        trace = make_trace([("a", 100.0, 1.0)])
        plain = OnlineSimulator(trace, manager=one_node_manager()).run(
            FixedPredictor(200.0)
        )
        res = OnlineSimulator(
            trace, manager=one_node_manager(), backend="replay",
            node_outage="0:2:0",
        ).run(FixedPredictor(200.0))
        assert res.cluster is None  # replay measures no cluster
        assert res.summary.makespan_hours == pytest.approx(3.0)
        assert plain.summary.makespan_hours == pytest.approx(1.0)
        assert res.total_wastage_gbh == plain.total_wastage_gbh
        assert res.total_runtime_hours == plain.total_runtime_hours
        assert res.num_failures == plain.num_failures == 0

    def test_replay_preempts_and_requeues_its_running_task(self):
        # The 1 h task starts at t = 0; node 0 drains at t = 0.5 for 1 h,
        # preempting it.  It reruns from scratch at t = 1.5 with its
        # allocation and attempt budget intact, and the next task waits.
        trace = make_trace([("a", 100.0, 1.0), ("a", 150.0, 1.0)])
        plain = OnlineSimulator(trace, manager=one_node_manager()).run(
            FixedPredictor(200.0)
        )
        res = OnlineSimulator(
            trace, manager=one_node_manager(), backend="replay",
            node_outage="0.5:1:0",
        ).run(FixedPredictor(200.0))
        assert res.summary.makespan_hours == pytest.approx(3.5)
        assert [p.n_attempts for p in res.predictions] == [1, 1]
        assert [o.success for o in res.ledger.outcomes] == [True, True]
        assert res.total_wastage_gbh == plain.total_wastage_gbh
        assert res.total_runtime_hours == plain.total_runtime_hours
