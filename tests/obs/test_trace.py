"""Chrome trace export: schema validity, lanes, ring buffer, file write.

The contract under test is the Chrome ``trace_event`` format itself —
every emitted event must carry the fields the Perfetto / about:tracing
loaders require for its phase type — plus the collector's own
guarantees: one occupancy lane per concurrent attempt, metadata exempt
from ring-buffer eviction, and outage spans pinned to lane 0.

Integration runs go through the public seam (``trace_path=`` on
:class:`OnlineSimulator`) and assert on the written file; the
collector's in-memory bookkeeping is covered unit-style with fake
kernel states.
"""

import json
from types import SimpleNamespace

import pytest

from repro.cluster.machine import MachineConfig
from repro.cluster.manager import ResourceManager
from repro.experiments.factories import method_factories
from repro.obs.trace import CLUSTER_PID, OUTAGE_TID, US_PER_HOUR, TraceCollector
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.sim.interface import MemoryPredictor
from repro.sim.kernel import SUCCESS
from repro.workflow.nfcore import build_workflow_trace
from repro.workflow.task import TaskInstance, TaskType, WorkflowTrace

#: Required keys per Chrome trace phase type.
_REQUIRED = {
    "X": {"name", "cat", "ph", "ts", "dur", "pid", "tid"},
    "i": {"name", "cat", "ph", "ts", "pid", "tid", "s"},
    "C": {"name", "ph", "ts", "pid", "args"},
    "M": {"name", "ph", "pid", "args"},
}


def _run_with_trace(path, limit=None, node_outage=None):
    """Run the kill-heavy flat scenario with tracing to ``path``."""
    trace = build_workflow_trace("iwd", seed=3, scale=0.05)
    backend_kwargs = dict(arrival="poisson:600", seed=7)
    if node_outage is not None:
        backend_kwargs["node_outage"] = node_outage
    backend = EventDrivenBackend(**backend_kwargs)
    sim = OnlineSimulator(
        trace,
        backend=backend,
        time_to_failure=0.7,
        cluster="4g:2",
        trace_path=str(path),
        trace_limit=limit,
    )
    result = sim.run(method_factories()["Witt-Percentile"]())
    events = json.loads(path.read_text())["traceEvents"]
    return result, events


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    return _run_with_trace(path)


class TestSchema:
    def test_every_event_is_well_formed(self, traced):
        _, events = traced
        assert events, "run produced no trace events"
        for event in events:
            required = _REQUIRED.get(event["ph"])
            assert required is not None, f"unknown phase {event['ph']!r}"
            missing = required - set(event)
            assert not missing, f"{event['ph']} event missing {missing}"
            if "ts" in event:
                assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_metadata_first_and_names_every_process(self, traced):
        _, events = traced
        meta = [e for e in events if e["ph"] == "M"]
        # Metadata leads the stream so viewers name tracks up front.
        assert events[: len(meta)] == meta
        named = {e["pid"]: e["args"]["name"] for e in meta}
        assert named[CLUSTER_PID] == "cluster"
        used_pids = {
            e["pid"] for e in events if e["ph"] != "M" and e["pid"] != CLUSTER_PID
        }
        assert used_pids <= set(named)

    def test_span_categories_and_counter_track(self, traced):
        result, events = traced
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["cat"] for e in spans} <= {
            "success",
            "kill",
            "preempt",
            "outage",
        }
        n_success = sum(e["cat"] == "success" for e in spans)
        assert n_success == result.num_tasks
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and all(e["pid"] == CLUSTER_PID for e in counters)
        assert all(e["args"]["tasks"] >= 0 for e in counters)

    def test_kills_emit_instant_markers(self, traced):
        result, events = traced
        assert result.num_failures > 0, "scenario must produce kills"
        kills = [e for e in events if e["ph"] == "i" and e["cat"] == "kill"]
        assert len(kills) == result.num_failures
        for kill in kills:
            assert kill["args"]["allocated_mb"] < kill["args"]["peak_memory_mb"]

    def test_outage_spans_land_on_lane_zero(self, tmp_path):
        _, events = _run_with_trace(
            tmp_path / "trace.json", node_outage="0.005:0.02:0"
        )
        outages = [e for e in events if e.get("cat") == "outage"]
        assert outages, "outage scenario produced no outage span"
        for span in outages:
            assert span["tid"] == OUTAGE_TID
            assert span["dur"] == pytest.approx(0.02 * US_PER_HOUR)

    def test_preempted_attempt_keeps_its_attempt_number(self, tmp_path):
        # One 1 h task on one 2 GB node, drained from 0.5 h to 0.75 h:
        # the preempted first attempt hands its attempt back, so the
        # re-run is attempt 1 again — in both spans and in the ledger.
        task_type = TaskType(name="t", workflow="wf", preset_memory_mb=1000.0)
        trace = WorkflowTrace(
            "wf",
            [
                TaskInstance(
                    task_type=task_type,
                    instance_id=0,
                    input_size_mb=1.0,
                    peak_memory_mb=800.0,
                    runtime_hours=1.0,
                )
            ],
        )

        class Fixed(MemoryPredictor):
            name = "Fixed"

            def predict(self, task):
                return 1000.0

        path = tmp_path / "trace.json"
        backend = EventDrivenBackend(
            arrival="fixed:0", node_outage=["0.5:0.25:0"], trace=str(path)
        )
        manager = ResourceManager(
            MachineConfig(name="m", memory_mb=2048.0), n_nodes=1
        )
        result = backend.run(trace, Fixed(), manager, 1.0)
        events = json.loads(path.read_text())["traceEvents"]
        spans = [
            (e["cat"], e["args"]["attempt"])
            for e in events
            if e["ph"] == "X" and e["cat"] != "outage"
        ]
        assert spans == [("preempt", 1), ("success", 1)]
        assert [o.attempt for o in result.ledger.outcomes] == [1]

    def test_dag_copies_keep_their_ids(self, tmp_path):
        # DAG copies share their trace's task instances; every span and
        # marker must carry the copy's shifted id, as the logs do.
        trace = build_workflow_trace("iwd", seed=3, scale=0.05)
        path = tmp_path / "dag.json"
        sim = OnlineSimulator(
            trace,
            backend=EventDrivenBackend(
                dag="trace", workflow_arrival="3@fixed:0.05", seed=1
            ),
            cluster="64g:2",
            trace_path=str(path),
        )
        result = sim.run(method_factories()["Witt-LR"]())
        events = json.loads(path.read_text())["traceEvents"]
        logged = sorted(p.instance_id for p in result.predictions)
        assert len(set(logged)) == 3 * len(trace)
        spans = [e for e in events if e["ph"] == "X" and e["cat"] != "outage"]
        assert sorted(
            e["args"]["instance_id"] for e in spans if e["cat"] == "success"
        ) == logged
        marked = {e["args"]["instance_id"] for e in events if e["ph"] == "i"}
        assert {e["args"]["instance_id"] for e in spans} | marked <= set(
            logged
        )


class TestLanes:
    def test_occupancy_spans_never_overlap_within_a_lane(self, traced):
        _, events = traced
        lanes: dict[tuple, list] = {}
        for e in events:
            if e["ph"] == "X" and e.get("cat") != "outage":
                lanes.setdefault((e["pid"], e["tid"]), []).append(
                    (e["ts"], e["ts"] + e["dur"])
                )
        assert lanes
        for (pid, tid), spans in lanes.items():
            assert tid != OUTAGE_TID, "task span on the outage lane"
            spans.sort()
            for (_, prev_end), (start, _) in zip(spans, spans[1:]):
                assert start >= prev_end - 1e-6, (
                    f"overlapping spans on pid={pid} tid={tid}"
                )

    def test_lanes_are_recycled(self, traced):
        # Lane numbers stay small: released lanes are reused (min-heap),
        # so the lane count tracks peak concurrency, not task count.
        _, events = traced
        task_spans = [
            e for e in events if e["ph"] == "X" and e.get("cat") != "outage"
        ]
        max_tid = max(e["tid"] for e in task_spans)
        assert len(task_spans) > max_tid * 3


class TestRingBuffer:
    def test_limit_bounds_events_but_not_metadata(self, traced, tmp_path):
        _, all_events = traced
        full = [e for e in all_events if e["ph"] != "M"]
        limit = 50
        assert len(full) > limit
        _, events = _run_with_trace(tmp_path / "trace.json", limit=limit)
        kept = [e for e in events if e["ph"] != "M"]
        assert len(kept) == limit
        # Eviction drops the *oldest* events; metadata survives in full.
        assert kept == full[-limit:]
        assert [e for e in events if e["ph"] == "M"] == [
            e for e in all_events if e["ph"] == "M"
        ]

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="trace_limit"):
            TraceCollector(limit=limit)


# ----------------------------------------------------------------------
# unit-level: lane bookkeeping with fake kernel states
# ----------------------------------------------------------------------
def _state(iid: int, attempt: int = 1) -> SimpleNamespace:
    inst = SimpleNamespace(
        instance_id=iid,
        task_type=SimpleNamespace(name="task"),
        peak_memory_mb=100.0,
    )
    return SimpleNamespace(
        inst=inst, instance_id=iid, attempt=attempt, running=(0, 0.0, 2048.0)
    )


_NODE = SimpleNamespace(node_id=0)


class TestUnitLanes:
    def test_concurrent_states_get_distinct_lanes_and_recycle(self):
        collector = TraceCollector()
        a, b, c = _state(1), _state(2), _state(3)
        collector.on_dispatch(a, 0.0, _NODE, 0.0)
        collector.on_dispatch(b, 0.0, _NODE, 0.0)
        assert collector._lane_of[id(a)] == (0, OUTAGE_TID + 1)
        assert collector._lane_of[id(b)] == (0, OUTAGE_TID + 2)
        collector.on_attempt_end(a, 1.0, _NODE, 2048.0, 1.0, SUCCESS)
        # The freed lane (the lowest) is reused before a new one opens.
        collector.on_dispatch(c, 1.0, _NODE, 0.0)
        assert collector._lane_of[id(c)] == (0, OUTAGE_TID + 1)

    def test_release_then_outcome_emits_one_categorized_span(self):
        collector = TraceCollector()
        s = _state(1)
        collector.on_dispatch(s, 0.0, _NODE, 0.0)
        collector.on_attempt_end(s, 2.0, _NODE, 2048.0, 2.0, SUCCESS)
        (span,) = [e for e in collector.trace_events() if e["ph"] == "X"]
        assert span["cat"] == "success"
        assert span["ts"] == pytest.approx(0.0)
        assert span["dur"] == pytest.approx(2.0 * US_PER_HOUR)

    def test_retry_dispatch_emits_resize_instant(self):
        collector = TraceCollector()
        s = _state(1, attempt=2)
        collector.on_dispatch(s, 0.5, _NODE, 0.0)
        (resize,) = [
            e for e in collector.trace_events() if e.get("cat") == "resize"
        ]
        assert resize["ph"] == "i"
        assert resize["args"]["attempt"] == 2
        assert resize["args"]["allocated_mb"] == pytest.approx(2048.0)

    def test_no_path_keeps_events_in_memory_only(self, tmp_path):
        collector = TraceCollector()
        s = _state(1)
        collector.on_dispatch(s, 0.0, _NODE, 0.0)
        collector.on_attempt_end(s, 1.0, _NODE, 2048.0, 1.0, SUCCESS)
        collector.contribute(result=None)  # no path: must not write
        assert collector.path is None
        assert not list(tmp_path.iterdir())
        assert collector.trace_events()
