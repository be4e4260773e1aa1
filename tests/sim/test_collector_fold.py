"""The collectors' one fold: its chunk size never shows in a result.

The wastage and cluster collectors buffer one compact row per attempt
end (and per dispatch) and fold the rows in completion order every
``FOLD_ROWS`` rows and at ``contribute``.  Exact, streaming and spill
runs share that fold, so these tests shrink ``FOLD_ROWS`` to 7 — many
folds per run, with kills, preemptions, pauses and resumes landing
mid-chunk — and require the outputs of the default size: the committed
goldens, whole result and summary dicts, and spill files byte for byte.
"""

import json
import pickle

import pytest

from repro.cluster.machine import MachineConfig
from repro.cluster.manager import ResourceManager
from repro.experiments.factories import method_factories
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.sim.interface import MemoryPredictor, TaskSubmission
from repro.sim.kernel import collectors
from repro.sim.kernel.collectors import WastageCollector
from repro.sim.results import result_to_dict, summary_to_dict
from repro.workflow.nfcore import build_workflow_trace
from repro.workflow.task import TaskInstance, TaskType, WorkflowTrace

from tests.sim.test_golden_regression import GOLDEN_DIR, SCENARIOS, run_scenario

SMALL_FOLD = 7


@pytest.fixture
def small_fold(monkeypatch):
    monkeypatch.setattr(collectors, "FOLD_ROWS", SMALL_FOLD)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_small_fold_reproduces_goldens(small_fold, name):
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert json.loads(json.dumps(run_scenario(name))) == expected


def _run_dag_with_kills_and_drain(stream, trace_path):
    """Two iwd DAG instances on two nodes; node 1 drains mid-run."""
    trace = build_workflow_trace("iwd", seed=0, scale=0.05)
    backend = EventDrivenBackend(
        dag="trace",
        workflow_arrival="2@fixed:0.05",
        node_outage="0.02:0.1:1",
        stream_collectors=stream,
        trace=str(trace_path),
    )
    sim = OnlineSimulator(trace, backend=backend, cluster="64g:2")
    result = sim.run(method_factories()["Witt-LR"]())
    events = json.loads(trace_path.read_text())["traceEvents"]
    return result, events


@pytest.mark.parametrize("stream", [False, True], ids=["exact", "stream"])
def test_fold_size_is_invisible_with_kills_and_drains(
    monkeypatch, tmp_path, stream
):
    default, default_events = _run_dag_with_kills_and_drain(
        stream, tmp_path / "default.json"
    )
    monkeypatch.setattr(collectors, "FOLD_ROWS", SMALL_FOLD)
    small, small_events = _run_dag_with_kills_and_drain(
        stream, tmp_path / "small.json"
    )
    # The scenario must exercise every outcome, over many small folds.
    assert default.summary.n_failures > 0
    assert any(
        e["ph"] == "X" and e["cat"] == "preempt" for e in default_events
    )
    assert default.summary.n_attempts > 10 * SMALL_FOLD
    assert result_to_dict(small) == result_to_dict(default)
    assert summary_to_dict(small.summary) == summary_to_dict(default.summary)
    assert small_events == default_events


def _build_spill_sim(spill, stream):
    spec = SCENARIOS["flat_event_pr2"]
    trace = build_workflow_trace(
        spec["workflow"], seed=spec["trace_seed"], scale=spec["scale"]
    )
    backend = EventDrivenBackend(
        **spec["backend"], stream_collectors=stream, spill=str(spill)
    )
    sim = OnlineSimulator(trace, backend=backend, **spec["sim"])
    return sim, method_factories()[spec["method"]]()


@pytest.mark.parametrize("stream", [False, True], ids=["exact", "stream"])
def test_spill_survives_checkpoint_resume(small_fold, tmp_path, stream):
    full = tmp_path / "full.jsonl"
    sim, predictor = _build_spill_sim(full, stream)
    result = sim.run(predictor)
    expected = full.read_bytes()
    assert expected.count(b"\n") == result.summary.n_tasks

    spill = tmp_path / "resumed.jsonl"
    ck = str(tmp_path / "state.ckpt")
    sim, predictor = _build_spill_sim(spill, stream)
    stop = result.summary.makespan_hours / 2
    assert sim.run(predictor, checkpoint=ck, stop_after=stop) is None
    # Folds before the pause already wrote lines; an interrupted run may
    # also have written past the checkpoint.  Resume must drop those.
    assert spill.stat().st_size > 0
    with open(spill, "ab") as fh:
        fh.write(b'{"junk": true}\n' * 3)
    assert OnlineSimulator.resume(ck) is not None
    assert spill.read_bytes() == expected


def make_trace(n=60):
    """Alternating over/under-allocated tasks: successes and kills."""
    tt = TaskType(name="t", workflow="wf", preset_memory_mb=4096.0)
    insts = [
        TaskInstance(
            task_type=tt,
            instance_id=i,
            input_size_mb=100.0 + i,
            # Every third task's peak exceeds the 200 MB first guess.
            peak_memory_mb=220.0 if i % 3 == 0 else 100.0 + i,
            runtime_hours=0.5 + (i % 5) * 0.1,
        )
        for i in range(n)
    ]
    return WorkflowTrace("wf", insts)


class FixedPredictor(MemoryPredictor):
    name = "Fixed"

    def predict(self, task: TaskSubmission) -> float:
        return 200.0

    def on_failure(self, task, failed_allocation_mb, attempt):
        return 200.0


def _manager():
    return ResourceManager(MachineConfig(name="m", memory_mb=1024.0), n_nodes=2)


def test_exact_summary_matches_streaming_summary():
    # The public promise of stream_collectors: an exact run and a
    # streaming run report identical summaries.
    def run(stream):
        backend = EventDrivenBackend(
            arrival="poisson:4", seed=3, stream_collectors=stream
        )
        return backend.run(make_trace(), FixedPredictor(), _manager(), 1.0)

    exact = run(False)
    assert exact.summary.n_failures > 0  # both row shapes were folded
    assert summary_to_dict(exact.summary) == summary_to_dict(
        run(True).summary
    )


def test_unfolded_rows_survive_pickle():
    # Checkpointing mid-run pickles collectors with unfolded rows; the
    # restored collector must fold to the same totals.
    backend = EventDrivenBackend(arrival="poisson:4", seed=3)
    kernel = backend.build_kernel(
        make_trace(), FixedPredictor(), _manager(), 1.0
    )
    wastage = next(
        c for c in kernel.collectors if isinstance(c, WastageCollector)
    )
    kernel.run(until=2.0)  # pause mid-stream with rows unfolded
    assert wastage._rows
    clone = pickle.loads(pickle.dumps(wastage))
    assert len(clone._rows) == len(wastage._rows)
    wastage._fold()
    clone._fold()
    assert clone.ledger.outcomes == wastage.ledger.outcomes
    assert clone.logs == wastage.logs
