"""Streaming collectors: same summary as exact mode, O(1) retention.

``stream_collectors=True`` drops per-task lists (prediction logs,
attempt outcomes, node timelines) but must not change a single reported
aggregate: the summary is maintained identically in both modes, and the
JSONL spill preserves the full prediction logs on disk.
"""

import json
from dataclasses import asdict

import pytest

from repro.experiments.factories import method_factories
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.sim.results import result_to_dict, summary_to_dict
from repro.workflow.nfcore import build_workflow_trace

from tests.sim.test_golden_regression import SCENARIOS


def build_sim(name, *, stream_collectors=False, spill=None):
    spec = SCENARIOS[name]
    trace = build_workflow_trace(
        spec["workflow"], seed=spec["trace_seed"], scale=spec["scale"]
    )
    backend = EventDrivenBackend(**spec["backend"])
    sim = OnlineSimulator(
        trace,
        backend=backend,
        stream_collectors=stream_collectors,
        spill=spill,
        **spec["sim"],
    )
    return sim, method_factories()[spec["method"]]()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stream_summary_equals_exact_summary(name):
    sim, predictor = build_sim(name)
    exact = sim.run(predictor)
    sim, predictor = build_sim(name, stream_collectors=True)
    streamed = sim.run(predictor)

    assert summary_to_dict(streamed.summary) == summary_to_dict(exact.summary)
    # Ledger totals survive streaming (counter-backed, not list-backed).
    assert streamed.total_wastage_gbh == exact.total_wastage_gbh
    assert streamed.total_runtime_hours == exact.total_runtime_hours
    assert streamed.num_failures == exact.num_failures
    assert streamed.num_tasks == exact.num_tasks
    # Exact mode averages the predictions list (np.mean); streaming
    # divides a running sum — same value up to summation order.
    assert streamed.over_allocation_ratio() == pytest.approx(
        exact.over_allocation_ratio(), rel=1e-12
    )
    assert (
        streamed.ledger.wastage_by_task_type()
        == exact.ledger.wastage_by_task_type()
    )


def test_stream_mode_drops_raw_logs():
    sim, predictor = build_sim("flat_event_pr2", stream_collectors=True)
    res = sim.run(predictor)
    assert res.predictions == []
    assert res.ledger.outcomes == []
    assert res.cluster is None  # timelines not kept in streaming mode
    assert res.summary is not None and res.summary.n_nodes == 2


def test_exact_mode_unchanged_by_summary():
    """Exact mode still fills the full result schema (goldens rely on it)."""
    sim, predictor = build_sim("flat_event_pr2")
    res = sim.run(predictor)
    assert res.predictions and res.ledger.outcomes
    assert res.cluster is not None
    assert res.summary is not None


@pytest.mark.parametrize("name", ("flat_event_pr2", "dag_engine_pr3"))
def test_spill_jsonl_matches_exact_predictions(tmp_path, name):
    """Spilled lines reproduce exact mode's prediction logs verbatim."""
    sim, predictor = build_sim(name)
    exact = sim.run(predictor)

    spill = tmp_path / "predictions.jsonl"
    sim, predictor = build_sim(
        name, stream_collectors=True, spill=str(spill)
    )
    sim.run(predictor)

    lines = [
        json.loads(line)
        for line in spill.read_text().splitlines()
        if line
    ]
    # Spill is in completion order; result.predictions is sorted by
    # submission index — compare as multisets keyed by that index.
    spilled = sorted(lines, key=lambda d: d["timestamp"])
    expected = [asdict(log) for log in exact.predictions]
    assert spilled == expected


def test_spill_with_kept_logs_too(tmp_path):
    """Spill composes with exact mode: both the list and the file exist."""
    spill = tmp_path / "predictions.jsonl"
    sim, predictor = build_sim("flat_event_pr2", spill=str(spill))
    res = sim.run(predictor)
    assert res.predictions
    lines = spill.read_text().splitlines()
    assert len(lines) == len(res.predictions)


def _reads_from_logs(result):
    """``num_tasks`` and the failure distribution, from built logs."""
    logs = result.predictions
    per_type = result.ledger.failures_by_task_type()
    types = sorted({log.task_type for log in logs})
    return len(logs), [per_type.get(t, 0) for t in types]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_result_reads_use_pending_rows(name):
    """Counting tasks and failure types builds no PredictionLog.

    ``num_tasks`` and ``failure_distribution()`` read the collector's
    compact rows; the values equal those from the built logs.
    """
    sim, predictor = build_sim(name)
    result = sim.run(predictor)
    n_tasks = result.num_tasks
    distribution = result.failure_distribution().tolist()
    assert result._prediction_rows is not None  # still pending
    assert (n_tasks, distribution) == _reads_from_logs(result)
    assert result._prediction_rows is None
    assert result.num_tasks == n_tasks
    assert result.failure_distribution().tolist() == distribution


def test_stream_result_reads_match_exact_logs():
    sim, predictor = build_sim("dag_engine_pr3")
    exact = sim.run(predictor)
    sim, predictor = build_sim("dag_engine_pr3", stream_collectors=True)
    streamed = sim.run(predictor)
    assert streamed._prediction_rows is None  # streaming keeps no rows
    # The streamed run keeps no logs: its count comes from the summary,
    # and its failure distribution from the ledger — the exact twin's.
    n_tasks, distribution = _reads_from_logs(exact)
    assert streamed.num_tasks == n_tasks
    assert streamed.failure_distribution().tolist() == distribution
    assert sum(distribution) == exact.num_failures > 0
