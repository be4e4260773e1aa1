"""``TaskRecord.from_attempt``: the simulators' per-attempt record builder."""

import pickle

import pytest

from repro.provenance.records import TaskRecord
from repro.sim import EventDrivenBackend, OnlineSimulator
from repro.sim.interface import MemoryPredictor
from repro.workflow.nfcore import build_workflow_trace
from repro.workflow.task import TaskInstance, TaskType

INST = TaskInstance(
    task_type=TaskType(name="align", workflow="wf", preset_memory_mb=4096.0),
    instance_id=7,
    input_size_mb=123.5,
    peak_memory_mb=900.0,
    runtime_hours=0.25,
    machine="m2",
)


def generated(**kw):
    """The record the generated constructor builds from ``INST``."""
    task_type = INST.task_type
    return TaskRecord(
        task_type=task_type.name,
        workflow=task_type.workflow,
        machine=INST.machine,
        timestamp=kw.pop("timestamp"),
        input_size_mb=INST.input_size_mb,
        **kw,
    )


SUCCESS = dict(
    timestamp=3,
    peak_memory_mb=900.0,
    runtime_hours=0.25,
    success=True,
    attempt=2,
    allocated_mb=1800.0,
    instance_id=1007,
)
KILL = dict(
    timestamp=3,
    peak_memory_mb=600.0,
    runtime_hours=0.125,
    success=False,
    attempt=1,
    allocated_mb=600.0,
    instance_id=1007,
)


@pytest.mark.parametrize("fields", [SUCCESS, KILL], ids=["success", "kill"])
def test_from_attempt_equals_the_generated_record(fields):
    kw = dict(fields)
    built = TaskRecord.from_attempt(INST, kw.pop("timestamp"), **kw)
    expected = generated(**fields)
    assert built == expected
    assert hash(built) == hash(expected)
    assert repr(built) == repr(expected)
    assert pickle.dumps(built) == pickle.dumps(expected)
    assert pickle.loads(pickle.dumps(built)) == expected


@pytest.mark.parametrize(
    "change, match",
    [
        (dict(peak_memory_mb=0.0), "peak_memory_mb must be positive"),
        (dict(peak_memory_mb=-1.0), "peak_memory_mb must be positive"),
        (dict(runtime_hours=-0.5), "runtime_hours must be >= 0"),
        (dict(attempt=0), "attempt must be >= 1"),
    ],
)
def test_from_attempt_runs_the_same_checks(change, match):
    fields = {**SUCCESS, **change}
    with pytest.raises(ValueError, match=match) as from_init:
        generated(**fields)
    kw = dict(fields)
    with pytest.raises(ValueError, match=match) as from_attempt:
        TaskRecord.from_attempt(INST, kw.pop("timestamp"), **kw)
    assert str(from_attempt.value) == str(from_init.value)


class _Observing(MemoryPredictor):
    """Starts every task too small, so runs have kills, and keeps records."""

    name = "observing"

    def __init__(self):
        self.records = []

    def predict(self, task):
        return 256.0

    def observe(self, record):
        self.records.append(record)


@pytest.mark.parametrize(
    "backend",
    ["replay", EventDrivenBackend(workflow_arrival="2@fixed:0.05")],
    ids=["replay", "event-dag"],
)
def test_simulators_never_call_the_generated_constructor(monkeypatch, backend):
    trace = build_workflow_trace("iwd", seed=3, scale=0.05)

    def refuse(self, *args, **kwargs):
        raise AssertionError("TaskRecord built through __init__")

    monkeypatch.setattr(TaskRecord, "__init__", refuse)
    predictor = _Observing()
    result = OnlineSimulator(trace, backend=backend, time_to_failure=0.5).run(
        predictor
    )
    outcomes = [r.success for r in predictor.records]
    assert outcomes.count(True) == result.num_tasks
    assert outcomes.count(False) == result.num_failures > 0
