"""The replay backend — the kernel with one task in flight — against the
serial oracle (``serial_reference.serial_replay``), the paper's
one-task-at-a-time loop written out directly.

Every field of ``result_to_dict`` must be equal, except a killed
attempt's ``runtime_hours`` and ``wastage_gbh``: the kernel charges a
kill its clock difference, the oracle ``runtime * ttf``, and the two may
differ in the last bits (bounded here at 1e-9 relative).
"""

import pytest
from serial_reference import serial_replay

from repro.cluster.machine import MachineConfig
from repro.cluster.manager import ResourceManager
from repro.experiments.factories import method_factories
from repro.sim import OnlineSimulator, UnschedulableTaskError, result_to_dict
from repro.sim.backends.base import MAX_ATTEMPTS
from repro.sim.interface import MemoryPredictor
from repro.workflow.io import save_trace_jsonl
from repro.workflow.nfcore import build_workflow_trace
from repro.workflow.task import TaskInstance, TaskType, WorkflowTrace
from repro.workload import parse_workload

#: Fields of a killed attempt the two may charge differently.
KILL_HOURS = ("runtime_hours", "wastage_gbh")


def run_both(workload, make_predictor, ttf=1.0, manager=None):
    """(replay backend result, oracle result), each on a fresh predictor."""
    manager = manager or ResourceManager()
    kernel = OnlineSimulator(
        workload, manager=manager, time_to_failure=ttf, backend="replay"
    ).run(make_predictor())
    oracle = serial_replay(workload, make_predictor(), manager, ttf)
    return kernel, oracle


def assert_same_result(kernel, oracle):
    got, want = result_to_dict(kernel), result_to_dict(oracle)
    got_attempts, want_attempts = got.pop("attempts"), want.pop("attempts")
    assert got == want
    assert len(got_attempts) == len(want_attempts)
    for a, b in zip(got_attempts, want_attempts):
        if a["success"]:
            assert a == b
            continue
        assert {k: v for k, v in a.items() if k not in KILL_HOURS} == {
            k: v for k, v in b.items() if k not in KILL_HOURS
        }
        for key in KILL_HOURS:
            assert a[key] == pytest.approx(b[key], rel=1e-9, abs=0.0)
    assert kernel.num_failures == oracle.num_failures
    assert kernel.total_wastage_gbh == pytest.approx(
        oracle.total_wastage_gbh, rel=1e-9
    )


def make_trace(peaks, runtimes=None, preset=4096.0):
    tt = TaskType(name="t", workflow="wf", preset_memory_mb=preset)
    runtimes = runtimes or [1.0] * len(peaks)
    return WorkflowTrace(
        "wf",
        [
            TaskInstance(
                task_type=tt,
                instance_id=i,
                input_size_mb=100.0,
                peak_memory_mb=p,
                runtime_hours=r,
            )
            for i, (p, r) in enumerate(zip(peaks, runtimes))
        ],
    )


class Scripted(MemoryPredictor):
    """Sizes every task at ``first`` MB and retries with ``retry(failed)``;
    records the trace context and every observation."""

    name = "Scripted"

    def __init__(self, first, retry):
        self.first = first
        self.retry = retry
        self.contexts = []
        self.records = []

    def predict(self, task):
        return self.first

    def on_failure(self, task, failed_allocation_mb, attempt):
        return self.retry(failed_allocation_mb)

    def observe(self, record):
        self.records.append(record)

    def begin_trace(self, context=None):
        self.contexts.append(context)


@pytest.fixture(scope="module")
def iwd():
    return build_workflow_trace("iwd", seed=0, scale=0.05)


class TestEveryMethod:
    @pytest.mark.parametrize("ttf", [1.0, 0.5])
    @pytest.mark.parametrize("method", sorted(method_factories()))
    def test_replay_matches_the_serial_oracle(self, iwd, method, ttf):
        kernel, oracle = run_both(iwd, method_factories()[method], ttf)
        assert kernel.num_tasks == len(iwd)
        assert_same_result(kernel, oracle)


class TestStreamingSource:
    def test_unknown_length_streams_without_materializing(
        self, iwd, tmp_path, monkeypatch
    ):
        path = tmp_path / "iwd.jsonl"
        save_trace_jsonl(iwd, path)
        source = parse_workload(f"trace:{path}")
        assert source.n_tasks is None

        def no_trace():
            raise AssertionError("a streaming source must not materialize")

        monkeypatch.setattr(source, "trace", no_trace)
        predictor = Scripted(2048.0, lambda failed: 0.0)
        result = OnlineSimulator(source, backend="replay").run(predictor)
        (context,) = predictor.contexts
        assert context.n_tasks == -1
        assert result.num_tasks == len(iwd)
        assert_same_result(
            result,
            serial_replay(
                iwd, Scripted(2048.0, lambda failed: 0.0),
                ResourceManager(), 1.0,
            ),
        )


class TestEdgeCases:
    def test_empty_trace(self):
        kernel, oracle = run_both(
            make_trace([]), lambda: Scripted(1024.0, lambda failed: 0.0)
        )
        assert kernel.num_tasks == 0 and kernel.ledger.num_attempts == 0
        assert_same_result(kernel, oracle)

    @pytest.mark.parametrize("ttf", [1.0, 0.5])
    def test_a_retry_that_never_grows_doubles(self, ttf):
        # Shrinking proposals fall back to the doubling floor:
        # 1000 -> 2000 -> 4000 -> 8000 covers the 5000 MB peak.
        trace = make_trace([5000.0, 900.0], runtimes=[0.75, 0.3])
        kernel, oracle = run_both(
            trace, lambda: Scripted(1000.0, lambda failed: failed / 2), ttf
        )
        first = kernel.predictions[0]
        assert (first.n_attempts, first.final_allocation_mb) == (4, 8000.0)
        assert kernel.num_failures == 3
        assert_same_result(kernel, oracle)

    def test_kill_records_reach_the_predictor_alike(self):
        trace = make_trace([3000.0], runtimes=[2.0])
        via_kernel = Scripted(1000.0, lambda failed: failed * 1.5)
        via_oracle = Scripted(1000.0, lambda failed: failed * 1.5)
        OnlineSimulator(trace, time_to_failure=0.5).run(via_kernel)
        serial_replay(trace, via_oracle, ResourceManager(), 0.5)
        assert [
            (r.success, r.attempt, r.allocated_mb, r.peak_memory_mb)
            for r in via_kernel.records
        ] == [
            (r.success, r.attempt, r.allocated_mb, r.peak_memory_mb)
            for r in via_oracle.records
        ]
        for got, want in zip(via_kernel.records, via_oracle.records):
            assert got.runtime_hours == pytest.approx(
                want.runtime_hours, rel=1e-9
            )

    def test_a_task_no_node_fits(self):
        def small():
            return ResourceManager(
                MachineConfig(name="small", memory_mb=4096.0), n_nodes=2
            )

        trace = make_trace([1000.0, 5000.0, 1000.0])
        errors = []
        for run in (
            lambda p: OnlineSimulator(trace, manager=small()).run(p),
            lambda p: serial_replay(trace, p, small(), 1.0),
        ):
            with pytest.raises(UnschedulableTaskError) as exc:
                run(Scripted(2048.0, lambda failed: 0.0))
            errors.append(exc.value)
        kernel_error, oracle_error = errors
        assert kernel_error.instance_id == oracle_error.instance_id == 1
        assert str(kernel_error) == str(oracle_error)

    def test_max_attempts(self):
        # Retries grow by 1 MB, so the 5000 MB peak is never reached
        # within MAX_ATTEMPTS attempts.
        trace = make_trace([5000.0])
        messages = []
        for run in (
            lambda p: OnlineSimulator(trace).run(p),
            lambda p: serial_replay(trace, p, ResourceManager(), 1.0),
        ):
            with pytest.raises(RuntimeError) as exc:
                run(Scripted(1000.0, lambda failed: failed + 1.0))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert f"did not finish within {MAX_ATTEMPTS} attempts" in messages[0]
        assert "last allocation 1030 MB" in messages[0]
