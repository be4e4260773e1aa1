"""The serialized replay backend — the paper's original semantics.

Replays a workflow trace in submission order against one predictor, one
task at a time:

1. Build the predictor-visible :class:`TaskSubmission` (Phase 1).
2. Ask the predictor for an allocation (Phase 2).
3. Execute under strict limits (assumption A3) with the configured
   time-to-failure; on failure, record wastage, inform the predictor,
   get a retry allocation, repeat.
4. On success, record wastage and feed the completion record back for
   online learning (Phase 3).

The retry loop is owned by the simulator so all methods are charged
identically for failures.  This loop is the seed engine's, extracted
verbatim: for a fixed trace and predictor it reproduces the original
``SimulationResult`` exactly (same wastage, failures, prediction logs).
"""

from __future__ import annotations

from repro.cluster.accounting import WastageLedger
from repro.cluster.manager import ResourceManager
from repro.provenance.records import TaskRecord
from repro.sim.backends.base import (
    DOUBLING_FACTOR,
    MAX_ATTEMPTS,
    clamp_allocation_checked,
)
from repro.sim.interface import MemoryPredictor, TaskSubmission, TraceContext
from repro.sim.results import PredictionLog, SimulationResult
from repro.workflow.task import WorkflowTrace
from repro.workload.base import WorkloadSource, as_source

__all__ = ["ReplayBackend"]


class ReplayBackend:
    """One-task-at-a-time replay (paper fidelity; no concurrency).

    A retry proposal that does not grow falls back to
    :data:`~repro.sim.backends.base.DOUBLING_FACTOR` times the failed
    allocation — the event kernel's floor too, so the two backends stay
    attempt-for-attempt identical.
    """

    name = "replay"

    def run(
        self,
        workload: "WorkloadSource | WorkflowTrace | str",
        predictor: MemoryPredictor,
        manager: ResourceManager,
        time_to_failure: float,
    ) -> SimulationResult:
        source = as_source(workload)
        manager.release_all()
        predictor.begin_trace(
            TraceContext(
                workflow=source.workflow,
                # Streaming sources cannot know their length without
                # exhausting themselves; -1 tells the predictor the
                # count is unknown (this loop is one-task-at-a-time, so
                # it never needs to materialize the stream).
                n_tasks=-1 if source.n_tasks is None else source.n_tasks,
                time_to_failure=time_to_failure,
                backend=self.name,
            )
        )
        ledger = WastageLedger()
        logs: list[PredictionLog] = []

        for timestamp, inst in enumerate(source.iter_tasks()):
            submission = TaskSubmission.from_instance(inst, timestamp)
            allocation = clamp_allocation_checked(
                manager, inst, predictor.predict(submission), inst.instance_id
            )
            first_allocation = allocation
            attempt = 1
            while True:
                if attempt > MAX_ATTEMPTS:
                    raise RuntimeError(
                        f"task {inst.instance_id} ({inst.task_type.key}) did "
                        f"not finish within {MAX_ATTEMPTS} attempts; "
                        f"last allocation {allocation:.0f} MB, "
                        f"peak {inst.peak_memory_mb:.0f} MB"
                    )
                verdict = manager.execute_attempt(
                    allocated_mb=allocation,
                    true_peak_mb=inst.peak_memory_mb,
                    runtime_hours=inst.runtime_hours,
                    time_to_failure=time_to_failure,
                )
                if verdict.success:
                    ledger.record_success(
                        task_type=inst.task_type.name,
                        workflow=inst.task_type.workflow,
                        instance_id=inst.instance_id,
                        attempt=attempt,
                        allocated_mb=verdict.allocated_mb,
                        peak_memory_mb=inst.peak_memory_mb,
                        runtime_hours=inst.runtime_hours,
                    )
                    predictor.observe(
                        TaskRecord.from_attempt(
                            inst,
                            timestamp,
                            peak_memory_mb=inst.peak_memory_mb,
                            runtime_hours=inst.runtime_hours,
                            success=True,
                            attempt=attempt,
                            allocated_mb=verdict.allocated_mb,
                            instance_id=inst.instance_id,
                        )
                    )
                    break

                ledger.record_failure(
                    task_type=inst.task_type.name,
                    workflow=inst.task_type.workflow,
                    instance_id=inst.instance_id,
                    attempt=attempt,
                    allocated_mb=verdict.allocated_mb,
                    peak_memory_mb=inst.peak_memory_mb,
                    time_to_failure_hours=verdict.occupied_hours,
                )
                # The failure record's "peak" is the exceeded limit — a
                # lower bound, flagged via success=False.
                predictor.observe(
                    TaskRecord.from_attempt(
                        inst,
                        timestamp,
                        peak_memory_mb=verdict.allocated_mb,
                        runtime_hours=verdict.occupied_hours,
                        success=False,
                        attempt=attempt,
                        allocated_mb=verdict.allocated_mb,
                        instance_id=inst.instance_id,
                    )
                )
                next_allocation = float(
                    predictor.on_failure(submission, verdict.allocated_mb, attempt)
                )
                # Retries must strictly grow or the loop cannot terminate;
                # a non-growing proposal falls back to the doubling factor.
                if next_allocation <= verdict.allocated_mb:
                    next_allocation = verdict.allocated_mb * DOUBLING_FACTOR
                allocation = clamp_allocation_checked(
                    manager, inst, next_allocation, inst.instance_id
                )
                attempt += 1

            logs.append(
                PredictionLog(
                    instance_id=inst.instance_id,
                    task_type=inst.task_type.name,
                    workflow=inst.task_type.workflow,
                    timestamp=timestamp,
                    input_size_mb=inst.input_size_mb,
                    true_peak_mb=inst.peak_memory_mb,
                    true_runtime_hours=inst.runtime_hours,
                    first_allocation_mb=first_allocation,
                    final_allocation_mb=allocation,
                    n_attempts=attempt,
                )
            )

        predictor.end_trace()
        return SimulationResult(
            workflow=source.workflow,
            method=predictor.name,
            time_to_failure=time_to_failure,
            ledger=ledger,
            predictions=logs,
        )
