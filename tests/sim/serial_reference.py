"""The serial oracle: the paper's one-task-at-a-time replay as a plain loop.

``ReplayBackend`` runs the simulation kernel with one task in flight.
This module writes the same evaluation out directly, with no events,
queue or placement, so the kernel can be checked against it:

1. Build the predictor-visible :class:`TaskSubmission` (Phase 1).
2. Ask the predictor for an allocation (Phase 2).
3. Execute under strict limits (assumption A3): the attempt succeeds iff
   the allocation covers the true peak, and a killed attempt occupies
   ``runtime * time_to_failure``; on failure, record wastage, inform the
   predictor, get a retry allocation (at least the doubling floor),
   repeat.
4. On success, record wastage and feed the completion record back for
   online learning (Phase 3).

Every allocation is clamped to the largest node and the cluster is
otherwise empty, so placement cannot fail and is left out.  The kernel
charges a kill its clock difference ``(start + runtime * ttf) - start``
instead, so killed attempts' ``runtime_hours`` and ``wastage_gbh`` may
differ from this loop's in the last bits; everything else is equal.
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
from repro.workload.base import as_source

__all__ = ["serial_replay"]


def serial_replay(
    workload,
    predictor: MemoryPredictor,
    manager: ResourceManager,
    time_to_failure: float,
) -> SimulationResult:
    """Replay ``workload`` one task at a time; the reference result."""
    source = as_source(workload)
    manager.release_all()
    predictor.begin_trace(
        TraceContext(
            workflow=source.workflow,
            n_tasks=-1 if source.n_tasks is None else source.n_tasks,
            time_to_failure=time_to_failure,
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
            if allocation >= inst.peak_memory_mb:
                ledger.record_success(
                    task_type=inst.task_type.name,
                    workflow=inst.task_type.workflow,
                    instance_id=inst.instance_id,
                    attempt=attempt,
                    allocated_mb=allocation,
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
                        allocated_mb=allocation,
                        instance_id=inst.instance_id,
                    )
                )
                break

            occupied = inst.runtime_hours * time_to_failure
            ledger.record_failure(
                task_type=inst.task_type.name,
                workflow=inst.task_type.workflow,
                instance_id=inst.instance_id,
                attempt=attempt,
                allocated_mb=allocation,
                peak_memory_mb=inst.peak_memory_mb,
                time_to_failure_hours=occupied,
            )
            # The failure record's "peak" is the exceeded limit — a
            # lower bound, flagged via success=False.
            predictor.observe(
                TaskRecord.from_attempt(
                    inst,
                    timestamp,
                    peak_memory_mb=allocation,
                    runtime_hours=occupied,
                    success=False,
                    attempt=attempt,
                    allocated_mb=allocation,
                    instance_id=inst.instance_id,
                )
            )
            next_allocation = float(
                predictor.on_failure(submission, allocation, attempt)
            )
            # Retries must strictly grow or the loop cannot terminate;
            # a non-growing proposal falls back to the doubling factor.
            if next_allocation <= allocation:
                next_allocation = allocation * DOUBLING_FACTOR
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
