"""Provenance record schema."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.task import TaskInstance

__all__ = ["TaskRecord"]


@dataclass(frozen=True)
class TaskRecord:
    """One completed (or failed) task execution, as stored by the SWMS.

    Mirrors the table sketched in the paper's Fig. 3 (task instance,
    timestamp, features, labels).  ``peak_memory_mb`` is only a *lower
    bound* on true usage for failed attempts (the task was killed at the
    limit), which is why :meth:`repro.provenance.database.
    ProvenanceDatabase.training_arrays` excludes failures by default.

    Attributes
    ----------
    task_type:
        Task-type name, e.g. ``"MarkDuplicates"``.
    workflow:
        Owning workflow name.
    machine:
        Machine configuration the task ran on.
    timestamp:
        Logical submission index (the simulator's clock).
    input_size_mb:
        Input-size feature.
    peak_memory_mb:
        Measured peak memory (for failed attempts: the allocation that
        was exceeded).
    runtime_hours:
        Observed runtime (for failed attempts: time until the crash).
    success:
        Whether the attempt completed.
    attempt:
        1-based attempt counter for the task instance.
    allocated_mb:
        The memory allocation the attempt ran under.
    instance_id:
        Trace-level id of the task instance, used to match completion
        records to earlier predictions (offset bookkeeping).

    The simulators build one record per attempt with
    :meth:`from_attempt`, which equals the generated constructor's
    record field for field and runs the same checks.
    """

    task_type: str
    workflow: str
    machine: str
    timestamp: int
    input_size_mb: float
    peak_memory_mb: float
    runtime_hours: float
    success: bool = True
    attempt: int = 1
    allocated_mb: float = 0.0
    instance_id: int = -1

    def __post_init__(self) -> None:
        if self.peak_memory_mb <= 0:
            raise ValueError(
                f"peak_memory_mb must be positive, got {self.peak_memory_mb}"
            )
        if self.runtime_hours < 0:
            raise ValueError(
                f"runtime_hours must be >= 0, got {self.runtime_hours}"
            )
        if self.attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {self.attempt}")

    @classmethod
    def from_attempt(
        cls,
        inst: "TaskInstance",
        timestamp: int,
        *,
        peak_memory_mb: float,
        runtime_hours: float,
        success: bool,
        attempt: int,
        allocated_mb: float,
        instance_id: int,
    ) -> "TaskRecord":
        """The record of one attempt of ``inst`` submitted at ``timestamp``.

        Task type, workflow, machine and input size come from ``inst``.
        """
        # Built via __dict__ rather than the generated __init__ (as
        # TaskSubmission.from_instance is): frozen dataclasses pay
        # object.__setattr__ per field, and a simulation builds one
        # record per attempt.  Same field order, same checks.  The copy
        # gives each record its own key table (about 350 bytes more than
        # the generated __init__'s record); one store per key would share
        # the class's table but sends every attribute read down CPython's
        # slow path.
        rec = object.__new__(cls)
        task_type = inst.task_type
        rec.__dict__.update(
            task_type=task_type.name,
            workflow=task_type.workflow,
            machine=inst.machine,
            timestamp=timestamp,
            input_size_mb=inst.input_size_mb,
            peak_memory_mb=peak_memory_mb,
            runtime_hours=runtime_hours,
            success=success,
            attempt=attempt,
            allocated_mb=allocated_mb,
            instance_id=instance_id,
        )
        rec.__post_init__()
        return rec

    @property
    def features(self) -> np.ndarray:
        """Feature vector (shape ``(1, d)``) used to train predictors."""
        return np.array([[self.input_size_mb]], dtype=np.float64)

    @property
    def pool_key(self) -> tuple[str, str]:
        """(task type, machine) — the granularity Sizey keys its models by."""
        return (self.task_type, self.machine)
