"""Workflow-Presets: the developer-default sanity baseline.

"The default workflow setups provided by the workflow developers ...
serve as a sanity baseline" (§III-B).  Presets are deliberately
conservative estimates "set to prevent task failures", so this baseline
never fails and never learns — it simply allocates the per-task-type
default every time.
"""

from __future__ import annotations

import numpy as np

from repro.provenance.records import TaskRecord
from repro.sim.interface import MemoryPredictor, TaskSubmission

__all__ = ["WorkflowPresets"]


class WorkflowPresets(MemoryPredictor):
    """Allocate the user/developer preset of the task type, always."""

    name = "Workflow-Presets"

    def predict_batch(self, tasks) -> np.ndarray:
        return np.array([t.preset_memory_mb for t in tasks], dtype=np.float64)

    def observe(self, record: TaskRecord) -> None:
        # Presets are static by definition; nothing to learn.
        return

    def on_failure(
        self, task: TaskSubmission, failed_allocation_mb: float, attempt: int
    ) -> float:
        # Unreachable with well-formed presets (they exceed every peak);
        # still defined so malformed presets cannot wedge the simulator.
        return failed_allocation_mb * 2.0
