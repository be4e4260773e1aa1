"""Witt-Percentile: conservative percentile predictor.

Re-implementation of the percentile predictor from Witt et al.,
"Feedback-Based Resource Allocation for Batch Scheduling of Scientific
Workflows" (HPCS 2019), following the Sizey paper's description: "The
percentile predictor predicts the percentile peak memory usage of all
historical tasks.  The authors propose a conservative estimate, using
the 95th percentile to avoid task failures."  Doubles on failure.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.provenance.records import TaskRecord
from repro.sim.interface import MemoryPredictor, TaskSubmission, batch_by_group

__all__ = ["WittPercentile"]


def _percentile(peaks: list[float], percentile: float) -> float:
    """``np.percentile(peaks, percentile)`` (linear method), bit for bit.

    Sorts ``peaks`` in place: ``observe`` appends, so the list is a sorted
    prefix plus a short unsorted tail, which timsort merges in about
    linear time without a trip through numpy.  The interpolation between
    the two neighbouring order statistics is numpy's own ``_lerp``.
    """
    peaks.sort()
    n = len(peaks)
    vi = (n - 1) * (percentile / 100)
    if vi >= n - 1:
        return float(peaks[-1])
    lo = math.floor(vi)
    g = vi - lo
    a, b = peaks[lo], peaks[lo + 1]
    d = b - a
    return float(a + d * g if g < 0.5 else b - d * (1 - g))


class WittPercentile(MemoryPredictor):
    """Per-task-type percentile of historical peaks (default P95)."""

    name = "Witt-Percentile"

    def __init__(self, percentile: float = 95.0, min_history: int = 2) -> None:
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        if min_history < 1:
            raise ValueError(f"min_history must be >= 1, got {min_history}")
        self.percentile = percentile
        self.min_history = min_history
        self._peaks: dict[str, list[float]] = defaultdict(list)

    def predict_batch(self, tasks) -> np.ndarray:
        """Batch sizing: the percentile is computed once per task type."""

        def sizer(task_type, group):
            peaks = self._peaks.get(task_type, [])
            if len(peaks) < self.min_history:
                return None
            return _percentile(peaks, self.percentile)

        return batch_by_group(tasks, lambda t: t.task_type, sizer)

    def observe(self, record: TaskRecord) -> None:
        if record.success:
            self._peaks[record.task_type].append(record.peak_memory_mb)

    def on_failure(
        self, task: TaskSubmission, failed_allocation_mb: float, attempt: int
    ) -> float:
        return failed_allocation_mb * 2.0
