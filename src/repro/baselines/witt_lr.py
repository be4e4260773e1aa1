"""Witt-LR: linear regression on input size with a residual offset.

Re-implementation of the linear-regression predictor from Witt et al.
(HPCS 2019), per the Sizey paper's description: "a linear regression
(LR), using the input size as a feature and adding an offset on the
prediction", where "the predictions of the linear model are then offset
by the expected difference between the actual and the predicted peak
memory usage".

Implementation choices (the original source is unavailable; the Sizey
authors re-implemented from the description as well):

- the offset is the mean absolute residual of the fitted line over the
  task type's history — the "expected difference" between actual and
  predicted values;
- the model refits on every completion (cheap closed-form OLS);
- below ``min_history`` completions the user preset is used;
- on failure the allocation doubles.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.ml.linear import LinearRegression
from repro.provenance.records import TaskRecord
from repro.sim.interface import MemoryPredictor, TaskSubmission, batch_by_group

__all__ = ["WittLR"]


class WittLR(MemoryPredictor):
    """Per-task-type OLS on input size, padded by the mean |residual|."""

    name = "Witt-LR"

    def __init__(self, min_history: int = 2) -> None:
        if min_history < 1:
            raise ValueError(f"min_history must be >= 1, got {min_history}")
        self.min_history = min_history
        self._inputs: dict[str, list[float]] = defaultdict(list)
        self._peaks: dict[str, list[float]] = defaultdict(list)
        self._models: dict[str, LinearRegression] = {}
        self._offsets: dict[str, float] = {}

    def predict_batch(self, tasks) -> np.ndarray:
        """Batch sizing: one stacked OLS query per task type."""

        def sizer(task_type, group):
            model = self._models.get(task_type)
            if model is None:
                return None
            X = np.array([[t.input_size_mb] for t in group], dtype=np.float64)
            return np.maximum(model.predict(X) + self._offsets[task_type], 1.0)

        return batch_by_group(tasks, lambda t: t.task_type, sizer)

    def observe(self, record: TaskRecord) -> None:
        if not record.success:
            return
        t = record.task_type
        self._inputs[t].append(record.input_size_mb)
        self._peaks[t].append(record.peak_memory_mb)
        if len(self._peaks[t]) < self.min_history:
            return
        X = np.asarray(self._inputs[t]).reshape(-1, 1)
        y = np.asarray(self._peaks[t])
        model = LinearRegression().fit(X, y)
        residuals = y - model.predict(X)
        self._models[t] = model
        self._offsets[t] = float(np.mean(np.abs(residuals)))

    def on_failure(
        self, task: TaskSubmission, failed_allocation_mb: float, attempt: int
    ) -> float:
        return failed_allocation_mb * 2.0
