"""Tovar-PPM: job sizing from historical peak probabilities.

Re-implementation of Tovar et al., "A Job Sizing Strategy for
High-Throughput Scientific Workflows" (TPDS 2017), as used by the Sizey
paper (§III-B): the first allocation of a task is chosen from the
historical peak distribution so as to minimise the expected cost of
(over-allocation waste + failure retries); "should the initial
allocation underestimate the required resource, resulting in task
failure, Tovar et al. allocate a node's maximum memory."

Candidate allocations are the observed peak values themselves (the
support of the empirical distribution); for each candidate ``a`` the
expected waste is evaluated against the empirical history::

    waste(a) = sum_{y <= a} (a - y) * rt            (over-allocation)
             + sum_{y > a}  a * rt * ttf            (lost work on kill)
             + sum_{y > a}  (M - y) * rt            (retry at node max M)

and the candidate with minimal waste wins.  The evaluation is a
vectorised O(n^2) sweep over at most ``max_candidates`` distinct peaks.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.provenance.records import TaskRecord
from repro.sim.interface import MemoryPredictor, TaskSubmission, batch_by_group

__all__ = ["TovarPPM"]


class TovarPPM(MemoryPredictor):
    """Peak-probability job sizing with node-max failure handling."""

    name = "Tovar-PPM"

    def __init__(
        self,
        node_memory_mb: float = 128.0 * 1024,
        time_to_failure: float = 1.0,
        min_history: int = 2,
        max_candidates: int = 256,
    ) -> None:
        if node_memory_mb <= 0:
            raise ValueError(f"node_memory_mb must be positive, got {node_memory_mb}")
        if min_history < 1:
            raise ValueError(f"min_history must be >= 1, got {min_history}")
        self.node_memory_mb = node_memory_mb
        self.time_to_failure = time_to_failure
        self.min_history = min_history
        self.max_candidates = max_candidates
        self._peaks: dict[str, list[float]] = defaultdict(list)
        self._runtimes: dict[str, list[float]] = defaultdict(list)

    def predict_batch(self, tasks) -> np.ndarray:
        """Batch sizing: the candidate sweep runs once per task type.

        The history is frozen for the duration of a batch, so every
        submission of one task type shares one O(c*n) sweep instead of
        re-running it per task.
        """
        def sizer(task_type, group):
            if len(self._peaks.get(task_type, [])) < self.min_history:
                return None
            return self._best_allocation(task_type)

        return batch_by_group(tasks, lambda t: t.task_type, sizer)

    def _best_allocation(self, task_type: str) -> float:
        """The expected-waste-minimising candidate for one task type."""
        y = np.asarray(self._peaks[task_type])
        rt = np.asarray(self._runtimes[task_type])
        candidates = np.unique(y)
        if candidates.shape[0] > self.max_candidates:
            # Thin to an evenly spaced quantile subset, always keeping the max.
            qs = np.linspace(0.0, 1.0, self.max_candidates)
            candidates = np.unique(np.quantile(y, qs))
        # (c, n) success mask: candidate row covers observation column.
        covered = candidates[:, None] >= y[None, :]
        over = (candidates[:, None] - y[None, :]) * rt[None, :]
        fail = (
            candidates[:, None] * rt[None, :] * self.time_to_failure
            + (self.node_memory_mb - y[None, :]) * rt[None, :]
        )
        waste = np.where(covered, over, fail).sum(axis=1)
        return float(candidates[int(np.argmin(waste))])

    def observe(self, record: TaskRecord) -> None:
        if record.success:
            self._peaks[record.task_type].append(record.peak_memory_mb)
            self._runtimes[record.task_type].append(record.runtime_hours)

    def on_failure(
        self, task: TaskSubmission, failed_allocation_mb: float, attempt: int
    ) -> float:
        # The defining trait of Tovar-PPM's failure handling.
        return self.node_memory_mb
