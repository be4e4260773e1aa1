"""Witt-Wastage: low-wastage quantile-regression allocation.

Re-implementation of Witt et al., "Learning Low-Wastage Memory
Allocations for Scientific Workflows at IceCube" (HPCS 2019), per the
Sizey paper's description (§III-B, §IV): "a low-wastage regression that
optimizes the resource wastage instead of the prediction error", based
on a linear model that "test[s] quantile regression lines and select[s]
the parameters of the one with the least wastage", doubling the
prediction upon task failure.

Per task type the method maintains a set of candidate quantile
regression lines (peak memory ~ input size).  After each refit, every
candidate is scored by the wastage it *would have* produced over the
observed history — over-allocation cost for covered tasks, lost work
plus a doubling retry for under-allocations — and the cheapest line is
used for prediction.  Because over-allocation dominates the objective on
well-behaved tasks, the selection gravitates to low quantiles, which is
exactly why this baseline shows the most failures in the paper's
Fig. 8c.  On total wastage it is not the paper's strongest baseline:
Witt-LR wastes less in Fig. 8a (4,754.9 against 5,437.1 GBh at ttf 1.0)
and Fig. 8b (3,628.0 against 4,963.4 GBh at ttf 0.5); see
``PAPER_FIG8A``/``PAPER_FIG8B`` in
:mod:`repro.experiments.fig8_main_results`.

The quantile fits solve small LPs; to keep the online loop fast they are
re-run every ``refit_interval`` completions (cheap closed-form methods
between refits keep using the previous lines).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.ml.linear import QuantileRegressor
from repro.provenance.records import TaskRecord
from repro.sim.interface import MemoryPredictor, TaskSubmission, batch_by_group

__all__ = ["WittWastage"]


class WittWastage(MemoryPredictor):
    """Quantile-regression lines selected by least historical wastage."""

    name = "Witt-Wastage"

    def __init__(
        self,
        quantiles: tuple[float, ...] = (0.5, 0.75, 0.9, 0.95, 0.99),
        refit_interval: int = 8,
        min_history: int = 2,
        time_to_failure: float = 1.0,
        max_fit_points: int = 512,
    ) -> None:
        if not quantiles or any(not 0.0 < q < 1.0 for q in quantiles):
            raise ValueError(f"quantiles must lie in (0, 1), got {quantiles}")
        if refit_interval < 1 or min_history < 1:
            raise ValueError("refit_interval and min_history must be >= 1")
        self.quantiles = tuple(sorted(quantiles))
        self.refit_interval = refit_interval
        self.min_history = min_history
        self.time_to_failure = time_to_failure
        self.max_fit_points = max_fit_points
        self._inputs: dict[str, list[float]] = defaultdict(list)
        self._peaks: dict[str, list[float]] = defaultdict(list)
        self._runtimes: dict[str, list[float]] = defaultdict(list)
        self._best_line: dict[str, QuantileRegressor] = {}
        self._since_refit: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def predict_batch(self, tasks) -> np.ndarray:
        """Batch sizing: one stacked query per task type's selected line."""

        def sizer(task_type, group):
            line = self._best_line.get(task_type)
            if line is None:
                return None
            X = np.array([[t.input_size_mb] for t in group], dtype=np.float64)
            return np.maximum(line.predict(X), 1.0)

        return batch_by_group(tasks, lambda t: t.task_type, sizer)

    def observe(self, record: TaskRecord) -> None:
        if not record.success:
            return
        t = record.task_type
        self._inputs[t].append(record.input_size_mb)
        self._peaks[t].append(record.peak_memory_mb)
        self._runtimes[t].append(record.runtime_hours)
        self._since_refit[t] += 1
        n = len(self._peaks[t])
        if n < self.min_history:
            return
        needs_first_fit = t not in self._best_line
        if needs_first_fit or self._since_refit[t] >= self.refit_interval:
            self._refit(t)
            self._since_refit[t] = 0

    def _refit(self, task_type: str) -> None:
        X = np.asarray(self._inputs[task_type]).reshape(-1, 1)
        y = np.asarray(self._peaks[task_type])
        rt = np.asarray(self._runtimes[task_type])
        if X.shape[0] > self.max_fit_points:
            X = X[-self.max_fit_points :]
            y = y[-self.max_fit_points :]
            rt = rt[-self.max_fit_points :]
        best_line: QuantileRegressor | None = None
        best_waste = np.inf
        for q in self.quantiles:
            line = QuantileRegressor(quantile=q).fit(X, y)
            waste = self._hypothetical_wastage(line.predict(X), y, rt)
            if waste < best_waste:
                best_waste = waste
                best_line = line
        assert best_line is not None
        self._best_line[task_type] = best_line

    def _hypothetical_wastage(
        self, alloc: np.ndarray, y: np.ndarray, rt: np.ndarray
    ) -> float:
        """Wastage this allocation line would have produced historically.

        The method's own objective counts *unused-but-allocated* memory:
        over-allocation for covered tasks, and the over-allocation of the
        doubled retry for under-allocated ones.  Deliberately, the work
        lost in the killed attempt is NOT part of this objective — the
        method "optimizes the resource wastage instead of the prediction
        error" and accepts failures as cheap, which is why it selects
        aggressive low quantile lines and shows the highest task-failure
        counts in the paper's Fig. 8c.
        """
        alloc = np.maximum(alloc, 1.0)
        ok = alloc >= y
        retry = np.maximum(alloc * 2.0, y)  # doubled attempt that succeeds
        waste = np.where(ok, (alloc - y) * rt, (retry - y) * rt)
        return float(waste.sum())

    def on_failure(
        self, task: TaskSubmission, failed_allocation_mb: float, attempt: int
    ) -> float:
        return failed_allocation_mb * 2.0
