"""The Sizey predictor: the paper's Fig. 3 pipeline as a public API.

Per submitted task (Phase 1-2): look up the (task type, machine) model
pool; unknown task types fall back to the user preset.  Otherwise every
model predicts, RAQ scores gate the predictions into one estimate, and
the dynamically selected fault-tolerance offset pads it.  Per completed
task (Phase 3): the provenance record updates the pool (prequential
accuracy + training step) and the offset tracker.

Diagnostics kept for the paper's analysis figures:

- ``selection_counts`` — how often each model class had the top RAQ
  (Fig. 11);
- ``raw_prediction_log`` — (task type, sequence, raw estimate, actual)
  tuples of un-offset predictions (Fig. 12);
- ``training_times_s`` — per-update training durations (Fig. 9).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from repro.core.config import SizeyConfig
from repro.core.failure import FailureHandler
from repro.core.offsets import OffsetTracker
from repro.core.pool import ModelPool, PoolQuery
from repro.provenance.database import ProvenanceDatabase
from repro.provenance.records import TaskRecord
from repro.sim.interface import (
    MemoryPredictor,
    TaskSubmission,
    TraceContext,
    batch_by_group,
)

__all__ = ["SizeyPredictor"]


class SizeyPredictor(MemoryPredictor):
    """Online multi-model memory predictor (the paper's contribution)."""

    name = "Sizey"

    def __init__(self, config: SizeyConfig | None = None) -> None:
        self.config = config if config is not None else SizeyConfig()
        self.db = ProvenanceDatabase()
        self.pools: dict[tuple[str, str], ModelPool] = {}
        self.offsets: dict[tuple[str, str], OffsetTracker] = {}
        self._failure = FailureHandler()
        # instance_id -> (pool key, raw gated estimate) awaiting completion.
        self._pending: dict[int, tuple[tuple[str, str], float]] = {}
        # Diagnostics.
        self.selection_counts: Counter[str] = Counter()
        self.raw_prediction_log: dict[str, list[tuple[int, float, float]]] = (
            defaultdict(list)
        )
        self.training_times_s: list[float] = []
        self.preset_fallbacks = 0
        #: Last TraceContext received via begin_trace (API v2 lifecycle).
        self.trace_context: TraceContext | None = None

    # ------------------------------------------------------------------
    # key handling
    # ------------------------------------------------------------------
    def _key(self, task_type: str, machine: str) -> tuple[str, str]:
        if self.config.granularity == "task":
            return (task_type, "*")
        return (task_type, machine)

    def _new_pool(self) -> ModelPool:
        c = self.config
        return ModelPool(
            c.model_classes,
            training_mode=c.training_mode,
            alpha=c.alpha,
            gating=c.gating,
            beta=c.beta,
            hpo_interval=c.hpo_interval,
            accuracy_mode=c.accuracy_mode,
            accuracy_window=c.accuracy_window,
            mlp_window=c.mlp_window,
            rf_refit_interval=c.rf_refit_interval,
            random_state=c.random_state,
        )

    # ------------------------------------------------------------------
    # Phase 2: prediction
    # ------------------------------------------------------------------
    def predict_batch(self, tasks) -> np.ndarray:
        """Size a group of submissions, grouped by (task type, machine) pool.

        Submissions sharing a pool key are stacked into one feature
        matrix and answered by a single :meth:`ModelPool.predict_batch`
        call — one model query per slot instead of one per task, scored
        and gated as columns.  A pool that is missing or below
        ``min_history`` falls back to each task's preset ("submitted
        directly to the resource manager, resorting to the user-provided
        ... estimate").  Every row counts its selected model, keeps its
        raw estimate pending until the task's success is observed, and
        is padded by the pool's current offset.
        """
        def sizer(key, group):
            pool = self.pools.get(key)
            if pool is None or not pool.is_ready or (
                pool.n_observations < self.config.min_history
            ):
                self.preset_fallbacks += len(group)
                return None
            X = np.concatenate([task.features for task in group])
            tracker = self.offsets.get(key)
            offset = tracker.current_offset()[0] if tracker is not None else 0.0
            query = pool.predict_batch(X)
            self.selection_counts.update(query.selected_models())
            raw = self._raw_estimates(key, group, query)
            for task, estimate in zip(group, raw.tolist()):
                self._pending[task.instance_id] = (key, estimate)
            return np.maximum(raw + offset, 1.0)

        return batch_by_group(
            tasks, lambda t: self._key(t.task_type, t.machine), sizer
        )

    def _raw_estimates(
        self, key: tuple[str, str], group: list[TaskSubmission], query: PoolQuery
    ) -> np.ndarray:
        """The un-offset estimate of each row of a pool query: the
        pool's gated estimates."""
        return query.estimates

    # ------------------------------------------------------------------
    # API v2 lifecycle
    # ------------------------------------------------------------------
    def begin_trace(self, context: TraceContext | None = None) -> None:
        """Record the trace context; per-trace caches start clean."""
        self.trace_context = context
        self._pending.clear()

    # ------------------------------------------------------------------
    # Phase 3: online learning
    # ------------------------------------------------------------------
    def observe(self, record: TaskRecord) -> None:
        if not record.success:
            # Failed attempts reveal only a lower bound on peak memory;
            # models train on true peaks exclusively (see ProvenanceDatabase).
            self.db.insert(record)
            return

        key = self._key(record.task_type, record.machine)
        pending = self._pending.pop(record.instance_id, None)
        if pending is not None:
            pkey, raw = pending
            tracker = self.offsets.get(pkey)
            if tracker is None:
                tracker = self.offsets[pkey] = OffsetTracker(
                    self.config.offset_strategy,
                    self.config.time_to_failure,
                    window=self.config.offset_window,
                )
            tracker.record(raw, record.peak_memory_mb, record.runtime_hours)
            self.raw_prediction_log[record.task_type].append(
                (record.timestamp, raw, record.peak_memory_mb)
            )

        self.db.insert(record)
        pool = self.pools.get(key)
        if pool is None:
            pool = self.pools[key] = self._new_pool()
        seconds = pool.update(record.features, record.peak_memory_mb)
        self.training_times_s.append(seconds)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def on_failure(
        self, task: TaskSubmission, failed_allocation_mb: float, attempt: int
    ) -> float:
        return self._failure.next_allocation(
            failed_allocation_mb,
            attempt,
            self.db.max_observed_peak(task.task_type),
            task.preset_memory_mb,
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def model_selection_shares(self) -> dict[str, float]:
        """Fraction of predictions per selected model class (Fig. 11)."""
        total = sum(self.selection_counts.values())
        if total == 0:
            return {}
        return {
            name: count / total for name, count in self.selection_counts.items()
        }

    def median_training_time_ms(self) -> float:
        """Median per-update training time in milliseconds (Fig. 9)."""
        if not self.training_times_s:
            return float("nan")
        return float(np.median(self.training_times_s) * 1e3)
