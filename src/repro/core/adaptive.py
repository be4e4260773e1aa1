"""Adaptive alpha: the paper's future-work extension (§III-E).

The alpha analysis (Fig. 10) shows no single value wins everywhere:
"Switching between alpha parameters adaptively during workflow
execution, as we do with the models, could address this problem and is
an idea for future work."  This module implements that idea.

Per (task type, machine) pool, a small set of candidate alphas is
tracked.  Every prediction gates the model outputs once per candidate;
when the task completes, each candidate's *hypothetical* estimate is
scored with the same wastage model the offset selection uses (over-
allocation for covered tasks, lost work + max-observed retry for
misses).  The candidate with the least accumulated hypothetical wastage
is used for the real prediction — a bandit-with-full-feedback, since
every arm's outcome is observable from the same completion record.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.config import SizeyConfig
from repro.core.gating import gate
from repro.core.pool import PoolQuery
from repro.core.predictor import SizeyPredictor
from repro.core.scores import raq_scores
from repro.sim.interface import TaskSubmission

__all__ = ["AdaptiveAlphaSizey", "DEFAULT_ALPHA_CANDIDATES"]

DEFAULT_ALPHA_CANDIDATES = (0.0, 0.25, 0.5, 0.75, 1.0)


class AdaptiveAlphaSizey(SizeyPredictor):
    """Sizey with per-task-type online alpha selection."""

    name = "Sizey-AdaptiveAlpha"

    def __init__(
        self,
        config: SizeyConfig | None = None,
        alpha_candidates: tuple[float, ...] = DEFAULT_ALPHA_CANDIDATES,
    ) -> None:
        if config is None:
            config = SizeyConfig(training_mode="incremental")
        super().__init__(config)
        if not alpha_candidates or any(not 0.0 <= a <= 1.0 for a in alpha_candidates):
            raise ValueError(
                f"alpha candidates must lie in [0, 1], got {alpha_candidates}"
            )
        self.alpha_candidates = tuple(alpha_candidates)
        # Accumulated hypothetical wastage (MBh) per pool per candidate.
        self._alpha_waste: dict[tuple[str, str], np.ndarray] = {}
        # instance_id -> per-candidate raw estimates awaiting completion.
        self._pending_candidates: dict[int, tuple[tuple[str, str], np.ndarray]] = {}
        self.alpha_choices: dict[str, list[float]] = defaultdict(list)

    def current_alpha(self, key: tuple[str, str]) -> float:
        """The currently preferred alpha for a pool (least waste so far)."""
        waste = self._alpha_waste.get(key)
        if waste is None:
            return self.alpha_candidates[0]
        return self.alpha_candidates[int(np.argmin(waste))]

    def _raw_estimates(
        self, key: tuple[str, str], group: list[TaskSubmission], query: PoolQuery
    ) -> np.ndarray:
        """Gate the query once per candidate alpha and use the preferred one.

        Every row's candidate estimates stay pending until the task's
        success scores them; :meth:`SizeyPredictor.predict_batch` pads
        the chosen column with the pool's offset.
        """
        c = self.config
        candidates = np.stack(
            [
                gate(
                    query.predictions,
                    raq_scores(query.accuracy, query.efficiency, a),
                    c.gating,
                    c.beta,
                )[1]
                for a in self.alpha_candidates
            ],
            axis=1,
        )
        for task, estimates in zip(group, candidates):
            self._pending_candidates[task.instance_id] = (key, estimates)

        alpha = self.current_alpha(key)
        for task in group:
            self.alpha_choices[task.task_type].append(alpha)
        return candidates[:, self.alpha_candidates.index(alpha)]

    def observe(self, record) -> None:
        if record.success:
            pending = self._pending_candidates.pop(record.instance_id, None)
            if pending is not None:
                key, estimates = pending
                waste = self._alpha_waste.setdefault(
                    key, np.zeros(len(self.alpha_candidates))
                )
                y = record.peak_memory_mb
                rt = record.runtime_hours
                max_peak = self.db.max_observed_peak(record.task_type) or y
                covered = estimates >= y
                waste += np.where(
                    covered,
                    (estimates - y) * rt,
                    estimates * rt * self.config.time_to_failure
                    + max(max_peak - y, 0.0) * rt,
                )
        super().observe(record)
