"""Fault-tolerance offsets (paper §II-E).

Sizey pads its aggregate prediction with an offset so that small
underpredictions do not turn into task failures.  Four offset statistics
are maintained over the pool's own prediction history:

- ``std``          — standard deviation of the prediction errors;
- ``std_under``    — standard deviation of underprediction errors only;
- ``median``       — median absolute prediction error;
- ``median_under`` — median underprediction error.

The *dynamic* strategy replays, after every completion, which of the four
offsets "would have caused the least wastage based on the tasks already
executed" and uses that one for the next prediction.  The hypothetical
wastage of an offset replays the paper's execution model: an attempt
whose padded prediction covers the actual peak wastes the over-allocation
for the task's runtime; one that does not wastes its whole allocation for
``time_to_failure`` of the runtime plus a retry at the maximum observed
peak.

The window statistics equal ``np.std`` and ``np.median`` to the last
bit without importing ``numpy.ma`` (see :mod:`repro.core._window`).
"""

from __future__ import annotations

import numpy as np

from repro.core._window import window_median, window_std

__all__ = ["OFFSET_STRATEGIES", "compute_offset", "OffsetTracker"]

OFFSET_STRATEGIES = ("std", "std_under", "median", "median_under")


def compute_offset(
    strategy: str, predictions: np.ndarray, actuals: np.ndarray
) -> float:
    """Offset value of one strategy given prediction/actual history.

    Underpredictions are the cases ``actual > prediction`` (positive
    error).  Strategies over an empty relevant set return 0.0 — with no
    evidence of underprediction there is nothing to pad.
    """
    preds = np.asarray(predictions, dtype=np.float64)
    acts = np.asarray(actuals, dtype=np.float64)
    if preds.shape != acts.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {acts.shape}")
    if preds.size == 0:
        return 0.0
    errors = acts - preds  # positive = underprediction
    return _statistic(strategy, errors, errors[errors > 0])


def _statistic(strategy: str, errors: np.ndarray, under: np.ndarray) -> float:
    """One strategy's offset from the errors and their positive part."""
    if strategy == "std":
        return window_std(errors)
    if strategy == "std_under":
        return window_std(under) if under.size else 0.0
    if strategy == "median":
        return window_median(np.abs(errors))
    if strategy == "median_under":
        return window_median(under) if under.size else 0.0
    raise ValueError(
        f"unknown offset strategy {strategy!r}; choose from {OFFSET_STRATEGIES}"
    )


class OffsetTracker:
    """Per-(task type, machine) offset bookkeeping and dynamic selection.

    Statistics are computed over a sliding window of the most recent
    ``window`` predictions.  Without the window, the early online phase
    (large transient errors while models warm up) would keep the standard
    deviation inflated for the rest of the workflow, padding thousands of
    later predictions for a spread that no longer exists.

    The selected offset only changes when a triple is recorded, so
    :meth:`current_offset` computes it once per :meth:`record`.
    """

    def __init__(
        self,
        strategy: str = "dynamic",
        time_to_failure: float = 1.0,
        window: int = 128,
        scales: tuple[float, ...] = (1.0, 2.0),
    ) -> None:
        if strategy not in ("dynamic", "none", *OFFSET_STRATEGIES):
            raise ValueError(f"unknown offset strategy {strategy!r}")
        if not 0.0 < time_to_failure <= 1.0:
            raise ValueError(
                f"time_to_failure must be in (0, 1], got {time_to_failure}"
            )
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not scales or any(s <= 0 for s in scales):
            raise ValueError(f"scales must be positive, got {scales}")
        self.strategy = strategy
        self.time_to_failure = time_to_failure
        self.window = window
        self.scales = tuple(scales)
        self._preds: list[float] = []
        self._acts: list[float] = []
        self._runtimes: list[float] = []
        self._current: tuple[float, str] | None = None

    def __len__(self) -> int:
        return len(self._preds)

    def record(self, prediction: float, actual: float, runtime_hours: float) -> None:
        """Store one (raw prediction, measured peak, runtime) triple."""
        if actual <= 0 or runtime_hours < 0:
            raise ValueError("actual must be positive, runtime non-negative")
        self._preds.append(float(prediction))
        self._acts.append(float(actual))
        self._runtimes.append(float(runtime_hours))
        if len(self._preds) > self.window:
            del self._preds[0], self._acts[0], self._runtimes[0]
        self._current = None

    def current_offset(self) -> tuple[float, str]:
        """Return ``(offset_mb, strategy_used)`` for the next prediction.

        Dynamic mode evaluates each of the four statistics at each
        configured scale (failure-heavy pools rationally prefer the
        scaled-up variants; cheap-failure pools the plain ones) and keeps
        whichever candidate would have wasted the least historically.
        """
        if self._current is None:
            self._current = self._select()
        return self._current

    def _select(self) -> tuple[float, str]:
        if self.strategy == "none" or not self._preds:
            return 0.0, "none"
        preds = np.asarray(self._preds)
        acts = np.asarray(self._acts)
        if self.strategy != "dynamic":
            return compute_offset(self.strategy, preds, acts), self.strategy
        errors = acts - preds
        under = errors[errors > 0]
        bases = np.array(
            [_statistic(name, errors, under) for name in OFFSET_STRATEGIES]
        )
        # One row per (strategy, scale) candidate, strategy-major.
        offsets = (bases[:, None] * np.asarray(self.scales)[None, :]).reshape(-1, 1)
        waste = self._hypothetical_wastage(offsets, preds, acts)
        # First minimum wins; a NaN or infinite wastage never does.
        best = int(np.argmin(np.where(np.isnan(waste), np.inf, waste)))
        if not waste[best] < np.inf:
            return 0.0, OFFSET_STRATEGIES[0]
        return float(offsets[best, 0]), OFFSET_STRATEGIES[best // len(self.scales)]

    def _hypothetical_wastage(
        self, offsets: np.ndarray, preds: np.ndarray, acts: np.ndarray
    ) -> np.ndarray:
        """Wastage (MB-hours) each offset row would have produced historically."""
        rts = np.asarray(self._runtimes)
        alloc = preds + offsets
        ok = alloc >= acts
        waste = np.where(
            ok,
            (alloc - acts) * rts,
            # Failure: whole allocation held until the kill, then a retry
            # at the maximum observed peak (the paper's failure handler),
            # which over-allocates by (max_peak - actual).
            alloc * rts * self.time_to_failure + (acts.max() - acts) * rts,
        )
        return waste.sum(axis=1)
