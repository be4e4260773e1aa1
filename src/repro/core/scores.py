"""RAQ scoring: accuracy (Eq. 1), efficiency (Eq. 2), composite (Eq. 3).

All three scores are normalised scalars in [0, 1], 1 best.

Accuracy is evaluated *prequentially* by default: each time a new
measurement arrives, every already-trained model first predicts it, the
bounded relative-error term enters that model's running mean, and only
then does the model train on the point.  This matches the paper's "the
prediction accuracy of individual models is permanently assessed" while
costing O(1) per update.  A retrospective mode (re-scoring the whole
history with the current model) is available for ablation.

Efficiency and RAQ score a whole pool query at once: rows are tasks,
columns are models, so one call scores every submission of a batch.
Accuracy is a property of the pool, one score per model, and
broadcasts over the rows.
"""

from __future__ import annotations

import numpy as np

from repro.core._window import window_mean

__all__ = [
    "accuracy_term",
    "accuracy_terms",
    "RunningAccuracy",
    "efficiency_scores",
    "raq_scores",
]


def accuracy_term(y_pred: float, y_true: float) -> float:
    """One summand of Eq. 1: ``1 - min(|yhat - y| / y, 1)``.

    The error is bounded at 1 "to prohibit large estimation outliers from
    skewing the computed scores".  ``y_true`` must be positive (peak
    memory always is).
    """
    if y_true <= 0:
        raise ValueError(f"y_true must be positive, got {y_true}")
    return 1.0 - min(abs(y_pred - y_true) / y_true, 1.0)


def accuracy_terms(y_pred: np.ndarray, y_true: np.ndarray) -> np.ndarray:
    """Vectorised Eq. 1 summands for retrospective scoring."""
    y_pred = np.asarray(y_pred, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    if np.any(y_true <= 0):
        raise ValueError("y_true must be strictly positive")
    return 1.0 - np.minimum(np.abs(y_pred - y_true) / y_true, 1.0)


class RunningAccuracy:
    """Prequential accumulator of the Eq. 1 mean.

    ``score`` is 0.0 until the first observation — an untested model gets
    the worst accuracy, so gating will not trust it over tested peers
    when ``alpha < 1``.

    With ``window=None`` the mean runs over the full history in O(1).
    A finite ``window`` averages only the most recent terms, so a model
    that *becomes* better once enough data arrives (the MLP on a
    non-linear task) can overtake one that merely started well — this is
    what lets Sizey "switch to more complex models once more data become
    available" (paper §III-D discussion of Fig. 11).
    """

    __slots__ = ("_sum", "_count", "_window", "_terms")

    def __init__(self, window: int | None = None) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1 or None, got {window}")
        self._sum = 0.0
        self._count = 0
        self._window = window
        self._terms: list[float] = []

    def update(self, y_pred: float, y_true: float) -> None:
        term = accuracy_term(y_pred, y_true)
        self._count += 1
        if self._window is None:
            self._sum += term
            return
        self._terms.append(term)
        if len(self._terms) > self._window:
            self._terms.pop(0)

    def reset_to(self, terms: np.ndarray) -> None:
        """Replace the accumulated state (retrospective mode)."""
        self._count = int(terms.shape[0])
        if self._window is None:
            self._sum = float(np.sum(terms))
        else:
            self._terms = [float(t) for t in terms[-self._window :]]

    @property
    def count(self) -> int:
        return self._count

    @property
    def score(self) -> float:
        if self._count == 0:
            return 0.0
        if self._window is None:
            return self._sum / self._count
        if not self._terms:
            return 0.0
        return window_mean(self._terms)


def efficiency_scores(predictions: np.ndarray) -> np.ndarray:
    """Eq. 2 per row: ``ES_ij = 1 - yhat_ij / max_k yhat_ik``.

    ``predictions`` is ``(n_rows, n_models)``: each row holds one
    submission's per-model estimates, which must be positive (callers
    clamp model outputs to a small positive floor first).  The largest
    estimate of a row always scores 0; with a single model the score is
    0 as well, consistent with Eq. 2.
    """
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.ndim != 2 or preds.size == 0:
        raise ValueError(
            "predictions must be a non-empty (n_rows, n_models) array"
        )
    # fmin skips NaN, as an elementwise ``<= 0`` test would.
    if np.fmin.reduce(preds, axis=None) <= 0:
        raise ValueError("predictions must be positive (clamp before scoring)")
    return 1.0 - preds / preds.max(axis=1, keepdims=True)


def raq_scores(
    accuracy: np.ndarray, efficiency: np.ndarray, alpha: float
) -> np.ndarray:
    """Eq. 3 per row: ``RAQ_ij = (1 - alpha) * AS_j + alpha * ES_ij``.

    ``accuracy`` holds one score per model, ``efficiency`` is
    ``(n_rows, n_models)``; the result has the efficiency's shape.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    acc = np.asarray(accuracy, dtype=np.float64)
    eff = np.asarray(efficiency, dtype=np.float64)
    if eff.ndim != 2 or acc.shape != eff.shape[1:]:
        raise ValueError(
            f"shape mismatch: accuracy {acc.shape} vs efficiency {eff.shape}"
        )
    if _outside_unit_interval(acc) or _outside_unit_interval(eff):
        raise ValueError("scores must lie in [0, 1]")
    return (1.0 - alpha) * acc + alpha * eff


def _outside_unit_interval(scores: np.ndarray) -> bool:
    """Whether any score lies outside [0, 1] (1e-12 slack); NaN does not."""
    return scores.size > 0 and bool(
        np.fmin.reduce(scores, axis=None) < -1e-12
        or np.fmax.reduce(scores, axis=None) > 1 + 1e-12
    )
