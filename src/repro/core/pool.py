"""The per-(task type, machine) model pool.

One pool per task-machine configuration (the paper's finest granularity,
Fig. 4): it owns the four model slots, their prequential accuracy
scores, and the pool-local training history.  ``update`` is Phase 3 of
Fig. 3 (online learning); ``predict_batch`` is Phase 2 steps 2.1-2.2
(individual predictions, RAQ scoring, gating) for a batch of
submissions.

A query is columnar: each fitted slot answers all rows in one call, and
the answers are scored and gated as ``(n_rows, n_models)`` arrays in a
:class:`PoolQuery`, rows being tasks and columns models.  Rows are the
contiguous axis, so every per-row reduction (max, sum, argmax, dot)
runs over the same memory as on that row alone and gives the same bits.
:class:`PoolPrediction` is a one-row copy for readers that want a
record per task; ``predict`` is row 0 of a one-row query.
"""

from __future__ import annotations

import operator
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.gating import gate
from repro.core.models import ModelSlot, build_slots
from repro.core.scores import (
    RunningAccuracy,
    accuracy_terms,
    efficiency_scores,
    raq_scores,
)

__all__ = ["PoolPrediction", "PoolQuery", "ModelPool"]


@dataclass(frozen=True)
class PoolPrediction:
    """Full transparency record of one gated pool prediction (one row)."""

    model_names: tuple[str, ...]
    predictions: np.ndarray
    accuracy: np.ndarray
    efficiency: np.ndarray
    raq: np.ndarray
    weights: np.ndarray
    estimate: float
    selected_index: int

    @property
    def selected_model(self) -> str:
        """The argmax-RAQ model class (Fig. 11 counts these)."""
        return self.model_names[self.selected_index]


@dataclass(frozen=True)
class PoolQuery:
    """One gated pool query: rows are tasks, columns are models.

    ``predictions``, ``efficiency``, ``raq`` and ``weights`` are
    C-contiguous ``(n_rows, n_models)`` arrays; ``accuracy`` holds the
    pool's score per model, ``estimates`` and ``selected`` one gated
    estimate and argmax-RAQ model index per row.  ``len()``, iteration
    and indexing give :class:`PoolPrediction` rows as copies.
    """

    model_names: tuple[str, ...]
    accuracy: np.ndarray
    predictions: np.ndarray
    efficiency: np.ndarray
    raq: np.ndarray
    weights: np.ndarray
    estimates: np.ndarray
    selected: np.ndarray

    @classmethod
    def gated(
        cls,
        model_names: tuple[str, ...],
        accuracy: np.ndarray,
        predictions: np.ndarray,
        alpha: float,
        gating: str,
        beta: float,
    ) -> PoolQuery:
        """Score (Eqs. 2-3) and gate (Eq. 4) every row at once."""
        efficiency = efficiency_scores(predictions)
        raq = raq_scores(accuracy, efficiency, alpha)
        weights, estimates, selected = gate(predictions, raq, gating, beta)
        return cls(
            model_names, accuracy, predictions, efficiency, raq, weights,
            estimates, selected,
        )

    def selected_models(self) -> list[str]:
        """Each row's argmax-RAQ model class, in row order (Fig. 11)."""
        return [self.model_names[i] for i in self.selected.tolist()]

    def __len__(self) -> int:
        return self.predictions.shape[0]

    def __getitem__(self, row: int) -> PoolPrediction:
        j = operator.index(row)
        return PoolPrediction(
            model_names=self.model_names,
            predictions=self.predictions[j].copy(),
            accuracy=self.accuracy.copy(),
            efficiency=self.efficiency[j].copy(),
            raq=self.raq[j].copy(),
            weights=self.weights[j].copy(),
            estimate=float(self.estimates[j]),
            selected_index=int(self.selected[j]),
        )

    def __iter__(self):
        return (self[j] for j in range(len(self)))


class _History:
    """Growable (X, y) history with contiguous float64 storage.

    The feature dimension is sized lazily from the first appended
    vector, so multi-feature submissions (d > 1) work; every later
    vector must keep that dimension.
    """

    _INITIAL_CAP = 32

    def __init__(self) -> None:
        self._X: np.ndarray | None = None
        self._y = np.empty(self._INITIAL_CAP, dtype=np.float64)
        self.size = 0

    def append(self, x: np.ndarray, y: float) -> None:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if self._X is None:
            self._X = np.empty(
                (self._INITIAL_CAP, x.size), dtype=np.float64
            )
        elif x.size != self._X.shape[1]:
            raise ValueError(
                f"feature dimension changed: history holds "
                f"{self._X.shape[1]}-d vectors, got {x.size}-d"
            )
        if self.size == self._X.shape[0]:
            cap = self._X.shape[0] * 2
            X_new = np.empty((cap, self._X.shape[1]), dtype=np.float64)
            y_new = np.empty(cap, dtype=np.float64)
            X_new[: self.size] = self._X[: self.size]
            y_new[: self.size] = self._y[: self.size]
            self._X, self._y = X_new, y_new
        self._X[self.size] = x
        self._y[self.size] = y
        self.size += 1

    @property
    def X(self) -> np.ndarray:
        if self._X is None:
            return np.empty((0, 1), dtype=np.float64)
        return self._X[: self.size]

    @property
    def y(self) -> np.ndarray:
        return self._y[: self.size]


class ModelPool:
    """Trains and queries the model set for one (task type, machine) pair.

    Parameters mirror :class:`repro.core.config.SizeyConfig`; the pool is
    deliberately config-agnostic (plain arguments) so it can be unit
    tested and reused without a full Sizey predictor around it.
    """

    def __init__(
        self,
        model_classes: tuple[str, ...] = ("linear", "knn", "mlp", "random_forest"),
        *,
        training_mode: str = "full",
        alpha: float = 0.0,
        gating: str = "interpolation",
        beta: float = 10.0,
        hpo_interval: int = 25,
        accuracy_mode: str = "prequential",
        accuracy_window: int | None = 50,
        mlp_window: int = 64,
        rf_refit_interval: int = 16,
        random_state: int = 0,
    ) -> None:
        self.training_mode = training_mode
        self.alpha = alpha
        self.gating = gating
        self.beta = beta
        self.hpo_interval = hpo_interval
        self.accuracy_mode = accuracy_mode
        self.mlp_window = mlp_window
        self.slots: list[ModelSlot] = build_slots(
            model_classes,
            training_mode,
            random_state,
            rf_refit_interval=rf_refit_interval,
        )
        self._accuracy = [RunningAccuracy(accuracy_window) for _ in self.slots]
        self._history = _History()
        self._n_updates = 0
        self.last_update_seconds = 0.0
        # Hot-path cache: which slots are fitted, their names, and their
        # accuracy scores only change inside update(), so predict() /
        # predict_batch() reuse these instead of re-filtering the slots
        # and rebuilding the scores array on every call.
        self._active: list[ModelSlot] = []
        self._active_names: tuple[str, ...] = ()
        self._active_accuracy = np.empty(0, dtype=np.float64)
        # One pool may now be shared by concurrently interleaved
        # predict/observe callers (the sizing server's event loop, the
        # threaded regression tests): a single reentrant lock serializes
        # update() against predict()/predict_batch(), so a reader never
        # queries a half-trained slot or a fitted-slot cache mid-rebuild.
        # Uncontended acquisition is ~100 ns per *call* (not per task),
        # which is noise next to a model query.
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        # Locks are not picklable; a deserialized pool gets a fresh one.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def n_observations(self) -> int:
        return self._history.size

    @property
    def is_ready(self) -> bool:
        """Whether at least one slot can produce predictions."""
        return any(s.fitted for s in self.slots)

    def accuracy_scores(self) -> np.ndarray:
        with self._lock:
            return np.array(
                [a.score for a in self._accuracy], dtype=np.float64
            )

    # ------------------------------------------------------------------
    # Phase 3: online learning
    # ------------------------------------------------------------------
    def update(self, x: np.ndarray, y: float) -> float:
        """Ingest one completed execution; returns the training seconds.

        Order of operations matters: fitted models first predict the new
        point (prequential accuracy update, honest out-of-sample), then
        the point joins the history, then every model trains.
        """
        with self._lock:
            x = np.asarray(x, dtype=np.float64).reshape(1, -1)
            if self.accuracy_mode == "prequential":
                for slot, acc in zip(self.slots, self._accuracy):
                    if slot.fitted:
                        acc.update(slot.predict_one(x), y)

            self._history.append(x, float(y))
            self._n_updates += 1
            n = self._n_updates

            t0 = time.perf_counter()
            X_all, y_all = self._history.X, self._history.y
            if self.training_mode == "full":
                do_hpo = n == 1 or (n % self.hpo_interval == 0)
                for slot in self.slots:
                    slot.train_full(X_all, y_all, do_hpo=do_hpo)
            else:
                w = min(self.mlp_window, n)
                X_win, y_win = X_all[-w:], y_all[-w:]
                for slot in self.slots:
                    slot.update_incremental(x, float(y), X_win, y_win, n)
            self.last_update_seconds = time.perf_counter() - t0

            if self.accuracy_mode == "retrospective":
                # Re-score the whole history with the just-trained models.
                for slot, acc in zip(self.slots, self._accuracy):
                    if slot.fitted:
                        terms = accuracy_terms(slot.predict(X_all), y_all)
                        acc.reset_to(terms)
            self._refresh_active()
            return self.last_update_seconds

    def _refresh_active(self) -> None:
        """Rebuild the fitted-slot cache after training/scoring changed."""
        active = [
            (slot, acc)
            for slot, acc in zip(self.slots, self._accuracy)
            if slot.fitted
        ]
        self._active = [slot for slot, _ in active]
        self._active_names = tuple(slot.class_name for slot, _ in active)
        self._active_accuracy = np.array(
            [acc.score for _, acc in active], dtype=np.float64
        )

    # ------------------------------------------------------------------
    # Phase 2: prediction
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> PoolPrediction:
        """Gated prediction for feature vector ``x`` (shape ``(1, d)``):
        row 0 of a one-row :meth:`predict_batch`."""
        return self.predict_batch(
            np.asarray(x, dtype=np.float64).reshape(1, -1)
        )[0]

    def predict_batch(self, X: np.ndarray) -> PoolQuery:
        """Gated predictions for a feature matrix ``X`` (shape ``(n, d)``).

        Issues exactly one query per fitted model slot (the expensive
        part — e.g. the whole random forest traverses once for all ``n``
        rows), then scores and gates all rows as ``(n, n_models)``
        arrays.  Efficiency compares the models within each row, so a
        row's result does not depend on the other rows.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must have shape (n, d), got {X.shape}")
        with self._lock:
            if not self._active:
                raise RuntimeError(
                    "pool has no fitted models; call update() first"
                )
            names = self._active_names
            preds = np.empty((X.shape[0], len(names)), dtype=np.float64)
            for j, slot in enumerate(self._active):
                preds[:, j] = slot.predict(X)
            # Copy: the query is a transparency record callers may hold
            # onto; handing out the cache itself would let them corrupt it.
            acc = self._active_accuracy.copy()
        return PoolQuery.gated(
            names, acc, preds, self.alpha, self.gating, self.beta
        )
