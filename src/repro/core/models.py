"""The four Sizey model classes wrapped as online-trainable slots.

Each slot owns one model family (paper Fig. 5): linear regression, KNN
regression, MLP regression, random-forest regression.  A slot knows how
to

- **fully retrain** from the complete history, optionally running
  grid-search hyper-parameter optimisation (the cached best parameters
  are reused between HPO rounds, as in the paper's §III-D), and
- **incrementally update** with a lightweight step after one completion:
  exact recursive least squares for the linear model, sample append for
  KNN, five warm-started Adam steps on the pool's sliding window for the
  MLP, and refits on that same window every ``refit_interval`` updates
  for the forest.

A change to an incremental update moves outputs, so it is judged on the
paper-scale quality scorecard (``repro scorecard``, docs/QUALITY.md)
rather than pinned bit-for-bit.

Scale handling: the MLP standardises inputs and targets internally
(peak-memory labels span MB to tens of GB); KNN and trees are invariant
to monotone single-feature scaling, and the linear model needs none.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_random_state
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.mlp import MLPRegressor
from repro.ml.model_selection import GridSearchCV
from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.sgd import RecursiveLeastSquares

__all__ = [
    "ModelSlot",
    "LinearSlot",
    "KNNSlot",
    "MLPSlot",
    "RandomForestSlot",
    "build_slots",
]

#: Model outputs are clamped to this floor before scoring/gating:
#: a non-positive memory estimate is meaningless.
MIN_PREDICTION_MB = 1.0


class ModelSlot:
    """Base class; subclasses implement the train/update/predict trio."""

    class_name: str = "base"

    def __init__(self, mode: str, random_state: int = 0) -> None:
        if mode not in ("full", "incremental"):
            raise ValueError(f"mode must be 'full' or 'incremental', got {mode!r}")
        self.mode = mode
        self.random_state = random_state
        self.fitted = False

    # -- full retraining ------------------------------------------------
    def train_full(self, X: np.ndarray, y: np.ndarray, do_hpo: bool) -> None:
        raise NotImplementedError

    # -- incremental update ---------------------------------------------
    def update_incremental(
        self,
        x_new: np.ndarray,
        y_new: float,
        X_window: np.ndarray,
        y_window: np.ndarray,
        n_seen: int,
    ) -> None:
        raise NotImplementedError

    # -- inference -------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Batch predictions, clamped to the positive floor."""
        raise NotImplementedError

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(x)[0])

    @staticmethod
    def _clamp(pred: np.ndarray) -> np.ndarray:
        return np.maximum(pred, MIN_PREDICTION_MB)


class LinearSlot(ModelSlot):
    """Linear regression: OLS when fully retraining, exact RLS online."""

    class_name = "linear"

    def __init__(self, mode: str, random_state: int = 0) -> None:
        super().__init__(mode, random_state)
        self._model = (
            LinearRegression()
            if mode == "full"
            else RecursiveLeastSquares(ridge=1e-3)
        )

    def train_full(self, X: np.ndarray, y: np.ndarray, do_hpo: bool) -> None:
        self._model = LinearRegression().fit(X, y)
        self.fitted = True

    def update_incremental(self, x_new, y_new, X_window, y_window, n_seen) -> None:
        self._model.partial_fit(x_new, [y_new])
        self.fitted = True

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._clamp(self._model.predict(X))


class KNNSlot(ModelSlot):
    """KNN regression; HPO over k and the weighting scheme."""

    class_name = "knn"

    PARAM_GRID = {"n_neighbors": [1, 3, 5], "weights": ["uniform", "distance"]}

    def __init__(self, mode: str, random_state: int = 0) -> None:
        super().__init__(mode, random_state)
        self._best_params: dict = {"n_neighbors": 3, "weights": "uniform"}
        self._model = KNeighborsRegressor(**self._best_params)

    def train_full(self, X: np.ndarray, y: np.ndarray, do_hpo: bool) -> None:
        if do_hpo and X.shape[0] >= 6:
            search = GridSearchCV(
                KNeighborsRegressor(), self.PARAM_GRID, cv=3
            ).fit(X, y)
            self._best_params = search.best_params_
            # The search refit its winner on all of X already.
            self._model = search.best_estimator_
        else:
            self._model = KNeighborsRegressor(**self._best_params).fit(X, y)
        self.fitted = True

    def update_incremental(self, x_new, y_new, X_window, y_window, n_seen) -> None:
        if not self.fitted:
            self._model = KNeighborsRegressor(**self._best_params).fit(
                x_new, [y_new]
            )
        else:
            self._model.partial_fit(x_new, [y_new])
        self.fitted = True

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._clamp(self._model.predict(X))


class MLPSlot(ModelSlot):
    """MLP regression with internal input/target standardisation.

    Full mode refits from scratch (capped at the most recent
    ``max_train_points`` so per-update cost stays bounded on long
    workflows); incremental mode runs ``PARTIAL_FIT_STEPS`` warm-started
    Adam steps on the pool's sliding window (``mlp_window`` points) —
    the paper's "lightweight — and thus fast — online learning step".
    Five steps cost about a quarter of twenty, for +0.5% median wastage
    and +0.9% median failures at paper scale (ttf 1.0; docs/QUALITY.md
    has the scorecards).
    """

    class_name = "mlp"

    PARAM_GRID = {"hidden_layer_sizes": [(8,), (16,)]}
    #: Adam steps per incremental update (``MLPRegressor.partial_fit``);
    #: full retraining never reads it.  A new value moves Sizey's outputs,
    #: so it must pass the quality gate of docs/QUALITY.md.
    PARTIAL_FIT_STEPS = 5

    def __init__(
        self,
        mode: str,
        random_state: int = 0,
        max_train_points: int = 512,
    ) -> None:
        super().__init__(mode, random_state)
        self.max_train_points = max_train_points
        self._best_params: dict = {"hidden_layer_sizes": (16,)}
        self._model: MLPRegressor | None = None
        # Input/target standardisation state.
        self._x_mean = 0.0
        self._x_std = 1.0
        self._y_mean = 0.0
        self._y_std = 1.0
        # Welford accumulators for incremental mode.
        self._n = 0
        self._x_m2 = 0.0
        self._y_m2 = 0.0

    # -- scaling ----------------------------------------------------------
    def _refresh_scaling_from(self, X: np.ndarray, y: np.ndarray) -> None:
        self._x_mean = float(X.mean())
        self._x_std = float(X.std()) or 1.0
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0

    def _welford_update(self, x: float, y: float) -> None:
        self._n += 1
        for attr_mean, attr_m2, value in (
            ("_x_mean", "_x_m2", x),
            ("_y_mean", "_y_m2", y),
        ):
            mean = getattr(self, attr_mean)
            delta = value - mean
            mean += delta / self._n
            setattr(self, attr_mean, mean)
            setattr(self, attr_m2, getattr(self, attr_m2) + delta * (value - mean))
        if self._n > 1:
            self._x_std = float(np.sqrt(self._x_m2 / self._n)) or 1.0
            self._y_std = float(np.sqrt(self._y_m2 / self._n)) or 1.0

    def _scale_x(self, X: np.ndarray) -> np.ndarray:
        return (X - self._x_mean) / self._x_std

    def _scale_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self._y_mean) / self._y_std

    def _unscale_y(self, y: np.ndarray) -> np.ndarray:
        return y * self._y_std + self._y_mean

    # -- training ----------------------------------------------------------
    def _new_model(self, max_iter: int) -> MLPRegressor:
        return MLPRegressor(
            max_iter=max_iter,
            random_state=self.random_state,
            partial_fit_steps=self.PARTIAL_FIT_STEPS,
            **self._best_params,
        )

    def train_full(self, X: np.ndarray, y: np.ndarray, do_hpo: bool) -> None:
        if X.shape[0] > self.max_train_points:
            X = X[-self.max_train_points :]
            y = y[-self.max_train_points :]
        self._refresh_scaling_from(X, y)
        Xs, ys = self._scale_x(X), self._scale_y(y)
        if do_hpo and X.shape[0] >= 8:
            search = GridSearchCV(
                self._new_model(max_iter=40), self.PARAM_GRID, cv=2
            ).fit(Xs, ys)
            self._best_params = search.best_params_
        self._model = self._new_model(max_iter=80).fit(Xs, ys)
        self.fitted = True

    def update_incremental(self, x_new, y_new, X_window, y_window, n_seen) -> None:
        self._welford_update(float(x_new[0, 0]), float(y_new))
        if self._model is None:
            self._model = self._new_model(max_iter=80)
        self._model.partial_fit(
            self._scale_x(X_window), self._scale_y(y_window)
        )
        self.fitted = True

    def predict(self, X: np.ndarray) -> np.ndarray:
        assert self._model is not None, "predict before any training step"
        raw = self._model.predict(self._scale_x(np.asarray(X, dtype=np.float64)))
        return self._clamp(self._unscale_y(raw))


class RandomForestSlot(ModelSlot):
    """Random forest; full refits each update, incremental refits on a cadence.

    Incremental refits use the whole window the pool passes in: its last
    ``mlp_window`` points.
    """

    class_name = "random_forest"

    PARAM_GRID = {"max_depth": [None, 8]}

    def __init__(
        self,
        mode: str,
        random_state: int = 0,
        n_estimators: int = 20,
        refit_interval: int = 16,
    ) -> None:
        super().__init__(mode, random_state)
        self.n_estimators = n_estimators
        self.refit_interval = refit_interval
        self._best_params: dict = {"max_depth": None}
        self._model: RandomForestRegressor | None = None

    def _new_model(self) -> RandomForestRegressor:
        return RandomForestRegressor(
            n_estimators=self.n_estimators,
            random_state=self.random_state,
            **self._best_params,
        )

    def train_full(self, X: np.ndarray, y: np.ndarray, do_hpo: bool) -> None:
        if do_hpo and X.shape[0] >= 8:
            search = GridSearchCV(self._new_model(), self.PARAM_GRID, cv=2).fit(X, y)
            self._best_params = search.best_params_
            # The search refit its winner on all of X already.
            self._model = search.best_estimator_
        else:
            self._model = self._new_model().fit(X, y)
        self.fitted = True

    def update_incremental(self, x_new, y_new, X_window, y_window, n_seen) -> None:
        # Refit on the window every `refit_interval` completions; the
        # stale forest answers queries in between (documented deviation:
        # CART forests have no exact online update).
        if self._model is None or n_seen % self.refit_interval == 0:
            self._model = self._new_model().fit(X_window, y_window)
        self.fitted = True

    def predict(self, X: np.ndarray) -> np.ndarray:
        assert self._model is not None, "predict before any training step"
        return self._clamp(self._model.predict(X))


class GradientBoostingSlot(ModelSlot):
    """Gradient-boosted trees: an optional fifth model class.

    Not part of the paper's pool; included because the pool interface is
    explicitly extendable and boosting is the natural next candidate on
    small tabular provenance histories.  Like the forest, it refits on a
    cadence in incremental mode.
    """

    class_name = "gbrt"

    def __init__(
        self,
        mode: str,
        random_state: int = 0,
        n_estimators: int = 60,
        refit_interval: int = 16,
    ) -> None:
        super().__init__(mode, random_state)
        self.n_estimators = n_estimators
        self.refit_interval = refit_interval
        self._model = None

    def _new_model(self):
        from repro.ml.boosting import GradientBoostingRegressor

        return GradientBoostingRegressor(
            n_estimators=self.n_estimators,
            max_depth=3,
            random_state=self.random_state,
        )

    def train_full(self, X, y, do_hpo) -> None:
        self._model = self._new_model().fit(X, y)
        self.fitted = True

    def update_incremental(self, x_new, y_new, X_window, y_window, n_seen) -> None:
        if self._model is None or n_seen % self.refit_interval == 0:
            self._model = self._new_model().fit(X_window, y_window)
        self.fitted = True

    def predict(self, X):
        assert self._model is not None, "predict before any training step"
        return self._clamp(self._model.predict(X))


_SLOT_CLASSES: dict[str, type[ModelSlot]] = {
    "linear": LinearSlot,
    "knn": KNNSlot,
    "mlp": MLPSlot,
    "random_forest": RandomForestSlot,
    "gbrt": GradientBoostingSlot,
}

#: Registry for user-defined model classes ("easily extendable
#: interface"): register a ModelSlot subclass under a new name and list
#: that name in ``SizeyConfig.model_classes``... see examples/custom_model.py.
CUSTOM_SLOT_REGISTRY: dict[str, type[ModelSlot]] = {}


def register_slot(name: str, cls: type[ModelSlot]) -> None:
    """Register a custom model class for use in Sizey pools."""
    if not issubclass(cls, ModelSlot):
        raise TypeError(f"{cls!r} is not a ModelSlot subclass")
    if name in _SLOT_CLASSES:
        raise ValueError(f"{name!r} is a built-in model class")
    CUSTOM_SLOT_REGISTRY[name] = cls


def build_slots(
    model_classes: tuple[str, ...],
    mode: str,
    random_state: int,
    *,
    rf_refit_interval: int = 16,
) -> list[ModelSlot]:
    """Instantiate the configured model slots for one pool."""
    rng = check_random_state(random_state)
    slots: list[ModelSlot] = []
    for name in model_classes:
        seed = int(rng.integers(0, 2**31 - 1))
        if name == "mlp":
            slots.append(MLPSlot(mode, seed))
        elif name == "random_forest":
            slots.append(RandomForestSlot(mode, seed, refit_interval=rf_refit_interval))
        elif name in _SLOT_CLASSES:
            slots.append(_SLOT_CLASSES[name](mode, seed))
        elif name in CUSTOM_SLOT_REGISTRY:
            slots.append(CUSTOM_SLOT_REGISTRY[name](mode, seed))
        else:
            raise ValueError(f"unknown model class {name!r}")
    return slots
