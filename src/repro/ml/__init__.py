"""A from-scratch NumPy machine-learning substrate.

scikit-learn is unavailable in this environment, so this package provides
the estimator families the Sizey paper relies on, implemented directly on
NumPy/SciPy with a scikit-learn-compatible estimator contract:

- :mod:`repro.ml.linear` -- ordinary least squares and pinball-loss
  quantile regression (the Witt-Wastage baseline needs quantile lines).
- :mod:`repro.ml.sgd` -- exact online least squares
  (:class:`~repro.ml.sgd.RecursiveLeastSquares`, ``partial_fit``), the
  linear model's update in Sizey's incremental mode.
- :mod:`repro.ml.neighbors` -- k-nearest-neighbours regression.
- :mod:`repro.ml.tree` / :mod:`repro.ml.forest` -- CART regression trees
  and bagged random forests.
- :mod:`repro.ml.mlp` -- a multi-layer perceptron regressor trained with
  Adam, supporting warm-started incremental updates.
- :mod:`repro.ml.metrics` -- regression metrics (MAE, MSE, MAPE, R2, ...).
- :mod:`repro.ml.model_selection` -- K-fold cross-validation and grid
  search used for Sizey's hyper-parameter optimisation.

All estimators follow the familiar ``fit(X, y)`` / ``predict(X)`` protocol,
support ``get_params`` / ``set_params`` / :func:`repro.ml.base.clone`, and
take explicit ``random_state`` seeds (no global RNG state).
"""

from repro.ml.base import BaseEstimator, NotFittedError, RegressorMixin, clone
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression, QuantileRegressor
from repro.ml.mlp import MLPRegressor
from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "RegressorMixin",
    "NotFittedError",
    "clone",
    "LinearRegression",
    "QuantileRegressor",
    "KNeighborsRegressor",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "MLPRegressor",
]
