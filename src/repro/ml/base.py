"""Estimator contract for the :mod:`repro.ml` substrate.

The contract intentionally mirrors scikit-learn's so that Sizey's model
pool (:mod:`repro.core.pool`) is generic over model classes and users can
plug in their own regressors ("easily extendable interface", paper §I).

An estimator is any class that

- declares all hyper-parameters as keyword arguments of ``__init__`` and
  stores them verbatim on ``self`` (no transformation in the constructor),
- learns state in ``fit`` and stores it in attributes with a trailing
  underscore (``coef_``, ``tree_``, ...),
- predicts with ``predict`` after being fitted.

This allows :func:`clone` to create unfitted copies by re-reading the
constructor parameters, and :func:`check_is_fitted` to detect fitted state
without any registry.
"""

from __future__ import annotations

import inspect
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = [
    "BaseEstimator",
    "RegressorMixin",
    "NotFittedError",
    "clone",
    "check_array",
    "check_X_y",
    "check_is_fitted",
    "check_random_state",
    "as_float_array",
]


class NotFittedError(RuntimeError):
    """Raised when ``predict`` (or similar) is called before ``fit``."""


def check_random_state(seed: int | None | np.random.Generator) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh nondeterministic generator), an integer seed,
    or an existing generator (returned unchanged so callers can share a
    stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_float_array(a: Any) -> np.ndarray:
    """Convert ``a`` to a contiguous float64 array without copying when possible."""
    arr = np.ascontiguousarray(a, dtype=np.float64)
    return arr


def check_array(
    X: Any,
    *,
    ensure_2d: bool = True,
    allow_empty: bool = False,
    name: str = "X",
) -> np.ndarray:
    """Validate an input array: numeric, finite, correctly shaped.

    Parameters
    ----------
    X:
        Array-like input.
    ensure_2d:
        If true, a 1-D input is rejected (callers must reshape explicitly;
        silent promotion hides bugs in feature plumbing).
    allow_empty:
        Whether zero-sample inputs are accepted.
    name:
        Name used in error messages.
    """
    arr = np.asarray(X, dtype=np.float64)
    if ensure_2d:
        if arr.ndim == 1:
            raise ValueError(
                f"{name} must be 2-dimensional; got a 1-D array of shape "
                f"{arr.shape}. Reshape with X.reshape(-1, 1) for a single feature."
            )
        if arr.ndim != 2:
            raise ValueError(f"{name} must be 2-dimensional; got ndim={arr.ndim}")
    if not allow_empty and arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_X_y(X: Any, y: Any) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix / target vector pair of matching length."""
    X = check_array(X)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        y = y.reshape(-1)
    if not np.isfinite(y).all():
        raise ValueError("y contains NaN or infinite values")
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X and y have inconsistent lengths: {X.shape[0]} != {y.shape[0]}"
        )
    return X, np.ascontiguousarray(y)


def check_is_fitted(estimator: Any, attributes: Iterable[str] | None = None) -> None:
    """Raise :class:`NotFittedError` unless ``estimator`` looks fitted.

    Fitted state is detected via trailing-underscore attributes, or the
    explicit ``attributes`` list when provided.
    """
    if attributes is not None:
        missing = [a for a in attributes if not hasattr(estimator, a)]
        if missing:
            raise NotFittedError(
                f"{type(estimator).__name__} is not fitted (missing {missing}); "
                "call fit() first"
            )
        return
    fitted = [
        k
        for k in vars(estimator)
        if k.endswith("_") and not k.startswith("_") and not k.endswith("__")
    ]
    if not fitted:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() first"
        )


class BaseEstimator:
    """Base class providing parameter introspection and cloning."""

    @classmethod
    def _get_param_names(cls) -> list[str]:
        init = cls.__init__
        if init is object.__init__:
            return []
        sig = inspect.signature(init)
        names = []
        for name, param in sig.parameters.items():
            if name == "self":
                continue
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                raise TypeError(
                    f"{cls.__name__}.__init__ must declare explicit keyword "
                    "parameters (no *args/**kwargs) to support get_params"
                )
            names.append(name)
        return sorted(names)

    def get_params(self) -> dict[str, Any]:
        """Return hyper-parameters as a dict (constructor arguments only)."""
        return {name: getattr(self, name) for name in self._get_param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set hyper-parameters; unknown names raise ``ValueError``."""
        valid = set(self._get_param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"Invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator, *, overrides: Mapping[str, Any] | None = None):
    """Return an unfitted copy of ``estimator`` with the same hyper-parameters.

    ``overrides`` optionally replaces individual parameters in the copy,
    which is what grid search uses to instantiate candidates.
    """
    params = estimator.get_params()
    if overrides:
        unknown = set(overrides) - set(params)
        if unknown:
            raise ValueError(f"Unknown override parameters: {sorted(unknown)}")
        params.update(overrides)
    return type(estimator)(**params)


class RegressorMixin:
    """Mixin adding an R^2 ``score`` method to regressors."""

    def score(self, X: Any, y: Any) -> float:
        """Coefficient of determination R^2 of ``predict(X)`` against ``y``."""
        from repro.ml.metrics import r2_score

        X, y = check_X_y(X, y)
        return r2_score(y, self.predict(X))
