"""Tests for the estimator contract (params, clone, validation)."""

import numpy as np
import pytest

from repro.ml.base import (
    BaseEstimator,
    NotFittedError,
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
    clone,
)
from repro.ml.linear import LinearRegression
from repro.ml.tree import DecisionTreeRegressor


class Toy(BaseEstimator):
    def __init__(self, a: int = 1, b: str = "x") -> None:
        self.a = a
        self.b = b

    def fit(self, X, y):
        self.fitted_ = True
        return self


class TestGetSetParams:
    def test_get_params_returns_constructor_args(self):
        assert Toy(a=3, b="y").get_params() == {"a": 3, "b": "y"}

    def test_set_params_roundtrip(self):
        t = Toy().set_params(a=9)
        assert t.a == 9 and t.b == "x"

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="Invalid parameter"):
            Toy().set_params(c=1)

    def test_param_names_sorted_and_stable(self):
        assert Toy._get_param_names() == ["a", "b"]


class TestClone:
    def test_clone_copies_params_not_state(self):
        t = Toy(a=5).fit(None, None)
        c = clone(t)
        assert c.a == 5
        assert not hasattr(c, "fitted_")

    def test_clone_with_overrides(self):
        c = clone(Toy(a=5), overrides={"a": 7})
        assert c.a == 7

    def test_clone_rejects_unknown_override(self):
        with pytest.raises(ValueError, match="Unknown override"):
            clone(Toy(), overrides={"zzz": 1})

    def test_clone_real_estimator(self):
        m = LinearRegression(fit_intercept=False)
        m.fit([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
        c = clone(m)
        assert c.fit_intercept is False
        with pytest.raises(NotFittedError):
            c.predict([[1.0]])


class TestCheckArray:
    def test_rejects_1d_when_2d_required(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_array([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_array([[1.0], [np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_array([[np.inf]])

    def test_rejects_empty_by_default(self):
        with pytest.raises(ValueError, match="empty"):
            check_array(np.empty((0, 2)))

    def test_allow_empty(self):
        out = check_array(np.empty((0, 2)), allow_empty=True)
        assert out.shape == (0, 2)

    def test_returns_contiguous_float64(self):
        a = np.asfortranarray(np.arange(6, dtype=np.int32).reshape(2, 3))
        out = check_array(a)
        assert out.dtype == np.float64
        assert out.flags["C_CONTIGUOUS"]


class TestCheckXy:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent lengths"):
            check_X_y([[1.0], [2.0]], [1.0])

    def test_flattens_column_y(self):
        X, y = check_X_y([[1.0], [2.0]], np.array([[1.0], [2.0]]))
        assert y.shape == (2,)

    def test_rejects_nan_target(self):
        with pytest.raises(ValueError, match="NaN"):
            check_X_y([[1.0]], [np.nan])


class TestCheckIsFitted:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            check_is_fitted(Toy())

    def test_fitted_passes(self):
        check_is_fitted(Toy().fit(None, None))

    def test_explicit_attributes(self):
        t = Toy().fit(None, None)
        check_is_fitted(t, ["fitted_"])
        with pytest.raises(NotFittedError):
            check_is_fitted(t, ["coef_"])

    def test_predict_before_fit_raises_for_every_regressor(self):
        from repro.ml import (
            KNeighborsRegressor,
            MLPRegressor,
            RandomForestRegressor,
        )

        for est in (
            LinearRegression(),
            KNeighborsRegressor(),
            DecisionTreeRegressor(),
            RandomForestRegressor(n_estimators=2),
            MLPRegressor(),
        ):
            with pytest.raises(NotFittedError):
                est.predict([[1.0]])


class TestCheckRandomState:
    def test_int_seed_reproducible(self):
        a = check_random_state(42).random(3)
        b = check_random_state(42).random(3)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert check_random_state(g) is g
