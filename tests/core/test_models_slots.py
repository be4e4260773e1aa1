"""Tests for individual model slots not covered by the pool tests."""

import numpy as np
import pytest

from repro.core.models import MLPSlot


def linear_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(10, 1000, size=(n, 1))
    return X, 2.0 * X[:, 0] + 100.0


class TestMLPSlotEdgeCases:
    def test_constant_targets_do_not_divide_by_zero(self):
        X, _ = linear_data(n=20)
        y = np.full(20, 512.0)
        s = MLPSlot("full", random_state=0)
        s.train_full(X, y, do_hpo=False)
        assert s.predict_one(np.array([[500.0]])) == pytest.approx(512.0, rel=0.2)

    def test_full_mode_caps_training_points(self):
        s = MLPSlot("full", random_state=0, max_train_points=32)
        X, y = linear_data(n=100)
        s.train_full(X, y, do_hpo=False)
        # Scaling state reflects only the last 32 points.
        assert s._x_mean == pytest.approx(float(X[-32:].mean()), rel=1e-9)

    def test_incremental_single_point_start(self):
        s = MLPSlot("incremental", random_state=0)
        x = np.array([[100.0]])
        s.update_incremental(x, 500.0, x, np.array([500.0]), 1)
        assert s.fitted
        assert np.isfinite(s.predict_one(x))
