"""Tests for the per-(task type, machine) model pool."""

import numpy as np
import pytest

from repro.core.models import (
    KNNSlot,
    LinearSlot,
    MLPSlot,
    ModelSlot,
    RandomForestSlot,
    build_slots,
    register_slot,
    CUSTOM_SLOT_REGISTRY,
)
from repro.core.pool import ModelPool


def feed_linear(pool, n=30, slope=2.0, intercept=100.0, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = rng.uniform(10, 1000)
        pool.update(np.array([[x]]), slope * x + intercept)


class TestSlots:
    def test_build_slots_all_classes(self):
        slots = build_slots(
            ("linear", "knn", "mlp", "random_forest"), "full", random_state=0
        )
        assert [s.class_name for s in slots] == [
            "linear",
            "knn",
            "mlp",
            "random_forest",
        ]

    def test_build_slots_unknown(self):
        with pytest.raises(ValueError, match="unknown model class"):
            build_slots(("warp_drive",), "full", 0)

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            LinearSlot("sideways")

    def test_linear_slot_full(self):
        s = LinearSlot("full")
        X = np.arange(1, 11, dtype=float).reshape(-1, 1)
        s.train_full(X, 3.0 * X[:, 0], do_hpo=True)
        assert s.predict_one(np.array([[5.0]])) == pytest.approx(15.0)

    def test_linear_slot_incremental_matches_batch(self):
        s = LinearSlot("incremental")
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(1, 100)
            s.update_incremental(
                np.array([[x]]), 2.0 * x + 10.0, None, None, 0
            )
        assert s.predict_one(np.array([[50.0]])) == pytest.approx(110.0, rel=0.01)

    def test_knn_slot_hpo_caches_params(self):
        s = KNNSlot("full")
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 10, size=(30, 1))
        y = X[:, 0] ** 2
        s.train_full(X, y, do_hpo=True)
        cached = dict(s._best_params)
        s.train_full(X, y, do_hpo=False)
        assert s._best_params == cached

    def test_mlp_slot_scaling_roundtrip(self):
        s = MLPSlot("full", random_state=0)
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 5000, size=(60, 1))
        y = 3.0 * X[:, 0] + 1e4
        s.train_full(X, y, do_hpo=False)
        pred = s.predict_one(np.array([[2500.0]]))
        assert pred == pytest.approx(3.0 * 2500.0 + 1e4, rel=0.25)

    def test_mlp_incremental_welford_scaling(self):
        s = MLPSlot("incremental", random_state=0)
        rng = np.random.default_rng(4)
        xs, ys = [], []
        for i in range(80):
            x = rng.uniform(0, 1000)
            y = 2.0 * x + 500.0
            xs.append([x])
            ys.append(y)
            w = np.array(xs[-32:]), np.array(ys[-32:])
            s.update_incremental(np.array([[x]]), y, w[0], w[1], i + 1)
        pred = s.predict_one(np.array([[500.0]]))
        assert pred == pytest.approx(1500.0, rel=0.3)

    def test_rf_slot_refit_cadence(self):
        s = RandomForestSlot("incremental", refit_interval=4)
        X = np.arange(1, 9, dtype=float).reshape(-1, 1)
        y = X[:, 0] * 10
        s.update_incremental(X[:1], y[0], X[:1], y[:1], 1)
        model_after_first = s._model
        # n_seen=2,3 -> no refit; n_seen=4 -> refit
        s.update_incremental(X[1:2], y[1], X[:2], y[:2], 2)
        assert s._model is model_after_first
        s.update_incremental(X[3:4], y[3], X[:4], y[:4], 4)
        assert s._model is not model_after_first

    def test_predictions_clamped_positive(self):
        s = LinearSlot("full")
        X = np.array([[1.0], [2.0]])
        y = np.array([100.0, 1.0])  # steep negative slope
        s.train_full(X, y, do_hpo=False)
        assert s.predict_one(np.array([[100.0]])) >= 1.0

    def test_custom_slot_registration(self):
        class ConstantSlot(ModelSlot):
            class_name = "constant"

            def train_full(self, X, y, do_hpo):
                self._value = float(np.mean(y))
                self.fitted = True

            def update_incremental(self, x_new, y_new, Xw, yw, n):
                self._value = float(np.mean(yw))
                self.fitted = True

            def predict(self, X):
                return np.full(np.asarray(X).shape[0], self._value)

        try:
            register_slot("constant", ConstantSlot)
            slots = build_slots(("linear", "constant"), "full", 0)
            assert slots[1].class_name == "constant"
            with pytest.raises(ValueError, match="built-in"):
                register_slot("linear", ConstantSlot)
        finally:
            CUSTOM_SLOT_REGISTRY.pop("constant", None)

    def test_register_rejects_non_slot(self):
        with pytest.raises(TypeError):
            register_slot("zzz", dict)


class TestModelPool:
    def test_not_ready_before_update(self):
        pool = ModelPool(("linear",))
        assert not pool.is_ready
        with pytest.raises(RuntimeError, match="no fitted models"):
            pool.predict(np.array([[1.0]]))

    def test_ready_after_one_update(self):
        pool = ModelPool(("linear", "knn"))
        pool.update(np.array([[10.0]]), 100.0)
        assert pool.is_ready
        pp = pool.predict(np.array([[10.0]]))
        assert np.isfinite(pp.estimate)

    def test_prequential_accuracy_is_out_of_sample(self):
        # The accuracy update happens BEFORE training on the point: a
        # memorising model (KNN k=1) must not get credit for points it
        # has already seen.
        pool = ModelPool(("knn",), training_mode="full")
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 100)
            pool.update(np.array([[x]]), rng.uniform(100, 200))
        # Unpredictable targets: prequential accuracy must be < 1.
        assert pool.accuracy_scores()[0] < 0.99

    def test_accuracy_tracks_good_model(self):
        pool = ModelPool(("linear", "knn"), training_mode="full", alpha=0.0)
        feed_linear(pool, n=40)
        acc = pool.accuracy_scores()
        # Linear data: the linear model should be at least as accurate.
        assert acc[0] >= acc[1] - 0.02

    def test_gated_estimate_close_on_linear_task(self):
        pool = ModelPool(
            ("linear", "knn", "random_forest"),
            training_mode="full",
            gating="argmax",
        )
        feed_linear(pool, n=40)
        pp = pool.predict(np.array([[500.0]]))
        assert pp.estimate == pytest.approx(1100.0, rel=0.05)
        assert pp.selected_model in ("linear", "knn", "random_forest")

    def test_interpolation_weights_sum_to_one(self):
        pool = ModelPool(("linear", "knn"), gating="interpolation", beta=5.0)
        feed_linear(pool, n=10)
        pp = pool.predict(np.array([[100.0]]))
        assert pp.weights.sum() == pytest.approx(1.0)

    def test_incremental_mode_runs(self):
        pool = ModelPool(
            ("linear", "knn", "mlp", "random_forest"),
            training_mode="incremental",
        )
        feed_linear(pool, n=25)
        pp = pool.predict(np.array([[500.0]]))
        assert pp.estimate > 0

    def test_retrospective_accuracy_mode(self):
        pool = ModelPool(
            ("linear",), training_mode="full", accuracy_mode="retrospective"
        )
        feed_linear(pool, n=10)
        # Retrospective on noiseless linear data: near-perfect accuracy.
        assert pool.accuracy_scores()[0] > 0.99

    def test_update_returns_duration(self):
        pool = ModelPool(("linear",))
        dt = pool.update(np.array([[1.0]]), 10.0)
        assert dt >= 0.0
        assert pool.last_update_seconds == dt

    def test_hpo_interval_respected(self):
        pool = ModelPool(("knn",), training_mode="full", hpo_interval=1000)
        feed_linear(pool, n=12)
        # Only the first fit ran HPO; params stayed cached afterwards.
        assert pool.n_observations == 12

    def test_n_observations(self):
        pool = ModelPool(("linear",))
        feed_linear(pool, n=7)
        assert pool.n_observations == 7

    def test_multi_feature_history(self):
        # The history buffer sizes itself from the first appended vector
        # — d=2 submissions must not crash on append (regression: the
        # buffer was hardcoded to one feature column).
        pool = ModelPool(("linear",), training_mode="full")
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b = rng.uniform(10, 1000, size=2)
            pool.update(np.array([[a, b]]), 2.0 * a + 0.5 * b + 50.0)
        assert pool.n_observations == 25
        pp = pool.predict(np.array([[500.0, 200.0]]))
        assert pp.estimate == pytest.approx(1150.0, rel=0.05)

    def test_multi_feature_incremental_mode(self):
        pool = ModelPool(("linear", "knn"), training_mode="incremental")
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b = rng.uniform(10, 100, size=2)
            pool.update(np.array([[a, b]]), a + b)
        assert pool.is_ready
        assert np.isfinite(pool.predict(np.array([[50.0, 50.0]])).estimate)

    def test_history_rejects_dimension_change(self):
        from repro.core.pool import _History

        hist = _History()
        hist.append(np.array([1.0, 2.0]), 10.0)
        with pytest.raises(ValueError, match="feature dimension"):
            hist.append(np.array([1.0]), 10.0)

    def test_history_growth_preserves_multi_feature_rows(self):
        from repro.core.pool import _History

        hist = _History()
        for i in range(100):  # forces several capacity doublings
            hist.append(np.array([float(i), float(2 * i)]), float(i))
        assert hist.X.shape == (100, 2)
        assert hist.X[97].tolist() == [97.0, 194.0]
        assert hist.y[97] == 97.0


class TestForestRefitWindow:
    """``rf_window`` only narrows the window the pool already cut to
    ``mlp_window`` points: the effective refit window is their minimum."""

    @pytest.mark.parametrize(
        "mlp_window, rf_window, expected", [(8, 512, 8), (8, 5, 5), (64, 512, 12)]
    )
    def test_refit_uses_min_of_both_windows(self, mlp_window, rf_window, expected):
        pool = ModelPool(
            ("random_forest",),
            training_mode="incremental",
            mlp_window=mlp_window,
            rf_window=rf_window,
            rf_refit_interval=4,
        )
        feed_linear(pool, n=12)  # the 12th update is a refit
        forest = pool.slots[0]._model
        # Every bootstrap sample is as large as the refit window.
        assert {int(t.n_node_samples_[0]) for t in forest.estimators_} == {expected}
