"""Tests for the MLP regressor."""

import numpy as np
import pytest

from repro.ml.mlp import MLPRegressor


def make_quadratic(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 1))
    y = 2.0 * x[:, 0] ** 2 + 0.5
    return x, y


class TestMLPRegressor:
    def test_learns_linear_map(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(150, 2))
        y = 0.7 * X[:, 0] - 0.3 * X[:, 1]
        m = MLPRegressor(hidden_layer_sizes=(16,), max_iter=400, random_state=0)
        m.fit(X, y)
        assert m.score(X, y) > 0.98

    def test_learns_quadratic_the_papers_motivating_case(self):
        # §II-B: "memory usage that grows as the square of the amount of
        # input data" is why the MLP is in the pool.
        X, y = make_quadratic()
        m = MLPRegressor(hidden_layer_sizes=(32, 16), max_iter=600, random_state=1)
        m.fit(X, y)
        assert m.score(X, y) > 0.95

    def test_loss_curve_decreases_overall(self):
        X, y = make_quadratic(n=100)
        m = MLPRegressor(hidden_layer_sizes=(8,), max_iter=100, random_state=2).fit(X, y)
        assert m.loss_curve_[-1] < m.loss_curve_[0]

    def test_early_stopping_respects_max_iter(self):
        X, y = make_quadratic(n=50)
        m = MLPRegressor(max_iter=30, random_state=0).fit(X, y)
        assert m.n_iter_ <= 30

    def test_partial_fit_improves_on_new_data(self):
        X, y = make_quadratic(n=100)
        m = MLPRegressor(hidden_layer_sizes=(16,), max_iter=150, random_state=0).fit(
            X[:50], y[:50]
        )
        before = float(np.mean((m.predict(X[50:]) - y[50:]) ** 2))
        for _ in range(10):
            m.partial_fit(X[50:], y[50:])
        after = float(np.mean((m.predict(X[50:]) - y[50:]) ** 2))
        assert after <= before

    def test_partial_fit_initialises_when_unfitted(self):
        m = MLPRegressor(hidden_layer_sizes=(4,), random_state=0)
        m.partial_fit([[0.5]], [1.0])
        assert np.isfinite(m.predict([[0.5]]))[0]

    def test_partial_fit_dimension_guard(self):
        m = MLPRegressor(random_state=0)
        m.partial_fit([[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError, match="dimension"):
            m.partial_fit([[1.0]], [1.0])

    def test_deterministic_given_seed(self):
        X, y = make_quadratic(n=80)
        a = MLPRegressor(max_iter=50, random_state=7).fit(X, y).predict(X)
        b = MLPRegressor(max_iter=50, random_state=7).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_activations_all_work(self):
        X, y = make_quadratic(n=60)
        for act in ("relu", "tanh", "logistic", "identity"):
            m = MLPRegressor(
                hidden_layer_sizes=(8,), activation=act, max_iter=50, random_state=0
            ).fit(X, y)
            assert np.isfinite(m.predict(X)).all()

    def test_invalid_activation(self):
        with pytest.raises(ValueError, match="activation"):
            MLPRegressor(activation="swish").fit([[1.0], [2.0]], [1.0, 2.0])

    def test_deep_network_shapes(self):
        X, y = make_quadratic(n=60)
        m = MLPRegressor(hidden_layer_sizes=(8, 4, 2), max_iter=20, random_state=0)
        m.fit(X, y)
        shapes = [w.shape for w in m.coefs_]
        assert shapes == [(1, 8), (8, 4), (4, 2), (2, 1)]

    def test_scaled_inputs_improve_fit_on_wide_range(self):
        # MLPs need scaling for wide-range inputs (e.g. bytes); verify
        # that standardized inputs fit.
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1e9, size=(150, 1))
        y = X[:, 0] / 1e9 * 5.0
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        m = MLPRegressor(hidden_layer_sizes=(16,), max_iter=300, random_state=0)
        m.fit(Xs, y)
        assert m.score(Xs, y) > 0.95


def reference_partial_fit(m, X, y, steps):
    """The per-layer (W, b) lists and Adam loop the flat buffer replaced.

    Trains deep copies of ``m``'s weights and Adam state and returns the
    resulting (coefs, intercepts)."""
    from repro.ml.mlp import _act, _act_grad

    coefs = [w.copy() for w in m.coefs_]
    intercepts = [b.copy() for b in m.intercepts_]
    sizes = [w.size for w in coefs] + [b.size for b in intercepts]
    cuts = np.cumsum(sizes)[:-1]
    adam_m = [a.reshape(p.shape) for a, p in zip(np.split(m._m, cuts), coefs + intercepts)]
    adam_v = [a.reshape(p.shape) for a, p in zip(np.split(m._v, cuts), coefs + intercepts)]
    t = m._adam_t
    for _ in range(steps):
        acts = [X]
        for li, (W, b) in enumerate(zip(coefs, intercepts)):
            z = acts[-1] @ W + b
            acts.append(z if li == len(coefs) - 1 else _act(m.activation, z))
        n = y.shape[0]
        delta = (acts[-1].reshape(-1) - y).reshape(-1, 1) * (2.0 / n)
        grads_w, grads_b = [None] * len(coefs), [None] * len(coefs)
        for li in range(len(coefs) - 1, -1, -1):
            grads_w[li] = acts[li].T @ delta + m.alpha * coefs[li]
            grads_b[li] = delta.sum(axis=0)
            if li > 0:
                delta = (delta @ coefs[li].T) * np.asarray(
                    _act_grad(m.activation, acts[li]), dtype=np.float64
                )
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        t += 1
        for i, (p, g) in enumerate(zip(coefs + intercepts, grads_w + grads_b)):
            adam_m[i] = beta1 * adam_m[i] + (1 - beta1) * g
            adam_v[i] = beta2 * adam_v[i] + (1 - beta2) * (g * g)
            m_hat = adam_m[i] / (1 - beta1**t)
            v_hat = adam_v[i] / (1 - beta2**t)
            p -= m.learning_rate_init * m_hat / (np.sqrt(v_hat) + eps)
    return coefs, intercepts


class TestFlatParameterBuffer:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "logistic", "identity"])
    @pytest.mark.parametrize("hidden", [(16,), (8, 4)])
    @pytest.mark.parametrize("n", [20, 300])  # 300 > numpy's pairwise-sum block
    def test_adam_matches_per_layer_reference_bit_for_bit(self, activation, hidden, n):
        X, y = make_quadratic(n=n + 28, seed=2)
        m = MLPRegressor(
            hidden_layer_sizes=hidden, activation=activation, alpha=1e-3,
            partial_fit_steps=5, random_state=3,
        ).partial_fit(X, y)
        coefs, intercepts = reference_partial_fit(m, X[:n], y[:n], steps=5)
        m.partial_fit(X[:n], y[:n])
        for got, want in zip(m.coefs_ + m.intercepts_, coefs + intercepts):
            assert np.array_equal(got, want)

    def test_layers_are_views_of_one_buffer(self):
        X, y = make_quadratic(n=30)
        m = MLPRegressor(hidden_layer_sizes=(8, 4), max_iter=5).fit(X, y)
        for p in m.coefs_ + m.intercepts_:
            assert np.shares_memory(p, m._theta)
        assert m._theta.size == sum(p.size for p in m.coefs_ + m.intercepts_)

    def test_pickled_model_trains_what_it_predicts(self):
        import pickle

        X, y = make_quadratic(n=64, seed=4)
        m = MLPRegressor(hidden_layer_sizes=(16,), random_state=0).partial_fit(X, y)
        copy = pickle.loads(pickle.dumps(m))
        for p in copy.coefs_ + copy.intercepts_:
            assert np.shares_memory(p, copy._theta)
        before = copy.predict(X[:5])
        for model in (m, copy):
            model.partial_fit(X[::-1], y[::-1])
        assert not np.array_equal(copy.predict(X[:5]), before)
        assert np.array_equal(copy.predict(X), m.predict(X))
