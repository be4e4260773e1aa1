"""Multi-layer perceptron regressor.

The model class Sizey uses "to accurately model more complex, nonlinear
relationships, such as memory usage that grows as the square of the
amount of input data" (paper §II-B).  In the paper's Fig. 11 the MLP is
the most frequently selected class (42.7 % of predictions).

Implementation notes
--------------------
- Dense feed-forward network, squared loss, Adam optimiser.
- ``fit`` trains from a fresh initialisation with mini-batches, early
  stopping on training-loss plateau.
- ``partial_fit`` performs a small number of Adam steps on the given
  batch from the *current* weights — this is the "lightweight ... online
  learning step" of the paper's Phase 3.
- All tensor work is vectorised float64 NumPy.  Every weight and bias
  lives in one flat parameter buffer (``coefs_`` and ``intercepts_``
  are per-layer views into it), and gradients land in views of one flat
  gradient buffer, so an Adam step is a handful of ufunc calls over one
  array however many layers the network has.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    RegressorMixin,
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)

__all__ = ["MLPRegressor"]

_ACTIVATIONS = ("relu", "tanh", "identity", "logistic")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "logistic":
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    return z


def _act_grad(name: str, a: np.ndarray) -> np.ndarray:
    """Derivative expressed in terms of the activation output ``a``."""
    if name == "relu":
        # A 0/1 mask; multiplying by it equals multiplying by 0.0/1.0.
        return a > 0.0
    if name == "tanh":
        return 1.0 - a * a
    if name == "logistic":
        return a * (1.0 - a)
    return np.ones_like(a)


class MLPRegressor(BaseEstimator, RegressorMixin):
    """Feed-forward neural network for regression, trained with Adam.

    Parameters
    ----------
    hidden_layer_sizes:
        Width of each hidden layer, e.g. ``(32, 16)``.
    activation:
        ``"relu"`` (default), ``"tanh"``, ``"logistic"`` or ``"identity"``.
    alpha:
        L2 penalty on the weights.
    learning_rate_init:
        Adam step size.
    batch_size:
        Mini-batch size (clipped to the dataset size).
    max_iter:
        Maximum epochs for ``fit``.
    tol, n_iter_no_change:
        Early stopping: stop when the epoch loss fails to improve by
        ``tol`` for ``n_iter_no_change`` consecutive epochs.
    partial_fit_steps:
        Number of Adam steps one ``partial_fit`` call performs.
    random_state:
        Seed for weight init and batch shuffling.
    """

    def __init__(
        self,
        hidden_layer_sizes: tuple[int, ...] = (32,),
        activation: str = "relu",
        alpha: float = 1e-4,
        learning_rate_init: float = 1e-3,
        batch_size: int = 32,
        max_iter: int = 300,
        tol: float = 1e-5,
        n_iter_no_change: int = 10,
        partial_fit_steps: int = 20,
        random_state: int | None = 0,
    ) -> None:
        self.hidden_layer_sizes = hidden_layer_sizes
        self.activation = activation
        self.alpha = alpha
        self.learning_rate_init = learning_rate_init
        self.batch_size = batch_size
        self.max_iter = max_iter
        self.tol = tol
        self.n_iter_no_change = n_iter_no_change
        self.partial_fit_steps = partial_fit_steps
        self.random_state = random_state

    # ------------------------------------------------------------------
    # initialisation
    # ------------------------------------------------------------------
    def _init_net(self, n_features: int, rng: np.random.Generator) -> None:
        if self.activation not in _ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {_ACTIVATIONS}, got {self.activation!r}"
            )
        sizes = [n_features, *self.hidden_layer_sizes, 1]
        if any(s < 1 for s in sizes):
            raise ValueError(f"invalid layer sizes {sizes}")
        self._shapes = list(zip(sizes[:-1], sizes[1:]))
        self._n_weights = sum(fan_in * fan_out for fan_in, fan_out in self._shapes)
        n_params = self._n_weights + sum(sizes[1:])
        self._theta = np.zeros(n_params)
        self._grad = np.zeros(n_params)
        self._bind_views()
        for W, (fan_in, fan_out) in zip(self.coefs_, self._shapes):
            # Glorot-uniform initialisation.
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            W[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        # Adam state.
        self._m = np.zeros(n_params)
        self._v = np.zeros(n_params)
        self._adam_t = 0
        self.n_features_in_ = n_features

    def _bind_views(self) -> None:
        """Point the per-layer weights and gradients into the flat buffers.

        Layout: every layer's weight matrix, then every layer's bias.
        """
        self.coefs_: list[np.ndarray] = []
        self.intercepts_: list[np.ndarray] = []
        self._grad_w: list[np.ndarray] = []
        self._grad_b: list[np.ndarray] = []
        start = 0
        for fan_in, fan_out in self._shapes:
            stop = start + fan_in * fan_out
            self.coefs_.append(self._theta[start:stop].reshape(fan_in, fan_out))
            self._grad_w.append(self._grad[start:stop].reshape(fan_in, fan_out))
            start = stop
        for _, fan_out in self._shapes:
            stop = start + fan_out
            self.intercepts_.append(self._theta[start:stop])
            self._grad_b.append(self._grad[start:stop])
            start = stop

    def __getstate__(self) -> dict:
        # Views pickle as independent copies, so drop them and rebind on
        # load; otherwise a restored model would train a buffer its
        # predictions never read.
        state = self.__dict__.copy()
        for name in ("coefs_", "intercepts_", "_grad_w", "_grad_b"):
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "_theta" in state:
            self._bind_views()

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def _forward(self, X: np.ndarray) -> list[np.ndarray]:
        """Return activations per layer; last entry is the linear output."""
        acts = [X]
        a = X
        last = len(self.coefs_) - 1
        for li, (W, b) in enumerate(zip(self.coefs_, self.intercepts_)):
            z = a @ W + b
            a = z if li == last else _act(self.activation, z)
            acts.append(a)
        return acts

    def _backward(self, acts: list[np.ndarray], y_col: np.ndarray) -> None:
        """Write the loss gradient for targets ``y_col`` (shape ``(n, 1)``)
        into the flat ``_grad`` buffer."""
        n = y_col.shape[0]
        # d(MSE)/d(output) with the 1/2 absorbed into the 2/n factor.
        delta = (acts[-1] - y_col) * (2.0 / n)
        for li in range(len(self.coefs_) - 1, -1, -1):
            np.matmul(acts[li].T, delta, out=self._grad_w[li])
            np.add.reduce(delta, axis=0, out=self._grad_b[li])
            if li > 0:
                delta = (delta @ self.coefs_[li].T) * _act_grad(
                    self.activation, acts[li]
                )
        # L2 penalty on the weights (the leading block of the buffer).
        k = self._n_weights
        self._grad[:k] += self.alpha * self._theta[:k]

    def _adam_step(self) -> None:
        """One Adam update of the flat parameter buffer from ``_grad``."""
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self._adam_t += 1
        t = self._adam_t
        g = self._grad
        lr = self.learning_rate_init
        self._m = beta1 * self._m + (1 - beta1) * g
        self._v = beta2 * self._v + (1 - beta2) * (g * g)
        m_hat = self._m / (1 - beta1**t)
        v_hat = self._v / (1 - beta2**t)
        self._theta -= lr * m_hat / (np.sqrt(v_hat) + eps)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def fit(self, X, y) -> "MLPRegressor":
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self._init_net(X.shape[1], rng)
        n = X.shape[0]
        batch = max(1, min(self.batch_size, n))
        best_loss = np.inf
        stale = 0
        self.loss_curve_: list[float] = []
        for _ in range(self.max_iter):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                self._backward(self._forward(X[idx]), y[idx, None])
                self._adam_step()
            pred = self._forward(X)[-1].reshape(-1)
            loss = float(np.mean((pred - y) ** 2))
            self.loss_curve_.append(loss)
            if loss < best_loss - self.tol:
                best_loss = loss
                stale = 0
            else:
                stale += 1
                if stale >= self.n_iter_no_change:
                    break
        self.n_iter_ = len(self.loss_curve_)
        return self

    def partial_fit(self, X, y) -> "MLPRegressor":
        """Warm-start update: a few Adam steps on the given batch."""
        X, y = check_X_y(X, y)
        if not hasattr(self, "coefs_"):
            rng = check_random_state(self.random_state)
            self._init_net(X.shape[1], rng)
        elif X.shape[1] != self.n_features_in_:
            raise ValueError("feature dimension changed between updates")
        y_col = y[:, None]
        for _ in range(max(1, self.partial_fit_steps)):
            self._backward(self._forward(X), y_col)
            self._adam_step()
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ["coefs_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        return self._forward(X)[-1].reshape(-1)
