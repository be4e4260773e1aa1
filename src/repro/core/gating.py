"""Gating: combine per-model predictions into one estimate (paper §II-D).

Two strategies, mirroring a mixture-of-experts gating network:

- **Argmax** — trust the model with the highest RAQ score exclusively.
- **Interpolation** — a softmax consensus over RAQ scores (Eq. 4) with
  sharpness ``beta``; as ``beta -> inf`` it converges to Argmax.

:func:`gate` gates a whole pool query in one pass: rows are tasks,
columns are models.  Every reduction runs along a C-contiguous row, so
each row's result equals the same reduction over that row alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gate"]


def gate(
    predictions: np.ndarray,
    raq: np.ndarray,
    strategy: str,
    beta: float = 10.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate every row: ``(weights, estimates, selected)``.

    ``predictions`` and ``raq`` are ``(n_rows, n_models)``.  ``weights``
    has their shape, ``estimates`` holds one gated estimate per row and
    ``selected`` each row's argmax-RAQ model index — the model class
    "selected" for diagnostics like Fig. 11, even when Interpolation
    lets every model contribute.  Ties resolve to the lowest index.

    Argmax weights the selected model 1 and every other 0.
    Interpolation is Eq. 4, ``w_i = exp(beta RAQ_i) / sum_j exp(beta
    RAQ_j)``, with ``beta >= 1``.
    """
    if strategy not in ("argmax", "interpolation"):
        raise ValueError(f"unknown gating strategy {strategy!r}")
    if strategy == "interpolation" and beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {beta}")
    preds = np.ascontiguousarray(predictions, dtype=np.float64)
    scores = np.ascontiguousarray(raq, dtype=np.float64)
    if preds.ndim != 2 or preds.size == 0:
        raise ValueError(
            "predictions must be a non-empty (n_rows, n_models) array"
        )
    if preds.shape != scores.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {scores.shape}")
    selected = scores.argmax(axis=1)
    if strategy == "argmax":
        rows = np.arange(preds.shape[0])
        weights = np.zeros_like(preds)
        weights[rows, selected] = 1.0
        return weights, preds[rows, selected], selected
    z = beta * scores
    z -= z.max(axis=1, keepdims=True)  # stabilise exp
    weights = np.exp(z, out=z)
    weights /= weights.sum(axis=1, keepdims=True)
    # One (1, n) @ (n, 1) product per row: the dot of each row's own
    # 1-D ``weights @ preds``.
    estimates = np.matmul(weights[:, None, :], preds[:, :, None])[:, 0, 0]
    return weights, estimates, selected
