"""Per-row pool scoring and gating: the oracle for the columnar query.

:meth:`repro.core.pool.ModelPool.predict_batch` scores and gates all
rows of a query as ``(n_rows, n_models)`` arrays.  This module keeps the
per-row code it replaced — efficiency (Eq. 2), RAQ (Eq. 3) and gating
(Eq. 4) of one row of model predictions, each a 1-D array over the
models — so ``tests/core/test_pool_reference.py`` can check that every
row of a query equals it to the last bit.  It is deliberately naive:
one row at a time, with 1-D reductions only.
"""

from __future__ import annotations

import numpy as np


def efficiency_scores(preds: np.ndarray) -> np.ndarray:
    return 1.0 - preds / preds.max()


def raq_scores(acc: np.ndarray, eff: np.ndarray, alpha: float) -> np.ndarray:
    return (1.0 - alpha) * acc + alpha * eff


def argmax_gate(preds: np.ndarray, raq: np.ndarray):
    idx = int(np.argmax(raq))
    weights = np.zeros_like(preds)
    weights[idx] = 1.0
    return weights, float(preds[idx]), idx


def interpolation_gate(preds: np.ndarray, raq: np.ndarray, beta: float):
    z = beta * raq
    z -= z.max()
    w = np.exp(z)
    w /= w.sum()
    return w, float(w @ preds), int(np.argmax(raq))


def gate_row(
    preds: np.ndarray, acc: np.ndarray, alpha: float, gating: str, beta: float
):
    """``(efficiency, raq, weights, estimate, selected index)`` of one row."""
    eff = efficiency_scores(preds)
    raq = raq_scores(acc, eff, alpha)
    if gating == "argmax":
        weights, estimate, idx = argmax_gate(preds, raq)
    else:
        weights, estimate, idx = interpolation_gate(preds, raq, beta)
    return eff, raq, weights, estimate, idx
