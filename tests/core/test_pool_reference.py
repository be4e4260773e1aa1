"""The columnar pool query against the per-row oracle, bit for bit.

:class:`~repro.core.pool.PoolQuery` scores and gates all rows of a query
as ``(n_rows, n_models)`` arrays; ``pool_reference.gate_row`` is the
per-row code it replaced.  Every field of every row must be equal
(``np.array_equal``, ``==`` on the floats) across random shapes, the
alphas and betas the configurations use, both gatings and RAQ ties.
The offset and accuracy window statistics are checked the same way
against the numpy functions they stand in for.
"""

import math

import numpy as np
import pytest
from pool_reference import gate_row

from repro.core._window import window_mean, window_median, window_std
from repro.core.pool import ModelPool, PoolQuery

NAMES = tuple(f"m{i}" for i in range(9))


def random_query_inputs(rng):
    """(accuracy, predictions) with tied scores and tied predictions."""
    n_rows = int(rng.integers(1, 18))
    n_models = int(rng.integers(1, 10))
    # Few distinct accuracy values and a coarse prediction grid, so
    # equal RAQ scores (argmax ties) are common.
    acc = rng.choice([0.0, 0.25, 0.5, rng.uniform(0.0, 1.0)], size=n_models)
    preds = rng.choice(
        [1.0, 64.0, 512.0, rng.uniform(1.0, 8192.0)], size=(n_rows, n_models)
    )
    noisy = rng.random((n_rows, n_models)) < 0.5
    preds[noisy] = rng.uniform(1.0, 8192.0, size=int(noisy.sum()))
    return acc, preds


@pytest.mark.parametrize("gating", ["argmax", "interpolation"])
@pytest.mark.parametrize("beta", [1.0, 10.0, 25.0, 500.0])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
def test_query_equals_per_row_reference(alpha, beta, gating):
    rng = np.random.default_rng([int(alpha * 4), int(beta), len(gating)])
    ties = 0
    for _ in range(60):
        acc, preds = random_query_inputs(rng)
        n_rows, n_models = preds.shape
        query = PoolQuery.gated(
            NAMES[:n_models], acc.copy(), preds.copy(), alpha, gating, beta
        )
        assert len(query) == n_rows
        for j in range(n_rows):
            eff, raq, weights, estimate, idx = gate_row(
                preds[j].copy(), acc, alpha, gating, beta
            )
            assert np.array_equal(query.efficiency[j], eff)
            assert np.array_equal(query.raq[j], raq)
            assert np.array_equal(query.weights[j], weights)
            assert query.estimates[j] == estimate
            assert query.selected[j] == idx
            ties += int(np.count_nonzero(raq == raq.max()) > 1)
    assert ties > 0, "no RAQ tie was generated"


def test_rows_are_copies_in_row_order():
    acc, preds = random_query_inputs(np.random.default_rng(3))
    preds = np.vstack([preds, preds + 1.0])
    query = PoolQuery.gated(
        NAMES[: preds.shape[1]], acc, preds, 0.25, "interpolation", 10.0
    )
    rows = list(query)
    assert len(rows) == len(query) == preds.shape[0]
    assert [r.selected_model for r in rows] == query.selected_models()
    last = query[-1]
    assert last.estimate == rows[-1].estimate
    last.predictions[:] = -1.0
    last.accuracy[:] = -1.0
    assert np.array_equal(query.predictions, preds)
    assert np.array_equal(query.accuracy, acc)


def test_predict_is_a_one_row_batch():
    pool = ModelPool(training_mode="incremental", random_state=1)
    rng = np.random.default_rng(4)
    for x in rng.uniform(100.0, 4000.0, size=40):
        pool.update(np.array([x]), 300.0 + 0.5 * x + rng.normal(0.0, 50.0))
    X = np.array([[250.0], [1800.0], [9000.0]])
    query = pool.predict_batch(X)
    assert query.predictions.flags.c_contiguous
    assert query.predictions.shape == (3, 4)
    for j, row in enumerate(query):
        single = pool.predict(X[j])
        assert single.estimate == row.estimate
        assert single.selected_index == row.selected_index
        assert np.array_equal(single.weights, row.weights)


def random_windows(rng):
    """Windows of odd and even lengths, length 1, and many ties."""
    for n in (1, 2, 3, 4, 5, 127, 128):
        yield rng.normal(0.0, 300.0, size=n)
    for _ in range(400):
        n = int(rng.integers(1, 201))
        values = rng.normal(rng.uniform(-50.0, 50.0), 300.0, size=n)
        if rng.random() < 0.5:
            values = np.round(values / 100.0) * 100.0  # ties
        yield values


def test_window_statistics_equal_numpy():
    for values in random_windows(np.random.default_rng(5)):
        assert window_std(values) == float(np.std(values))
        assert window_median(values) == float(np.median(values))
        assert window_mean(values.tolist()) == float(np.mean(values.tolist()))
        positive = np.abs(values)
        assert window_median(positive) == float(np.median(positive))


def test_window_statistics_do_not_modify_the_window():
    values = np.array([5.0, 1.0, 4.0, 2.0])
    window_std(values)
    window_median(values)
    assert values.tolist() == [5.0, 1.0, 4.0, 2.0]


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_nan_propagates_like_numpy(n):
    values = np.arange(1.0, n + 1.0)
    values[n // 2] = math.nan
    assert math.isnan(float(np.median(values)))
    assert math.isnan(window_median(values))
    assert math.isnan(window_std(values))
    assert math.isnan(window_mean(values.tolist()))
