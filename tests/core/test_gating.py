"""Tests for the Argmax and Interpolation gating strategies (Eq. 4).

:func:`gate` takes ``(n_rows, n_models)`` arrays; most cases gate one
row, written ``[[...]]``.
"""

import numpy as np
import pytest

from repro.core.gating import gate


def argmax_gate(preds, raq):
    return gate(np.array([preds]), np.array([raq]), "argmax")


def interpolation_gate(preds, raq, beta):
    return gate(np.array([preds]), np.array([raq]), "interpolation", beta)


class TestArgmax:
    def test_picks_highest_raq(self):
        weights, estimates, selected = argmax_gate([100.0, 200.0], [0.3, 0.9])
        assert estimates.tolist() == [200.0]
        assert selected.tolist() == [1]
        assert weights.tolist() == [[0.0, 1.0]]

    def test_tie_breaks_to_first(self):
        _, _, selected = argmax_gate([100.0, 200.0], [0.5, 0.5])
        assert selected.tolist() == [0]

    def test_single_model(self):
        _, estimates, _ = argmax_gate([42.0], [0.1])
        assert estimates.tolist() == [42.0]

    def test_rows_are_independent(self):
        weights, estimates, selected = gate(
            np.array([[100.0, 200.0, 300.0], [7.0, 8.0, 9.0]]),
            np.array([[0.1, 0.2, 0.9], [0.8, 0.1, 0.1]]),
            "argmax",
        )
        assert estimates.tolist() == [300.0, 7.0]
        assert selected.tolist() == [2, 0]
        assert weights.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]


class TestInterpolation:
    def test_equal_raq_gives_mean(self):
        weights, estimates, _ = interpolation_gate(
            [100.0, 300.0], [0.5, 0.5], beta=5.0
        )
        assert estimates[0] == pytest.approx(200.0)
        assert np.allclose(weights, [[0.5, 0.5]])

    def test_weights_sum_to_one(self):
        weights, _, _ = interpolation_gate(
            [1.0, 2.0, 3.0], [0.2, 0.5, 0.9], beta=7.0
        )
        assert weights.sum() == pytest.approx(1.0)

    def test_softmax_formula_eq4(self):
        preds = np.array([100.0, 200.0])
        raq = np.array([0.4, 0.8])
        beta = 3.0
        w = np.exp(beta * raq) / np.exp(beta * raq).sum()
        weights, estimates, _ = interpolation_gate(preds, raq, beta)
        assert np.allclose(weights[0], w)
        assert estimates[0] == pytest.approx(float(w @ preds))

    def test_large_beta_converges_to_argmax(self):
        _, estimates, _ = interpolation_gate(
            [100.0, 200.0, 50.0], [0.2, 0.9, 0.4], beta=500.0
        )
        assert estimates[0] == pytest.approx(200.0, rel=1e-9)

    def test_numerically_stable_for_huge_beta(self):
        _, estimates, _ = interpolation_gate([1.0, 2.0], [0.0, 1.0], beta=1e6)
        assert np.isfinite(estimates[0])
        assert estimates[0] == pytest.approx(2.0)

    def test_selected_index_is_argmax_for_diagnostics(self):
        _, _, selected = interpolation_gate([10.0, 20.0], [0.9, 0.1], beta=2.0)
        assert selected.tolist() == [0]

    def test_beta_domain(self):
        with pytest.raises(ValueError, match="beta"):
            interpolation_gate([1.0], [0.5], beta=0.5)

    def test_estimate_within_prediction_range(self):
        # A convex combination can never leave [min, max] of a row.
        rng = np.random.default_rng(0)
        preds = rng.uniform(10, 1000, (20, 4))
        raq = rng.uniform(0, 1, (20, 4))
        for beta in rng.uniform(1, 50, 20):
            _, estimates, _ = gate(preds, raq, "interpolation", beta)
            assert np.all(preds.min(axis=1) - 1e-9 <= estimates)
            assert np.all(estimates <= preds.max(axis=1) + 1e-9)


class TestDispatch:
    def test_gate_dispatches(self):
        preds = np.array([[1.0, 9.0]])
        raq = np.array([[1.0, 0.0]])
        assert gate(preds, raq, "argmax")[1][0] == 1.0
        assert gate(preds, raq, "interpolation", beta=1.0)[1][0] < 9.0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown gating"):
            gate(np.array([[1.0]]), np.array([[1.0]]), "mystery")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            gate(np.array([[1.0]]), np.array([[1.0, 2.0]]), "argmax")

    def test_empty_predictions(self):
        with pytest.raises(ValueError, match="non-empty"):
            gate(np.empty((1, 0)), np.empty((1, 0)), "argmax")

    def test_rows_of_models_required(self):
        with pytest.raises(ValueError, match="non-empty"):
            gate(np.array([1.0, 2.0]), np.array([1.0, 2.0]), "argmax")
