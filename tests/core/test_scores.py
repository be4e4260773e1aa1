"""Tests for the RAQ score components (paper Eqs. 1-3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scores import (
    RunningAccuracy,
    accuracy_term,
    accuracy_terms,
    efficiency_scores,
    raq_scores,
)

pos_floats = st.floats(min_value=0.01, max_value=1e6)


class TestAccuracyTerm:
    def test_perfect_prediction_scores_one(self):
        assert accuracy_term(100.0, 100.0) == 1.0

    def test_relative_error_scaling(self):
        # 10% error -> 0.9
        assert accuracy_term(110.0, 100.0) == pytest.approx(0.9)
        assert accuracy_term(90.0, 100.0) == pytest.approx(0.9)

    def test_error_bounded_at_one(self):
        # A 10x overestimate is clipped: score 0, not negative (Eq. 1).
        assert accuracy_term(1000.0, 100.0) == 0.0
        assert accuracy_term(0.0, 100.0) == 0.0

    def test_rejects_nonpositive_truth(self):
        with pytest.raises(ValueError, match="positive"):
            accuracy_term(1.0, 0.0)

    @given(pos_floats, pos_floats)
    @settings(max_examples=50, deadline=None)
    def test_property_in_unit_interval(self, pred, true):
        assert 0.0 <= accuracy_term(pred, true) <= 1.0

    def test_vectorised_matches_scalar(self):
        preds = np.array([110.0, 90.0, 1000.0])
        trues = np.array([100.0, 100.0, 100.0])
        v = accuracy_terms(preds, trues)
        s = [accuracy_term(p, t) for p, t in zip(preds, trues)]
        assert np.allclose(v, s)


class TestRunningAccuracy:
    def test_zero_before_first_observation(self):
        assert RunningAccuracy().score == 0.0

    def test_mean_of_terms(self):
        acc = RunningAccuracy()
        acc.update(110.0, 100.0)  # 0.9
        acc.update(100.0, 100.0)  # 1.0
        assert acc.score == pytest.approx(0.95)
        assert acc.count == 2

    def test_reset_to(self):
        acc = RunningAccuracy()
        acc.update(0.0, 100.0)
        acc.reset_to(np.array([1.0, 0.5]))
        assert acc.score == pytest.approx(0.75)
        assert acc.count == 2

    def test_matches_eq1_over_sequence(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(50, 150, 30)
        trues = rng.uniform(50, 150, 30)
        acc = RunningAccuracy()
        for p, t in zip(preds, trues):
            acc.update(p, t)
        expected = float(np.mean(accuracy_terms(preds, trues)))
        assert acc.score == pytest.approx(expected)


class TestEfficiencyScores:
    def test_largest_estimate_scores_zero(self):
        es = efficiency_scores(np.array([[100.0, 200.0, 400.0]]))
        assert es[0, 2] == 0.0

    def test_smaller_estimates_score_higher(self):
        es = efficiency_scores(np.array([[100.0, 200.0, 400.0]]))[0]
        assert es[0] > es[1] > es[2]
        assert es[0] == pytest.approx(0.75)
        assert es[1] == pytest.approx(0.5)

    def test_single_model_scores_zero(self):
        assert efficiency_scores(np.array([[123.0]]))[0, 0] == 0.0

    def test_equal_estimates_all_zero(self):
        es = efficiency_scores(np.array([[5.0, 5.0, 5.0]]))
        assert np.allclose(es, 0.0)

    def test_each_row_against_its_own_max(self):
        es = efficiency_scores(np.array([[100.0, 400.0], [50.0, 25.0]]))
        assert es.tolist() == [[0.75, 0.0], [0.0, 0.5]]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            efficiency_scores(np.array([[1.0, 0.0]]))

    def test_rejects_empty_and_1d(self):
        with pytest.raises(ValueError):
            efficiency_scores(np.empty((1, 0)))
        with pytest.raises(ValueError):
            efficiency_scores(np.ones(2))

    @given(st.lists(pos_floats, min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_property_unit_interval(self, preds):
        es = efficiency_scores(np.array([preds]))
        assert np.all(es >= 0.0) and np.all(es <= 1.0)
        assert es.min() == 0.0  # the max prediction always scores 0


class TestRAQ:
    def test_alpha_zero_is_pure_accuracy(self):
        acc = np.array([0.9, 0.5])
        eff = np.array([[0.1, 0.8]])
        assert np.allclose(raq_scores(acc, eff, 0.0), [acc])

    def test_alpha_one_is_pure_efficiency(self):
        acc = np.array([0.9, 0.5])
        eff = np.array([[0.1, 0.8]])
        assert np.allclose(raq_scores(acc, eff, 1.0), eff)

    def test_blend(self):
        got = raq_scores(np.array([1.0]), np.array([[0.0]]), 0.25)
        assert got[0, 0] == pytest.approx(0.75)

    def test_accuracy_broadcasts_over_rows(self):
        got = raq_scores(np.array([1.0, 0.0]), np.array([[0.0, 1.0]] * 3), 0.5)
        assert got.tolist() == [[0.5, 0.5]] * 3

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            raq_scores(np.array([0.5]), np.array([[0.5]]), 1.5)

    def test_score_domain_checked(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            raq_scores(np.array([2.0]), np.array([[0.5]]), 0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            raq_scores(np.array([0.5, 0.5]), np.array([[0.5]]), 0.5)

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=6),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_output_in_unit_interval(self, scores, alpha):
        a = np.array(scores)
        raq = raq_scores(a, np.array([1.0 - a]), alpha)
        assert np.all(raq >= -1e-12) and np.all(raq <= 1.0 + 1e-12)
