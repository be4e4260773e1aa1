"""Tests for the fault-tolerance offset strategies (paper §II-E)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.offsets import OFFSET_STRATEGIES, OffsetTracker, compute_offset


class TestComputeOffset:
    PREDS = np.array([100.0, 100.0, 100.0, 100.0])
    ACTS = np.array([90.0, 110.0, 130.0, 80.0])  # errors: -10, 10, 30, -20

    def test_std(self):
        errors = self.ACTS - self.PREDS
        assert compute_offset("std", self.PREDS, self.ACTS) == pytest.approx(
            float(np.std(errors))
        )

    def test_std_under_uses_only_underpredictions(self):
        # underprediction errors: 10, 30
        assert compute_offset("std_under", self.PREDS, self.ACTS) == pytest.approx(
            float(np.std([10.0, 30.0]))
        )

    def test_median(self):
        assert compute_offset("median", self.PREDS, self.ACTS) == pytest.approx(
            float(np.median([10.0, 10.0, 30.0, 20.0]))
        )

    def test_median_under(self):
        assert compute_offset(
            "median_under", self.PREDS, self.ACTS
        ) == pytest.approx(20.0)

    def test_no_underpredictions_gives_zero(self):
        preds = np.array([100.0, 100.0])
        acts = np.array([50.0, 60.0])
        assert compute_offset("std_under", preds, acts) == 0.0
        assert compute_offset("median_under", preds, acts) == 0.0

    def test_empty_history_gives_zero(self):
        assert compute_offset("std", np.array([]), np.array([])) == 0.0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown offset"):
            compute_offset("bogus", self.PREDS, self.ACTS)

    @given(st.lists(st.floats(min_value=1, max_value=1e5), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_property_nonnegative(self, acts):
        acts_arr = np.array(acts)
        preds = np.full_like(acts_arr, float(np.mean(acts_arr)))
        for s in OFFSET_STRATEGIES:
            assert compute_offset(s, preds, acts_arr) >= 0.0


class TestOffsetTracker:
    def test_empty_tracker_offsets_zero(self):
        tr = OffsetTracker("dynamic")
        assert tr.current_offset() == (0.0, "none")

    def test_none_strategy(self):
        tr = OffsetTracker("none")
        tr.record(100.0, 120.0, 1.0)
        assert tr.current_offset() == (0.0, "none")

    def test_fixed_strategy_returns_its_statistic(self):
        tr = OffsetTracker("median_under")
        tr.record(100.0, 120.0, 1.0)
        tr.record(100.0, 90.0, 1.0)
        off, name = tr.current_offset()
        assert name == "median_under"
        assert off == pytest.approx(20.0)

    def test_dynamic_selects_among_strategies(self):
        tr = OffsetTracker("dynamic", time_to_failure=1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            actual = 1000.0 + rng.normal(0, 50.0)
            tr.record(1000.0, actual, 0.1)
        off, name = tr.current_offset()
        assert name in OFFSET_STRATEGIES
        assert off > 0.0

    def test_dynamic_prefers_padding_when_failures_expensive(self):
        # Noisy history around the prediction: the zero-ish offsets lose
        # because every underprediction costs a full failed run plus a
        # retry, so dynamic must pick one of the larger statistics.
        tr = OffsetTracker("dynamic", time_to_failure=1.0, window=500)
        rng = np.random.default_rng(1)
        for _ in range(200):
            tr.record(1000.0, 1000.0 + rng.normal(0, 100.0), 1.0)
        off, _ = tr.current_offset()
        candidates = {
            s: compute_offset(
                s, np.full(200, 1000.0), np.array(tr._acts)
            )
            for s in OFFSET_STRATEGIES
        }
        assert off >= np.median(sorted(candidates.values()))

    def test_window_drops_old_entries(self):
        tr = OffsetTracker("std", window=10)
        for _ in range(5):
            tr.record(1000.0, 3000.0, 1.0)  # huge early errors
        for _ in range(10):
            tr.record(1000.0, 1001.0, 1.0)  # converged phase
        assert len(tr) == 10
        off, _ = tr.current_offset()
        assert off < 10.0  # early transient no longer inflates the offset

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            OffsetTracker("std", window=0)

    def test_record_validation(self):
        tr = OffsetTracker()
        with pytest.raises(ValueError):
            tr.record(100.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            tr.record(100.0, 100.0, -0.5)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="unknown offset"):
            OffsetTracker("nope")
        with pytest.raises(ValueError, match="time_to_failure"):
            OffsetTracker("dynamic", time_to_failure=0.0)

    def test_len(self):
        tr = OffsetTracker()
        tr.record(1.0, 1.0, 0.0)
        assert len(tr) == 1

    def test_perfect_predictions_need_no_offset(self):
        tr = OffsetTracker("dynamic")
        for _ in range(20):
            tr.record(500.0, 500.0, 0.5)
        off, _ = tr.current_offset()
        assert off == pytest.approx(0.0)


def reference_offset(tr: OffsetTracker) -> tuple[float, str]:
    """The per-candidate loop the (8, n) evaluation replaced."""
    if tr.strategy == "none" or not tr._preds:
        return 0.0, "none"
    preds, acts = np.asarray(tr._preds), np.asarray(tr._acts)
    rts = np.asarray(tr._runtimes)
    if tr.strategy != "dynamic":
        return compute_offset(tr.strategy, preds, acts), tr.strategy
    best_name, best_offset, best_waste = OFFSET_STRATEGIES[0], 0.0, np.inf
    for name in OFFSET_STRATEGIES:
        base = compute_offset(name, preds, acts)
        for scale in tr.scales:
            off = base * scale
            alloc = preds + off
            waste = float(
                np.where(
                    alloc >= acts,
                    (alloc - acts) * rts,
                    alloc * rts * tr.time_to_failure + (acts.max() - acts) * rts,
                ).sum()
            )
            if waste < best_waste:
                best_name, best_offset, best_waste = name, off, waste
    return best_offset, best_name


class TestVectorisedSelection:
    @given(
        st.integers(min_value=1, max_value=320),
        st.sampled_from([16, 128, 300]),
        st.sampled_from([(1.0, 2.0), (1.0,), (0.5, 1.0, 3.0)]),
        st.sampled_from([1.0, 0.5, 0.1]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_candidate_loop(self, n, window, scales, ttf, seed):
        rng = np.random.default_rng(seed)
        tr = OffsetTracker("dynamic", time_to_failure=ttf, window=window, scales=scales)
        for _ in range(n):
            # Integer-valued histories produce tied candidate offsets and
            # tied wastages; the first minimum must still win.
            pred = float(rng.integers(90, 110))
            tr.record(pred, float(rng.integers(80, 120)), float(rng.integers(0, 3)))
            assert tr.current_offset() == reference_offset(tr)

    def test_tied_wastage_keeps_first_candidate(self):
        tr = OffsetTracker("dynamic")
        for _ in range(5):
            tr.record(100.0, 100.0, 0.0)  # zero runtime: every candidate wastes 0
        assert tr.current_offset() == (0.0, "std")
        assert reference_offset(tr) == (0.0, "std")

    @pytest.mark.parametrize("strategy", ["dynamic", "std", "median_under", "none"])
    def test_selection_is_cached_until_the_next_record(self, strategy):
        tr = OffsetTracker(strategy)
        tr.record(100.0, 130.0, 1.0)
        tr.record(100.0, 90.0, 1.0)
        first = tr.current_offset()
        assert tr.current_offset() is first
        tr.record(100.0, 160.0, 1.0)
        assert tr.current_offset() == reference_offset(tr)
