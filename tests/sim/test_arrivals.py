"""Tests for the event backend's pluggable arrival models."""

import numpy as np
import pytest

from repro.sim.arrivals import (
    ArrivalModel,
    BurstyArrivals,
    FixedArrivals,
    PoissonArrivals,
    parse_arrival,
)


class TestFixedArrivals:
    def test_batch_default(self):
        times = FixedArrivals().sample(4, np.random.default_rng(0))
        assert times.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_even_spacing(self):
        times = FixedArrivals(0.25).sample(4, np.random.default_rng(0))
        assert times.tolist() == [0.0, 0.25, 0.5, 0.75]

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError, match="interval_hours"):
            FixedArrivals(-1.0)


class TestPoissonArrivals:
    def test_deterministic_under_fixed_seed(self):
        model = PoissonArrivals(rate_per_hour=2.0)
        a = model.sample(50, np.random.default_rng(7))
        b = model.sample(50, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        model = PoissonArrivals(rate_per_hour=2.0)
        a = model.sample(50, np.random.default_rng(1))
        b = model.sample(50, np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_starts_at_zero_and_nondecreasing(self):
        times = PoissonArrivals(0.5).sample(100, np.random.default_rng(3))
        assert times[0] == 0.0
        assert np.all(np.diff(times) >= 0.0)

    def test_mean_gap_tracks_rate(self):
        times = PoissonArrivals(4.0).sample(4000, np.random.default_rng(0))
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(0.25, rel=0.1)

    def test_empty_trace(self):
        assert PoissonArrivals(1.0).sample(0, np.random.default_rng(0)).size == 0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="rate_per_hour"):
            PoissonArrivals(0.0)


class TestBurstyArrivals:
    def test_burst_structure(self):
        times = BurstyArrivals(3, 0.5).sample(7, np.random.default_rng(0))
        assert times.tolist() == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="burst_size"):
            BurstyArrivals(0, 1.0)
        with pytest.raises(ValueError, match="gap_hours"):
            BurstyArrivals(2, -0.5)


class TestNonFiniteRejected:
    """NaN passes every ``< 0`` test, and an infinite gap or rate makes no
    schedule: each is refused with the model's own message."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_models(self, value):
        with pytest.raises(ValueError, match="interval_hours must be >= 0"):
            FixedArrivals(value)
        with pytest.raises(ValueError, match="rate_per_hour must be positive"):
            PoissonArrivals(value)
        with pytest.raises(ValueError, match="gap_hours must be >= 0"):
            BurstyArrivals(2, value)

    @pytest.mark.parametrize(
        "spec",
        ["fixed:inf", "fixed:nan", "poisson:nan", "poisson:inf",
         "bursty:2xinf", "bursty:2xnan"],
    )
    def test_specs(self, spec):
        with pytest.raises(ValueError, match=f"bad arrival spec '{spec}'"):
            parse_arrival(spec)


class TestParseArrival:
    def test_fixed_specs(self):
        assert isinstance(parse_arrival("fixed"), FixedArrivals)
        assert parse_arrival("fixed:0.25").interval_hours == 0.25
        assert parse_arrival("batch").interval_hours == 0.0

    def test_poisson_spec(self):
        model = parse_arrival("poisson:0.5")
        assert isinstance(model, PoissonArrivals)
        assert model.rate_per_hour == 0.5

    def test_bursty_spec(self):
        model = parse_arrival("bursty:8x0.5")
        assert isinstance(model, BurstyArrivals)
        assert model.burst_size == 8
        assert model.gap_hours == 0.5

    def test_instance_passes_through(self):
        model = PoissonArrivals(1.0)
        assert parse_arrival(model) is model
        assert isinstance(model, ArrivalModel)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            parse_arrival("fractal:1")
        with pytest.raises(ValueError, match="bad arrival spec"):
            parse_arrival("poisson")
        with pytest.raises(ValueError, match="bad arrival spec"):
            parse_arrival("bursty:8")
        with pytest.raises(TypeError, match="ArrivalModel"):
            parse_arrival(42)
