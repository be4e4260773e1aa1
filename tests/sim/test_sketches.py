"""QuantileSketch / RunningStat: accuracy, merging, determinism.

The acceptance bar from the scale-out work: sketch quantiles stay
within 1% relative error of ``np.quantile`` on real simulation data
(a mid-size scenario's per-attempt wastage distribution) — pinned here
so collector compression can never silently degrade the summaries.
"""

import math
import pickle

import numpy as np
import pytest

from repro.experiments.factories import method_factories
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.sim.sketches import QUANTILE_POINTS, QuantileSketch, RunningStat
from repro.workflow.nfcore import build_workflow_trace


def rel_err(approx: float, exact: float) -> float:
    return abs(approx - exact) / abs(exact) if exact else abs(approx)


# ---------------------------------------------------------------------------
# RunningStat


def test_running_stat_exact_and_mergeable():
    rng = np.random.default_rng(0)
    values = rng.normal(5.0, 2.0, size=1000)
    stat = RunningStat()
    for v in values:
        stat.add(float(v))
    assert stat.n == 1000
    assert stat.total == pytest.approx(float(values.sum()))
    assert stat.mean == pytest.approx(float(values.mean()))
    assert stat.min == float(values.min())
    assert stat.max == float(values.max())

    left, right = RunningStat(), RunningStat()
    for v in values[:400]:
        left.add(float(v))
    for v in values[400:]:
        right.add(float(v))
    left.merge(right)
    assert left.n == stat.n
    assert left.total == pytest.approx(stat.total)
    assert left.min == stat.min and left.max == stat.max


def test_running_stat_empty_mean_is_zero():
    assert RunningStat().mean == 0.0


# ---------------------------------------------------------------------------
# QuantileSketch on synthetic distributions


@pytest.mark.parametrize(
    "name,values",
    [
        ("lognormal", np.random.default_rng(1).lognormal(0.0, 1.5, 50_000)),
        ("exponential", np.random.default_rng(2).exponential(3.0, 50_000)),
        ("uniform", np.random.default_rng(3).uniform(0.0, 10.0, 50_000)),
        # What one sim_dag_kernel run feeds each of its sketches.
        ("lognormal-222k", np.random.default_rng(10).lognormal(0.0, 1.5, 222_000)),
    ],
)
def test_sketch_within_one_percent(name, values):
    sketch = QuantileSketch()
    sketch.extend(float(v) for v in values)
    for label, q in QUANTILE_POINTS:
        exact = float(np.quantile(values, q))
        assert rel_err(sketch.quantile(q), exact) < 0.01, (
            f"{name} {label}: sketch {sketch.quantile(q)} vs exact {exact}"
        )


def test_sketch_bimodal_tails_tight_median_bounded():
    """Bimodal data: tails stay within 1%; the median is the hard case.

    A t-digest interpolates across the inter-modal gap, where the exact
    median of a balanced mixture sits — so the p50 bound is looser (5%)
    by construction, while everything in either mode stays tight.
    """
    values = np.concatenate(
        [
            np.random.default_rng(4).normal(1.0, 0.2, 25_000),
            np.random.default_rng(5).normal(9.0, 0.5, 25_000),
        ]
    )
    sketch = QuantileSketch()
    sketch.extend(float(v) for v in values)
    for label, q in QUANTILE_POINTS:
        exact = float(np.quantile(values, q))
        bound = 0.05 if label == "p50" else 0.01
        assert rel_err(sketch.quantile(q), exact) < bound, (
            f"{label}: sketch {sketch.quantile(q)} vs exact {exact}"
        )


def test_small_streams_are_exact():
    """Up to ``compression`` values every point is its own centroid."""
    for n in (100, 512):
        rng = np.random.default_rng(6)
        values = rng.normal(0.0, 1.0, n)
        sketch = QuantileSketch()
        assert n <= sketch.compression
        sketch.extend(float(v) for v in values)
        # Median of an even count, centered-mass interpolation: midpoint
        # of the two middle order statistics.
        s = np.sort(values)
        assert sketch.quantile(0.5) == pytest.approx((s[n // 2 - 1] + s[n // 2]) / 2.0)
        assert sketch.quantile(0.0) == float(s[0])
        assert sketch.quantile(1.0) == float(s[-1])
        assert np.array_equal(sketch._means, s), n
        assert np.array_equal(sketch._weights, np.ones(n)), n


def test_reads_without_buffered_values_run_no_pass():
    """A read compresses only what is buffered; the centroids stay put.

    ``quantiles()`` makes four reads per summary, and a pass over
    finished centroids would re-walk all of them each time.
    """
    sketch = QuantileSketch()
    sketch.extend(np.random.default_rng(11).lognormal(0.0, 1.0, 50_000))
    assert sketch._buffer  # 50_000 is not a multiple of the cap
    first = sketch.quantiles()
    assert not sketch._buffer
    means, weights = sketch._means, sketch._weights
    assert len(means) > sketch.compression
    assert sketch.quantiles() == first
    assert sketch._means is means and sketch._weights is weights


def test_centroid_count_grows_logarithmically():
    """``n`` values keep at most ``(compression / 2) ln(2 n) + 2`` centroids.

    Each centroid owns one integer step of ``k(q) = (compression / 4)
    ln(q / (1 - q))``, and centres lie in ``[1 / (2 n), 1 - 1 / (2 n)]``.
    """
    n = 222_000
    sketch = QuantileSketch()
    sketch.extend(np.random.default_rng(12).lognormal(0.0, 1.5, n))
    sketch.quantile(0.5)
    bound = sketch.compression / 2.0 * np.log(2.0 * n) + 2.0
    assert len(sketch._means) <= bound
    assert sketch._weights.sum() == n


def _loop_compress(means, weights, compression):
    """The clustering rule, one point at a time: the tests' reference.

    Stable-sort the points; a point's centre is ``q = (cum - w / 2) /
    total``; consecutive points sharing ``floor(k(q))`` form one
    centroid, which keeps a lone point's mean as is.
    """
    points = sorted(zip(means, weights), key=lambda p: p[0])
    total = math.fsum(w for _, w in points)
    groups: dict[int, list] = {}
    cum = 0.0
    for mean, weight in points:
        cum += weight
        q = (cum - weight / 2.0) / total
        k = math.floor(compression / 4.0 * math.log(q / (1.0 - q)))
        groups.setdefault(k, []).append((mean, weight))
    out_means, out_weights = [], []
    for group in groups.values():
        w = sum(weight for _, weight in group)
        out_weights.append(w)
        if len(group) == 1:
            out_means.append(group[0][0])
        else:
            out_means.append(sum(m * weight for m, weight in group) / w)
    return out_means, out_weights


@pytest.mark.parametrize("seed", range(4))
def test_compress_matches_the_loop_reference(seed):
    """The numpy pass clusters exactly as the rule says, ties included."""
    rng = np.random.default_rng(20 + seed)
    sketch = QuantileSketch(compression=16 * (seed + 1))
    # Rounded values: many ties between buffered points and centroids.
    values = np.round(rng.lognormal(0.0, 1.0, 5_000 + 777 * seed), 1)
    sketch.extend(values)
    means = list(sketch._means) + sketch._buffer
    weights = list(sketch._weights) + [1.0] * len(sketch._buffer)
    ref_means, ref_weights = _loop_compress(means, weights, sketch.compression)
    sketch._compress(force=True)
    assert sketch._weights.tolist() == ref_weights
    np.testing.assert_allclose(sketch._means, ref_means, rtol=1e-12)


def test_forced_pass_leaves_centroids_unchanged():
    """merge() forces a pass; over finished centroids it is a no-op."""
    sketch = QuantileSketch()
    sketch.extend(np.random.default_rng(13).exponential(2.0, 30_000))
    sketch.quantile(0.5)
    means, weights = sketch._means.copy(), sketch._weights.copy()
    sketch._compress(force=True)
    assert np.array_equal(sketch._means, means)
    assert np.array_equal(sketch._weights, weights)


def test_sketch_deterministic():
    """Same stream -> identical centroids (no RNG anywhere)."""
    rng = np.random.default_rng(7)
    values = [float(v) for v in rng.lognormal(1.0, 1.0, 20_000)]
    a, b = QuantileSketch(), QuantileSketch()
    a.extend(values)
    b.extend(values)
    a._compress()
    b._compress()
    assert np.array_equal(a._means, b._means)
    assert np.array_equal(a._weights, b._weights)


def test_merge_matches_single_sketch_and_is_monotone():
    """Sharded sketches merge to near the single-stream answer.

    Regression for the unsorted-merge bug: ``merge`` concatenates
    centroid lists, so it must force a re-sort/compress — without it
    quantiles came out non-monotone (p50 > p90).
    """
    rng = np.random.default_rng(8)
    values = [float(v) for v in rng.lognormal(0.0, 1.0, 49_000)]
    merged = QuantileSketch()
    for i in range(7):  # 7 shards, interleaved slices
        shard = QuantileSketch()
        shard.extend(values[i::7])
        merged.merge(shard)
    assert merged.n == len(values)
    qs = [merged.quantile(q) for _, q in QUANTILE_POINTS]
    assert qs == sorted(qs), f"non-monotone quantiles: {qs}"
    for (_, q), got in zip(QUANTILE_POINTS, qs):
        assert rel_err(got, float(np.quantile(values, q))) < 0.01


def test_sketch_pickle_round_trip():
    rng = np.random.default_rng(9)
    sketch = QuantileSketch()
    sketch.extend(float(v) for v in rng.exponential(1.0, 5_000))
    clone = pickle.loads(pickle.dumps(sketch))
    for _, q in QUANTILE_POINTS:
        assert clone.quantile(q) == sketch.quantile(q)
    assert clone.n == sketch.n


def test_sketch_validates_inputs():
    with pytest.raises(ValueError, match="compression"):
        QuantileSketch(compression=4)
    sketch = QuantileSketch()
    with pytest.raises(ValueError, match="q must be"):
        sketch.quantile(1.5)
    assert np.isnan(sketch.quantile(0.5))  # empty sketch
    merged = QuantileSketch().merge(QuantileSketch())
    assert merged.n == 0 and np.isnan(merged.quantile(0.5))


# ---------------------------------------------------------------------------
# Accuracy on real simulation data (the acceptance pin)


def test_sketch_accuracy_on_mid_size_scenario():
    """<=1% relative error vs np.quantile on a real wastage distribution.

    Runs a mid-size flat scenario in exact mode, rebuilds a sketch from
    the ledger's per-attempt wastage values, and checks both (a) the
    rebuilt sketch hits every reported quantile within 1% of exact, and
    (b) the run's own summary sketch — fed in completion order by the
    streaming collector — agrees with the rebuild, pinning that the
    collector feeds the same stream.
    """
    trace = build_workflow_trace("mag", seed=0, scale=1.0)
    sim = OnlineSimulator(
        trace,
        backend=EventDrivenBackend(arrival="poisson:400", seed=1),
        time_to_failure=0.7,
        cluster="256g:4",
        placement="best-fit",
    )
    result = sim.run(method_factories()["Witt-Percentile"]())
    values = [o.wastage_gbh for o in result.ledger.outcomes]
    assert len(values) > 5000, "scenario no longer mid-size"

    rebuilt = QuantileSketch()
    rebuilt.extend(values)
    summary_sketch = result.summary.wastage_sketch
    assert summary_sketch.n == len(values)
    for label, q in QUANTILE_POINTS:
        exact = float(np.quantile(values, q))
        assert rel_err(rebuilt.quantile(q), exact) < 0.01, (
            f"{label}: sketch {rebuilt.quantile(q)} vs exact {exact}"
        )
        assert summary_sketch.quantile(q) == rebuilt.quantile(q)


def test_extend_bit_identical_to_per_value_add():
    """Bulk extend = the exact same state as a loop of add() calls.

    PR 10 rewrote extend() with one batched stat update and
    chunk-to-the-boundary buffer fills; the compress points (and hence
    centroids) must land exactly where per-value adds put them.  Sizes
    straddle the compress boundary: empty, single, cap-1, cap, cap+1,
    and several caps plus a remainder.
    """
    rng = np.random.default_rng(7)
    cap = QuantileSketch(compression=16)._cap
    for size in (0, 1, cap - 1, cap, cap + 1, 3 * cap + 7):
        values = rng.lognormal(1.0, 1.5, size=size)
        one = QuantileSketch(compression=16)
        two = QuantileSketch(compression=16)
        for v in values:
            one.add(v)
        two.extend(values)
        assert np.array_equal(one._means, two._means)
        assert np.array_equal(one._weights, two._weights)
        assert one._buffer == two._buffer
        assert one.stat.__getstate__() == two.stat.__getstate__()
        if size:  # empty sketches report nan, which never compares equal
            for q in (0.0, 0.25, 0.5, 0.9, 1.0):
                assert one.quantile(q) == two.quantile(q)


def test_extend_resumes_partial_buffer():
    # extend() on a sketch that already holds a partial buffer must hit
    # the same boundaries as continuing with add().
    one = QuantileSketch(compression=16)
    two = QuantileSketch(compression=16)
    head = [float(i) for i in range(5)]
    tail = [float(i) * 1.5 for i in range(100)]
    for v in head:
        one.add(v)
        two.add(v)
    for v in tail:
        one.add(v)
    two.extend(tail)
    assert np.array_equal(one._means, two._means)
    assert np.array_equal(one._weights, two._weights)
    assert one._buffer == two._buffer
    assert one.stat.__getstate__() == two.stat.__getstate__()
