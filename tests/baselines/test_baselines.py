"""Tests for the four state-of-the-art baselines and the presets."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    TovarPPM,
    WittLR,
    WittPercentile,
    WittWastage,
    WorkflowPresets,
)
from repro.provenance.records import TaskRecord
from repro.sim.interface import TaskSubmission


def sub(task="t", iid=0, x=100.0, preset=4096.0):
    return TaskSubmission(
        task_type=task,
        workflow="wf",
        machine="m1",
        instance_id=iid,
        input_size_mb=x,
        preset_memory_mb=preset,
        timestamp=iid,
    )


def rec(task="t", x=100.0, y=500.0, rt=0.5, success=True, ts=0, iid=0):
    return TaskRecord(
        task_type=task,
        workflow="wf",
        machine="m1",
        timestamp=ts,
        input_size_mb=x,
        peak_memory_mb=y,
        runtime_hours=rt,
        success=success,
        instance_id=iid,
    )


def feed(predictor, xs, ys, rts=None, task="t"):
    rts = rts or [0.5] * len(xs)
    for i, (x, y, rt) in enumerate(zip(xs, ys, rts)):
        predictor.observe(rec(task=task, x=x, y=y, rt=rt, ts=i, iid=i))


class TestWorkflowPresets:
    def test_always_preset(self):
        p = WorkflowPresets()
        assert p.predict(sub(preset=8192.0)) == 8192.0
        feed(p, [1.0], [100.0])
        assert p.predict(sub(preset=8192.0)) == 8192.0  # never learns

    def test_failure_fallback_doubles(self):
        assert WorkflowPresets().on_failure(sub(), 1000.0, 1) == 2000.0


class TestWittPercentile:
    def test_preset_before_min_history(self):
        p = WittPercentile()
        assert p.predict(sub()) == 4096.0
        feed(p, [1.0], [100.0])
        assert p.predict(sub()) == 4096.0  # one record < min_history=2

    @given(
        batches=st.lists(
            st.lists(
                st.one_of(
                    st.floats(min_value=1e-3, max_value=1e7),
                    st.sampled_from([256.0, 1024.0, 4096.0]),  # ties
                ),
                min_size=1,
                max_size=40,
            ),
            min_size=1,
            max_size=6,
        ),
        percentile=st.floats(min_value=0.0, max_value=100.0, exclude_min=True),
    )
    @example(batches=[list(np.linspace(100, 200, 101))], percentile=95.0)
    @settings(max_examples=200, deadline=None)
    def test_p95_of_history(self, batches, percentile):
        # Observations arrive between queries, so each query sorts a sorted
        # prefix plus a new tail; every answer must be numpy's percentile
        # of the whole history, exactly.
        p = WittPercentile(percentile=percentile, min_history=1)
        history = []
        for batch in batches:
            feed(p, [1.0] * len(batch), batch)
            history.extend(batch)
            want = float(np.percentile(history, percentile))
            assert p.predict(sub()) == want
            assert p.predict_batch([sub(), sub(iid=1)]).tolist() == [want, want]

    def test_ignores_failures(self):
        p = WittPercentile()
        feed(p, [1.0, 1.0], [100.0, 110.0])
        p.observe(rec(y=9999.0, success=False))
        assert p.predict(sub()) < 1000.0

    def test_custom_percentile(self):
        p = WittPercentile(percentile=50.0)
        feed(p, [1.0] * 3, [100.0, 200.0, 300.0])
        assert p.predict(sub()) == pytest.approx(200.0)

    def test_doubles_on_failure(self):
        assert WittPercentile().on_failure(sub(), 1000.0, 1) == 2000.0

    def test_validation(self):
        with pytest.raises(ValueError, match="percentile"):
            WittPercentile(percentile=0.0)
        with pytest.raises(ValueError, match="min_history"):
            WittPercentile(min_history=0)


class TestWittLR:
    def test_learns_linear_relationship(self):
        p = WittLR()
        xs = list(np.linspace(10, 1000, 50))
        ys = [3.0 * x + 100.0 for x in xs]
        feed(p, xs, ys)
        got = p.predict(sub(x=500.0))
        # exact line + ~zero offset
        assert got == pytest.approx(1600.0, rel=0.02)

    def test_offset_is_mean_abs_residual(self):
        p = WittLR()
        # Constant inputs, alternating targets: line fits the mean, and
        # every |residual| is 50.
        feed(p, [100.0] * 10, [450.0, 550.0] * 5)
        got = p.predict(sub(x=100.0))
        assert got == pytest.approx(500.0 + 50.0, rel=0.01)

    def test_preset_before_history(self):
        assert WittLR().predict(sub()) == 4096.0

    def test_doubles_on_failure(self):
        assert WittLR().on_failure(sub(), 500.0, 2) == 1000.0


class TestTovarPPM:
    def test_preset_before_history(self):
        assert TovarPPM().predict(sub()) == 4096.0

    def test_candidate_minimises_empirical_waste(self):
        # Peaks mostly small with one huge outlier: allocating the max
        # for every task wastes more than occasionally failing one task,
        # so the chosen candidate must be below the outlier.
        p = TovarPPM(node_memory_mb=10_000.0)
        ys = [100.0] * 50 + [5000.0]
        feed(p, [1.0] * 51, ys, rts=[1.0] * 51)
        assert p.predict(sub()) == pytest.approx(100.0)

    def test_allocates_max_when_failures_costly(self):
        # Two modes close together: covering both is cheap, failures are
        # not; the candidate must be the larger mode.
        p = TovarPPM(node_memory_mb=100_000.0)
        feed(p, [1.0] * 40, [900.0, 1000.0] * 20)
        assert p.predict(sub()) == pytest.approx(1000.0)

    def test_node_max_on_failure(self):
        p = TovarPPM(node_memory_mb=65536.0)
        assert p.on_failure(sub(), 100.0, 1) == 65536.0

    def test_candidate_thinning(self):
        p = TovarPPM(max_candidates=10)
        ys = list(np.linspace(100, 1000, 500))
        feed(p, [1.0] * 500, ys)
        assert np.isfinite(p.predict(sub()))

    def test_validation(self):
        with pytest.raises(ValueError, match="node_memory_mb"):
            TovarPPM(node_memory_mb=0.0)


class TestWittWastage:
    def test_preset_before_history(self):
        assert WittWastage().predict(sub()) == 4096.0

    def test_fits_linear_band(self):
        p = WittWastage(refit_interval=1)
        rng = np.random.default_rng(0)
        xs = list(rng.uniform(10, 1000, 60))
        ys = [2.0 * x + 50.0 + rng.normal(0, 5.0) for x in xs]
        feed(p, xs, ys)
        got = p.predict(sub(x=500.0))
        assert got == pytest.approx(1050.0, rel=0.1)

    def test_selected_line_is_a_quantile_line(self):
        p = WittWastage(quantiles=(0.5, 0.9), refit_interval=1)
        feed(p, [100.0] * 20, list(np.linspace(400, 600, 20)))
        line = p._best_line["t"]
        assert line.quantile in (0.5, 0.9)

    def test_refit_cadence(self):
        p = WittWastage(refit_interval=10)
        xs = [float(i) for i in range(1, 6)]
        feed(p, xs, [10.0 * x for x in xs])
        first = p._best_line["t"]
        # 5 more records: no refit before the 10-observation cadence.
        for i in range(4):
            p.observe(rec(x=10.0 + i, y=100.0 + i, ts=10 + i, iid=10 + i))
        assert p._best_line["t"] is first

    def test_internal_objective_ignores_lost_work(self):
        # The method's own wastage model charges only over-allocation
        # (including the doubled retry), not the killed attempt — that is
        # what makes it choose aggressive lines.
        p = WittWastage()
        alloc = np.array([100.0])
        y = np.array([150.0])
        rt = np.array([2.0])
        waste = p._hypothetical_wastage(alloc, y, rt)
        assert waste == pytest.approx((200.0 - 150.0) * 2.0)

    def test_doubles_on_failure(self):
        assert WittWastage().on_failure(sub(), 512.0, 1) == 1024.0

    def test_validation(self):
        with pytest.raises(ValueError, match="quantiles"):
            WittWastage(quantiles=(1.5,))
        with pytest.raises(ValueError, match="refit_interval"):
            WittWastage(refit_interval=0)
