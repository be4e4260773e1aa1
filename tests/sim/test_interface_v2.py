"""Predictor API v2: predict_batch equivalence and lifecycle defaults."""

import numpy as np
import pytest

from repro.experiments.factories import method_factories
from repro.provenance.records import TaskRecord
from repro.sim.interface import MemoryPredictor, TaskSubmission, TraceContext


def make_submission(i, task_type="t", input_size=100.0, preset=4096.0):
    return TaskSubmission(
        task_type=task_type,
        workflow="wf",
        machine="default",
        instance_id=i,
        input_size_mb=input_size,
        preset_memory_mb=preset,
        timestamp=i,
    )


def make_record(i, task_type="t", input_size=100.0, peak=1000.0, runtime=1.0):
    return TaskRecord(
        task_type=task_type,
        workflow="wf",
        machine="default",
        timestamp=i,
        input_size_mb=input_size,
        peak_memory_mb=peak,
        runtime_hours=runtime,
        success=True,
        attempt=1,
        allocated_mb=peak * 1.5,
        instance_id=i,
    )


def train(predictor, n=12):
    """Feed a deterministic history: two trained types, one unseen."""
    rng = np.random.default_rng(7)
    for i in range(n):
        size_a = 50.0 + 10.0 * i
        predictor.observe(
            make_record(
                2 * i, "a", size_a, peak=200.0 + 3.0 * size_a + rng.normal(0, 5)
            )
        )
        size_b = 500.0 - 20.0 * i
        predictor.observe(
            make_record(
                2 * i + 1, "b", size_b, peak=4000.0 + size_b + rng.normal(0, 25)
            )
        )


def batch_submissions():
    # Interleaved types, including the never-observed "c" (preset path).
    return [
        make_submission(100, "a", 75.0),
        make_submission(101, "b", 330.0),
        make_submission(102, "c", 10.0, preset=2222.0),
        make_submission(103, "a", 140.0),
        make_submission(104, "b", 410.0),
        make_submission(105, "a", 75.0),
    ]


class TestBatchEquivalence:
    @pytest.mark.parametrize("method", sorted(method_factories()))
    def test_batch_equals_loop_of_singles(self, method):
        factory = method_factories()[method]
        # Twin instances trained identically: one answers the batch, the
        # other the loop (predictors may mutate internal state while
        # predicting, so a shared instance would not be a fair check).
        batch_pred, single_pred = factory(), factory()
        train(batch_pred)
        train(single_pred)
        subs = batch_submissions()
        batched = batch_pred.predict_batch(subs)
        singles = np.array([float(single_pred.predict(s)) for s in subs])
        assert batched.shape == (len(subs),)
        np.testing.assert_allclose(batched, singles, rtol=1e-9)

    @pytest.mark.parametrize("method", sorted(method_factories()))
    def test_untrained_batch_falls_back_to_presets(self, method):
        predictor = method_factories()[method]()
        subs = [make_submission(i, "x", 5.0, preset=1234.0) for i in range(3)]
        np.testing.assert_allclose(
            predictor.predict_batch(subs), [1234.0] * 3
        )

    def test_default_implementation_loops_over_predict(self):
        calls = []

        class Tracking(MemoryPredictor):
            name = "Tracking"

            def predict(self, task):
                calls.append(task.instance_id)
                return float(task.instance_id * 10 + 1)

        subs = [make_submission(i) for i in range(4)]
        out = Tracking().predict_batch(subs)
        assert calls == [0, 1, 2, 3]
        np.testing.assert_allclose(out, [1.0, 11.0, 21.0, 31.0])

    def test_sizey_batch_updates_diagnostics_like_singles(self):
        factory = method_factories()["Sizey"]
        batch_pred, single_pred = factory(), factory()
        train(batch_pred)
        train(single_pred)
        subs = batch_submissions()
        batch_pred.predict_batch(subs)
        for s in subs:
            single_pred.predict(s)
        assert batch_pred.selection_counts == single_pred.selection_counts
        assert batch_pred.preset_fallbacks == single_pred.preset_fallbacks
        assert set(batch_pred._pending) == set(single_pred._pending)


class TestLifecycleDefaults:
    def test_hooks_are_noops_by_default(self):
        class Minimal(MemoryPredictor):
            name = "Minimal"

            def predict(self, task):
                return 1.0

        predictor = Minimal()
        predictor.begin_trace(
            TraceContext(workflow="wf", n_tasks=1, time_to_failure=1.0)
        )
        predictor.begin_trace()  # context is optional
        predictor.end_trace()

    def test_trace_context_fields(self):
        ctx = TraceContext(workflow="wf", n_tasks=5, time_to_failure=0.5)
        assert (ctx.workflow, ctx.n_tasks, ctx.time_to_failure) == (
            "wf", 5, 0.5
        )


class TestSizingContract:
    """Every simulator sizes through ``predict_batch``; a predictor
    implements it or ``predict`` and the base class derives the other."""

    def test_predict_defaults_to_a_batch_of_one(self):
        calls = []

        class BatchOnly(MemoryPredictor):
            name = "BatchOnly"

            def predict_batch(self, tasks):
                calls.append([t.instance_id for t in tasks])
                return np.array([t.input_size_mb * 2.0 for t in tasks])

        predictor = BatchOnly()
        sub = make_submission(3, input_size=21.5)
        single = predictor.predict(sub)
        assert type(single) is float
        assert single == predictor.predict_batch([sub])[0] == 43.0
        assert calls == [[3], [3]]

    def test_implementing_neither_method_is_a_type_error(self):
        class Neither(MemoryPredictor):
            name = "Neither"

            def observe(self, record):
                pass

        with pytest.raises(TypeError, match="predict or predict_batch"):
            Neither()

    @pytest.mark.parametrize("backend", ["replay", "event"])
    def test_predict_only_predictor_runs_on_both_backends(self, backend):
        from repro.sim import OnlineSimulator
        from repro.workflow.nfcore import build_workflow_trace

        class FixedPredictor(MemoryPredictor):
            name = "Fixed"

            def predict(self, task):
                return 2048.0

        trace = build_workflow_trace("iwd", seed=0, scale=0.05)
        result = OnlineSimulator(trace, backend=backend).run(FixedPredictor())
        assert result.num_tasks == len(trace)
        assert {p.first_allocation_mb for p in result.predictions} == {2048.0}
