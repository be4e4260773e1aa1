"""Tests for the SizeyPredictor end-to-end behaviour."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import SizeyConfig
from repro.core.predictor import SizeyPredictor
from repro.provenance.records import TaskRecord
from repro.sim.interface import TaskSubmission


def sub(task="align", machine="m1", iid=0, x=100.0, preset=4096.0, ts=0):
    return TaskSubmission(
        task_type=task,
        workflow="wf",
        machine=machine,
        instance_id=iid,
        input_size_mb=x,
        preset_memory_mb=preset,
        timestamp=ts,
    )


def rec(task="align", machine="m1", ts=0, x=100.0, y=500.0, rt=0.1,
        success=True, iid=0, attempt=1):
    return TaskRecord(
        task_type=task,
        workflow="wf",
        machine=machine,
        timestamp=ts,
        input_size_mb=x,
        peak_memory_mb=y,
        runtime_hours=rt,
        success=success,
        attempt=attempt,
        instance_id=iid,
    )


def incremental_sizey(**over):
    defaults = dict(training_mode="incremental", model_classes=("linear", "knn"))
    defaults.update(over)
    return SizeyPredictor(SizeyConfig(**defaults))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"alpha": 1.1},
            {"gating": "sideways"},
            {"beta": 0.5},
            {"offset_strategy": "nope"},
            {"training_mode": "sometimes"},
            {"hpo_interval": 0},
            {"min_history": 0},
            {"granularity": "galaxy"},
            {"accuracy_mode": "vibes"},
            {"model_classes": ()},
            {"time_to_failure": 0.0},
            {"rf_refit_interval": 0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SizeyConfig(**kwargs)

    def test_defaults_match_paper(self):
        c = SizeyConfig()
        assert c.alpha == 0.0
        assert c.gating == "interpolation"
        assert c.offset_strategy == "dynamic"
        assert c.model_classes == ("linear", "knn", "mlp", "random_forest")


class TestUnknownTaskFallback:
    def test_unknown_task_uses_preset(self):
        s = incremental_sizey()
        assert s.predict(sub(preset=8192.0)) == 8192.0
        assert s.preset_fallbacks == 1

    def test_min_history_gates_models(self):
        s = incremental_sizey(min_history=3)
        for i in range(2):
            s.observe(rec(ts=i, iid=i, x=100.0 + i, y=500.0))
        assert s.predict(sub(iid=10)) == 4096.0  # still preset
        s.observe(rec(ts=2, iid=2, x=102.0, y=500.0))
        got = s.predict(sub(iid=11, x=101.0))
        assert got != 4096.0  # models now active
        assert got == pytest.approx(500.0, rel=0.3)


class TestOnlineLearning:
    def test_predictions_improve_with_history(self):
        s = incremental_sizey()
        rng = np.random.default_rng(0)
        for i in range(40):
            x = rng.uniform(10, 1000)
            s.observe(rec(ts=i, iid=i, x=x, y=3.0 * x + 100.0))
        got = s.predict(sub(iid=99, x=500.0))
        assert got == pytest.approx(1600.0, rel=0.15)

    def test_pools_keyed_by_machine_by_default(self):
        s = incremental_sizey()
        s.observe(rec(machine="m1", iid=0))
        s.observe(rec(machine="m2", iid=1, ts=1))
        assert ("align", "m1") in s.pools
        assert ("align", "m2") in s.pools

    def test_task_granularity_merges_machines(self):
        s = incremental_sizey(granularity="task")
        s.observe(rec(machine="m1", iid=0))
        s.observe(rec(machine="m2", iid=1, ts=1))
        assert list(s.pools) == [("align", "*")]
        assert s.pools[("align", "*")].n_observations == 2

    def test_failure_records_not_trained_on(self):
        s = incremental_sizey()
        s.observe(rec(iid=0, success=False, y=50.0))
        assert not s.pools  # no pool created from failures
        assert s.db.max_observed_peak("align") is None

    def test_training_times_recorded(self):
        s = incremental_sizey()
        for i in range(5):
            s.observe(rec(ts=i, iid=i))
        assert len(s.training_times_s) == 5
        assert s.median_training_time_ms() >= 0.0

    def test_median_training_time_nan_when_empty(self):
        assert np.isnan(incremental_sizey().median_training_time_ms())


class TestOffsetsAndDiagnostics:
    def test_offset_applied_after_underpredictions(self):
        s = incremental_sizey(model_classes=("knn",))
        rng = np.random.default_rng(1)
        # Constant-ish noisy task: KNN predicts ~mean, offsets must pad.
        for i in range(30):
            s.predict(sub(iid=i, x=100.0, ts=i))
            s.observe(rec(ts=i, iid=i, x=100.0, y=float(rng.uniform(900, 1100))))
        raw_key = ("align", "m1")
        off, name = s.offsets[raw_key].current_offset()
        assert off > 0.0
        final = s.predict(sub(iid=999, x=100.0))
        pp = s.pools[raw_key].predict(np.array([[100.0]]))
        assert final == pytest.approx(pp.estimate + off, rel=1e-6)

    def test_selection_counts_populated(self):
        s = incremental_sizey()
        for i in range(10):
            s.observe(rec(ts=i, iid=i, x=float(i * 10 + 10), y=float(i * 30 + 100)))
        s.predict(sub(iid=50, x=55.0))
        shares = s.model_selection_shares()
        assert shares and abs(sum(shares.values()) - 1.0) < 1e-9

    def test_raw_prediction_log_for_fig12(self):
        s = incremental_sizey()
        for i in range(8):
            s.predict(sub(iid=i, x=100.0, ts=i))
            s.observe(rec(ts=i, iid=i, x=100.0, y=500.0))
        log = s.raw_prediction_log["align"]
        # First prediction was a preset fallback (no raw entry).
        assert len(log) == 7
        ts, raw, actual = log[-1]
        assert actual == 500.0 and raw > 0

    def test_selection_shares_empty_before_predictions(self):
        assert incremental_sizey().model_selection_shares() == {}


class TestFailureHandling:
    def test_first_failure_uses_max_observed(self):
        s = incremental_sizey()
        s.observe(rec(iid=0, y=2000.0))
        got = s.on_failure(sub(iid=1), failed_allocation_mb=500.0, attempt=1)
        assert got == 2000.0

    def test_no_history_uses_preset(self):
        s = incremental_sizey()
        got = s.on_failure(sub(preset=8192.0), 500.0, attempt=1)
        assert got == 8192.0

    def test_doubling_after_first(self):
        s = incremental_sizey()
        s.observe(rec(iid=0, y=2000.0))
        got = s.on_failure(sub(iid=1), failed_allocation_mb=3000.0, attempt=2)
        assert got == 6000.0


class TestPickleMidRun:
    """A predictor pickled mid-run must continue exactly like the original.

    Model state that does not survive pickling (e.g. parameter views that
    come back as detached copies) would let the copy train one thing and
    predict from another; the two runs' estimates would then drift.
    """

    @staticmethod
    def drive(s, start, stop):
        rng = np.random.default_rng(21)
        xs = rng.uniform(100.0, 4000.0, size=stop)
        ys = 300.0 + 0.5 * xs + 1e-4 * xs * xs + rng.normal(0.0, 80.0, size=stop)
        out = []
        for i in range(start, stop):
            task = "align" if i % 4 else "sort"
            batch = [sub(task, iid=i, x=xs[i], ts=i), sub(task, iid=-1 - i, x=2 * xs[i], ts=i)]
            out.append(s.predict_batch(batch).tolist())
            s.observe(rec(task, ts=i, iid=i, x=xs[i], y=ys[i], rt=0.05 + i % 3 * 0.1))
        return out

    @pytest.mark.parametrize(
        # Incremental: the busy pool slides its MLP window and refits the
        # forest after the pickle; full: an HPO round (update 25) follows.
        "mode, mid, stop", [("incremental", 70, 100), ("full", 20, 36)]
    )
    def test_copy_continues_identically(self, mode, mid, stop):
        s = SizeyPredictor(SizeyConfig(training_mode=mode))
        self.drive(s, 0, mid)
        copy = pickle.loads(pickle.dumps(s))
        resumed = self.drive(copy, mid, stop)
        assert resumed == self.drive(s, mid, stop)
        assert all(len(pool._active) == 4 for pool in copy.pools.values())


_MASKED_ARRAY_SCRIPT = """
import sys
from repro.experiments.factories import make_sizey
from repro.sim.engine import OnlineSimulator
from repro.workflow.nfcore import build_workflow_trace

trace = build_workflow_trace("iwd", seed=0, scale=0.05)
result = OnlineSimulator(trace, backend="replay").run(make_sizey())
assert result.num_tasks == len(trace)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


class TestSizingPathImports:
    def test_sizey_never_loads_numpy_ma(self):
        # np.median imports numpy.ma.core and numpy.ma.extras on its
        # first call (~1.8 MB of peak RSS); the offset statistics run
        # the reductions it wraps instead.
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _MASKED_ARRAY_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
