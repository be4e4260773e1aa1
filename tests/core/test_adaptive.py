"""Tests for the adaptive-alpha extension (paper future work, §III-E)."""

from collections import Counter

import numpy as np
import pytest

from repro.core.adaptive import DEFAULT_ALPHA_CANDIDATES, AdaptiveAlphaSizey
from repro.core.config import SizeyConfig
from repro.core.predictor import SizeyPredictor
from repro.provenance.records import TaskRecord
from repro.sim import EventDrivenBackend, result_to_dict
from repro.sim.engine import OnlineSimulator
from repro.sim.interface import TaskSubmission
from repro.workflow.nfcore import build_workflow_trace


def sub(iid=0, x=100.0, task="t", preset=4096.0):
    return TaskSubmission(
        task_type=task,
        workflow="wf",
        machine="m1",
        instance_id=iid,
        input_size_mb=x,
        preset_memory_mb=preset,
        timestamp=iid,
    )


def rec(iid=0, x=100.0, y=500.0, task="t", success=True):
    return TaskRecord(
        task_type=task,
        workflow="wf",
        machine="m1",
        timestamp=iid,
        input_size_mb=x,
        peak_memory_mb=y,
        runtime_hours=0.1,
        success=success,
        instance_id=iid,
    )


def make_adaptive(**cfg):
    defaults = dict(training_mode="incremental", model_classes=("linear", "knn"))
    defaults.update(cfg)
    return AdaptiveAlphaSizey(SizeyConfig(**defaults))


class TestAdaptiveAlpha:
    def test_rejects_bad_candidates(self):
        with pytest.raises(ValueError, match="alpha candidates"):
            AdaptiveAlphaSizey(alpha_candidates=(0.0, 1.5))
        with pytest.raises(ValueError, match="alpha candidates"):
            AdaptiveAlphaSizey(alpha_candidates=())

    def test_default_candidates(self):
        assert AdaptiveAlphaSizey().alpha_candidates == DEFAULT_ALPHA_CANDIDATES

    def test_unknown_task_uses_preset(self):
        a = make_adaptive()
        assert a.predict(sub(preset=2048.0)) == 2048.0

    def test_tracks_per_candidate_waste(self):
        a = make_adaptive()
        for i in range(10):
            a.predict(sub(iid=i, x=100.0 + i))
            a.observe(rec(iid=i, x=100.0 + i, y=500.0))
        key = ("t", "m1")
        waste = a._alpha_waste[key]
        assert waste.shape == (len(DEFAULT_ALPHA_CANDIDATES),)
        assert np.all(waste >= 0.0)

    def test_alpha_choice_recorded(self):
        a = make_adaptive()
        for i in range(6):
            a.predict(sub(iid=i))
            a.observe(rec(iid=i))
        assert len(a.alpha_choices["t"]) >= 5
        assert all(c in DEFAULT_ALPHA_CANDIDATES for c in a.alpha_choices["t"])

    def test_current_alpha_minimises_accumulated_waste(self):
        a = make_adaptive()
        key = ("t", "m1")
        a._alpha_waste[key] = np.array([5.0, 1.0, 9.0, 9.0, 9.0])
        assert a.current_alpha(key) == DEFAULT_ALPHA_CANDIDATES[1]

    def test_end_to_end_on_trace(self):
        trace = build_workflow_trace("iwd", seed=2, scale=0.15)
        res = OnlineSimulator(trace).run(AdaptiveAlphaSizey())
        assert res.method == "Sizey-AdaptiveAlpha"
        assert res.total_wastage_gbh > 0
        assert res.num_tasks == len(trace)


class TestOneSizingPath:
    """Both backends size through ``predict_batch``, so the alpha switch
    runs on each (iwd, scale 0.2, trace seed 0)."""

    @pytest.fixture(scope="class")
    def trace(self):
        return build_workflow_trace("iwd", seed=0, scale=0.2)

    def test_event_backend_switches_alpha(self, trace):
        # Staggered arrivals let completions teach the pools before
        # later tasks are sized; with the whole trace submitted at t = 0
        # every choice is the first candidate, Sizey's own alpha of 0.
        backend = EventDrivenBackend(arrival="fixed:0.002")
        adaptive = AdaptiveAlphaSizey()
        switched = OnlineSimulator(trace, backend=backend).run(adaptive)
        plain = OnlineSimulator(trace, backend=backend).run(
            SizeyPredictor(SizeyConfig(training_mode="incremental"))
        )
        choices = [a for per_type in adaptive.alpha_choices.values()
                   for a in per_type]
        assert len(choices) > 0 and set(choices) != {0.0}
        assert result_to_dict(switched)["predictions"] != (
            result_to_dict(plain)["predictions"]
        )

    def test_replay_result_unchanged(self, trace):
        # Recorded on the kernel's serial replay; exact, so a sizing
        # change that moves any estimate or alpha choice shows here.
        adaptive = AdaptiveAlphaSizey()
        res = OnlineSimulator(trace, backend="replay").run(adaptive)
        assert res.total_wastage_gbh == 0.7488054034017418
        assert res.num_failures == 46
        choices = Counter(
            a for per_type in adaptive.alpha_choices.values() for a in per_type
        )
        assert dict(choices) == {0.0: 213, 0.25: 53, 0.75: 2, 1.0: 59}
