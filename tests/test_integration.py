"""End-to-end integration tests: the full stack on real (synthetic) traces."""

import numpy as np
import pytest

from repro import SizeyConfig, SizeyPredictor
from repro.baselines import WorkflowPresets
from repro.experiments.factories import method_factories
from repro.sim import OnlineSimulator, run_grid
from repro.workflow.nfcore import WORKFLOW_NAMES, build_workflow_trace


class TestEndToEnd:
    @pytest.mark.parametrize("workflow", WORKFLOW_NAMES)
    def test_sizey_runs_clean_on_every_workflow(self, workflow):
        trace = build_workflow_trace(workflow, seed=1, scale=0.05)
        sizey = SizeyPredictor(SizeyConfig(training_mode="incremental"))
        res = OnlineSimulator(trace).run(sizey)
        assert res.num_tasks == len(trace)
        assert np.isfinite(res.total_wastage_gbh)
        # Online learning happened for every completed task.
        assert len(sizey.training_times_s) == res.num_tasks + res.num_failures * 0

    def test_sizey_beats_presets_on_scaled_rnaseq(self):
        trace = build_workflow_trace("rnaseq", seed=2, scale=0.25)
        sizey = OnlineSimulator(trace).run(
            SizeyPredictor(SizeyConfig(training_mode="incremental"))
        )
        presets = OnlineSimulator(trace).run(WorkflowPresets())
        assert sizey.total_wastage_gbh < presets.total_wastage_gbh
        assert presets.num_failures == 0

    def test_full_and_incremental_agree_on_magnitude(self):
        trace = build_workflow_trace("iwd", seed=3, scale=0.1)
        full = OnlineSimulator(trace).run(
            SizeyPredictor(SizeyConfig(training_mode="full"))
        )
        inc = OnlineSimulator(trace).run(
            SizeyPredictor(SizeyConfig(training_mode="incremental"))
        )
        ratio = inc.total_wastage_gbh / full.total_wastage_gbh
        assert 0.25 < ratio < 4.0

    def test_grid_runner_serial_matches_parallel(self):
        traces = {"iwd": build_workflow_trace("iwd", seed=4, scale=0.05)}
        factories = {
            m: f
            for m, f in method_factories().items()
            if m in ("Witt-Percentile", "Workflow-Presets")
        }
        serial = run_grid(traces, factories, n_workers=1)
        parallel = run_grid(traces, factories, n_workers=2)
        for m in factories:
            assert serial[m]["iwd"].total_wastage_gbh == pytest.approx(
                parallel[m]["iwd"].total_wastage_gbh
            )

    def test_deterministic_replay(self):
        trace = build_workflow_trace("chipseq", seed=5, scale=0.05)

        def run_once():
            return OnlineSimulator(trace).run(
                SizeyPredictor(SizeyConfig(training_mode="incremental"))
            )

        a, b = run_once(), run_once()
        assert a.total_wastage_gbh == pytest.approx(b.total_wastage_gbh)
        assert a.num_failures == b.num_failures

