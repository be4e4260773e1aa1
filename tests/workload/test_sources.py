"""Tests for the workload-source layer (protocol, registry, adapters)."""

import pickle

import pytest

from repro.sim.engine import OnlineSimulator
from repro.sim.results import result_to_dict
from repro.workflow.io import (
    TraceFormatError,
    save_trace,
    save_trace_jsonl,
)
from repro.workflow.nfcore import build_workflow_spec, build_workflow_trace
from repro.workflow.task import TaskInstance, TaskType, WorkflowTrace
from repro.workload import (
    NfCoreSource,
    SyntheticSource,
    TraceFileSource,
    TraceSource,
    WfCommonsSource,
    WorkloadSource,
    as_source,
    parse_workload,
    register_workload,
    workload_schemes,
)


@pytest.fixture
def small_trace():
    return build_workflow_trace("iwd", seed=3, scale=0.05)


class TestProtocolAndRegistry:
    def test_builtin_schemes_registered(self):
        schemes = workload_schemes()
        for scheme in ("synthetic", "nfcore", "trace", "wfcommons"):
            assert scheme in schemes

    def test_all_adapters_satisfy_protocol(self, small_trace, tmp_path):
        path = tmp_path / "t.json"
        save_trace(small_trace, path)
        sources = [
            TraceSource(small_trace),
            NfCoreSource("iwd", seed=3, scale=0.05),
            SyntheticSource(build_workflow_spec("iwd"), seed=3, scale=0.05),
            TraceFileSource(path),
        ]
        for source in sources:
            assert isinstance(source, WorkloadSource)
            assert source.workflow == "iwd"
            assert source.n_tasks == len(small_trace)
            assert sum(1 for _ in source.iter_tasks()) == len(small_trace)
            traces = list(source.iter_traces())
            assert len(traces) == 1 and len(traces[0]) == len(small_trace)

    def test_parse_workload_specs(self):
        assert isinstance(parse_workload("synthetic:iwd"), NfCoreSource)
        assert isinstance(parse_workload("nfcore:iwd"), NfCoreSource)
        # A bare workflow name is shorthand for synthetic:<name>.
        assert isinstance(parse_workload("iwd"), NfCoreSource)

    def test_synthetic_name_is_canonical_across_aliases(self):
        # The CLI prints source.name; every alias labels identically.
        for spec in ("synthetic:iwd", "nfcore:iwd", "iwd"):
            assert parse_workload(spec).name == "synthetic:iwd"

    def test_parse_workload_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown workload scheme"):
            parse_workload("carrier-pigeon:iwd")

    def test_parse_workload_rejects_missing_argument(self):
        with pytest.raises(ValueError, match="missing its argument"):
            parse_workload("synthetic:")

    def test_register_custom_scheme(self, small_trace):
        register_workload(
            "test-fixed", lambda arg, seed, scale: TraceSource(small_trace)
        )
        try:
            src = parse_workload("test-fixed:whatever")
            assert src.workflow == "iwd"
        finally:
            from repro.workload.base import _SCHEMES

            _SCHEMES.pop("test-fixed", None)

    def test_as_source_accepts_everything(self, small_trace):
        assert as_source(small_trace).trace() is small_trace
        src = NfCoreSource("iwd")
        assert as_source(src) is src
        assert as_source("synthetic:iwd").workflow == "iwd"
        with pytest.raises(TypeError, match="workload must be"):
            as_source(42)


class TestSyntheticSource:
    def test_bit_for_bit_identical_to_direct_helper(self, small_trace):
        src = NfCoreSource("iwd", seed=3, scale=0.05)
        produced = src.trace()
        assert len(produced) == len(small_trace)
        for a, b in zip(produced, small_trace):
            assert a == b  # frozen dataclasses: full field equality

    def test_trace_is_cached(self):
        src = NfCoreSource("iwd", seed=0, scale=0.05)
        assert src.trace() is src.trace()

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            NfCoreSource("iwd", scale=0.0)

    def test_rejects_unknown_workflow(self):
        with pytest.raises(ValueError, match="unknown workflow"):
            NfCoreSource("nope")

    def test_pickle_drops_cache(self):
        src = NfCoreSource("iwd", seed=3, scale=0.05)
        trace = src.trace()
        clone = pickle.loads(pickle.dumps(src))
        assert clone._trace is None
        regenerated = clone.trace()
        assert len(regenerated) == len(trace)
        assert all(a == b for a, b in zip(regenerated, trace))


class TestTraceFileSource:
    def test_json_file_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "t.json"
        save_trace(small_trace, path)
        src = TraceFileSource(path)
        assert not src.streaming
        assert src.n_tasks == len(small_trace)
        assert all(a == b for a, b in zip(src.iter_tasks(), small_trace))

    def test_jsonl_streams_without_materializing(self, small_trace, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace_jsonl(small_trace, path)
        src = TraceFileSource(path)
        assert src.streaming
        assert src.n_tasks is None  # unknown until exhausted
        streamed = list(src.iter_tasks())
        assert len(streamed) == len(small_trace)
        assert all(a == b for a, b in zip(streamed, small_trace))
        # workflow name comes from the header without a full parse
        assert src.workflow == "iwd"

    def test_jsonl_replay_matches_json_replay(self, small_trace, tmp_path):
        from repro.baselines import WorkflowPresets

        json_path = tmp_path / "t.json"
        jsonl_path = tmp_path / "t.jsonl"
        save_trace(small_trace, json_path)
        save_trace_jsonl(small_trace, jsonl_path)
        a = OnlineSimulator(workload=f"trace:{json_path}").run(
            WorkflowPresets()
        )
        b = OnlineSimulator(workload=f"trace:{jsonl_path}").run(
            WorkflowPresets()
        )
        assert result_to_dict(a) == result_to_dict(b)

    def test_scaled_source_subsamples(self, small_trace, tmp_path):
        path = tmp_path / "t.json"
        save_trace(small_trace, path)
        src = TraceFileSource(path, seed=0, scale=0.5)
        assert src.n_tasks < len(small_trace)

    def test_missing_file_fails_eagerly(self, tmp_path):
        with pytest.raises(TraceFormatError, match="does not exist"):
            TraceFileSource(tmp_path / "ghost.json")


class TestOnlineSimulatorWorkloads:
    def test_workload_keyword_and_trace_positional_agree(self, small_trace):
        from repro.baselines import WorkflowPresets

        a = OnlineSimulator(small_trace).run(WorkflowPresets())
        b = OnlineSimulator(workload=TraceSource(small_trace)).run(
            WorkflowPresets()
        )
        c = OnlineSimulator(workload="synthetic:iwd").run(WorkflowPresets())
        assert result_to_dict(a) == result_to_dict(b)
        # The spec uses seed=0/scale=1, a different trace than the
        # fixture — but the same machinery; just sanity-check it ran.
        assert c.num_tasks > 0

    def test_requires_exactly_one_workload(self, small_trace):
        with pytest.raises(TypeError):
            OnlineSimulator()
        with pytest.raises(TypeError):
            OnlineSimulator(small_trace, workload="synthetic:iwd")

    def test_source_trace_materializes(self):
        sim = OnlineSimulator(workload=NfCoreSource("iwd", scale=0.05))
        assert sim.source.trace().workflow == "iwd"

    def test_event_backend_streams_jsonl(self, small_trace, tmp_path):
        """A streaming source runs through the kernel's times() path and
        matches the sized source bit-for-bit (same Poisson schedule)."""
        from repro.baselines import WorkflowPresets
        from repro.sim.backends import EventDrivenBackend

        path = tmp_path / "t.jsonl"
        save_trace_jsonl(small_trace, path)
        streamed = OnlineSimulator(
            workload=TraceFileSource(path),
            backend=EventDrivenBackend(arrival="poisson:600", seed=7),
            cluster="4g:1,6g:1",
            placement="best-fit",
            time_to_failure=0.7,
        ).run(WorkflowPresets())
        sized = OnlineSimulator(
            small_trace,
            backend=EventDrivenBackend(arrival="poisson:600", seed=7),
            cluster="4g:1,6g:1",
            placement="best-fit",
            time_to_failure=0.7,
        ).run(WorkflowPresets())
        assert result_to_dict(streamed) == result_to_dict(sized)


class TestRunnerWorkloads:
    def test_run_cell_workload_spec(self):
        from repro.experiments.factories import method_factories
        from repro.sim.runner import run_cell

        res = run_cell(
            workload="synthetic:iwd",
            factory=method_factories()["Workflow-Presets"],
        )
        assert res.workflow == "iwd"
        assert res.num_tasks > 0

    def test_run_cell_rejects_both_or_neither(self, small_trace):
        from repro.experiments.factories import method_factories
        from repro.sim.runner import run_cell

        factory = method_factories()["Workflow-Presets"]
        with pytest.raises(TypeError):
            run_cell(small_trace, factory, workload="synthetic:iwd")
        with pytest.raises(TypeError):
            run_cell(factory=factory)

    def test_run_grid_workloads_mapping(self, small_trace, tmp_path):
        from repro.experiments.factories import method_factories
        from repro.sim.runner import run_grid

        path = tmp_path / "t.json"
        save_trace(small_trace, path)
        factories = {
            "Workflow-Presets": method_factories()["Workflow-Presets"]
        }
        results = run_grid(
            factories=factories,
            workloads={
                "from-file": f"trace:{path}",
                "in-memory": small_trace,
            },
        )
        a = results["Workflow-Presets"]["from-file"]
        b = results["Workflow-Presets"]["in-memory"]
        assert result_to_dict(a) == result_to_dict(b)

    def test_run_grid_workload_specs_across_processes(
        self, small_trace, tmp_path
    ):
        from repro.experiments.factories import method_factories
        from repro.sim.runner import run_grid

        path = tmp_path / "t.json"
        save_trace(small_trace, path)
        factories = {
            "Workflow-Presets": method_factories()["Workflow-Presets"]
        }
        serial = run_grid(
            factories=factories, workloads={"f": f"trace:{path}"}
        )
        parallel = run_grid(
            factories=factories,
            workloads={"f": f"trace:{path}"},
            n_workers=2,
        )
        assert result_to_dict(serial["Workflow-Presets"]["f"]) == (
            result_to_dict(parallel["Workflow-Presets"]["f"])
        )

    def test_run_grid_rejects_both_mappings(self, small_trace):
        from repro.experiments.factories import method_factories
        from repro.sim.runner import run_grid

        factories = {
            "Workflow-Presets": method_factories()["Workflow-Presets"]
        }
        with pytest.raises(TypeError):
            run_grid(
                {"t": small_trace},
                factories,
                workloads={"t": small_trace},
            )


class TestDagModeWithSources:
    def test_dag_simulation_from_source_matches_trace(self, small_trace):
        from repro.baselines import WorkflowPresets
        from repro.sim.backends import EventDrivenBackend

        def run(workload):
            return OnlineSimulator(
                workload=workload,
                backend=EventDrivenBackend(
                    dag="trace", workflow_arrival="2@fixed:0.05", seed=2
                ),
                cluster="4g:2",
            ).run(WorkflowPresets())

        assert result_to_dict(run(small_trace)) == result_to_dict(
            run(TraceSource(small_trace))
        )

    def test_wfcommons_source_runs_dag_mode(self, small_trace, tmp_path):
        import json

        from repro.baselines import WorkflowPresets
        from repro.sim.backends import EventDrivenBackend
        from repro.workload import trace_to_wfcommons

        path = tmp_path / "wf.json"
        path.write_text(json.dumps(trace_to_wfcommons(small_trace)))
        res = OnlineSimulator(
            workload=WfCommonsSource(path),
            backend=EventDrivenBackend(
                dag="trace", workflow_arrival="2@fixed:0.05", seed=2
            ),
            cluster="64g:2",
        ).run(WorkflowPresets())
        assert res.workflows is not None
        assert res.workflows.n_instances == 2
        assert res.num_tasks == 2 * len(small_trace)
