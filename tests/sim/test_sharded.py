"""Sharded grid runner: partitioning, determinism, conservation, merge.

Sharding changes *contention* (each shard queues on its own sub-cluster)
but must never lose or duplicate work: every task lands in exactly one
shard with its unsharded arrival time, the cluster is dealt node-by-node,
and the merged summary's conserved quantities (task counts, instance
counts, node counts) match the unsharded run exactly.
"""

import pytest

from repro.experiments.factories import method_factories
from repro.sim.results import summary_to_dict
from repro.sim.runner import partition_cluster, run_cell, run_sharded
from repro.workflow.nfcore import build_workflow_trace

from tests.sim.test_golden_regression import SCENARIOS


def scenario_inputs(name):
    """(trace, factory, cell kwargs) for a golden scenario, run_sharded style."""
    spec = SCENARIOS[name]
    trace = build_workflow_trace(
        spec["workflow"], seed=spec["trace_seed"], scale=spec["scale"]
    )
    factory = method_factories()[spec["method"]]
    return trace, factory, spec


class TestPartitionCluster:
    def test_round_robin_deal(self):
        # Nodes in spec order: 4g,4g,4g,6g,6g — dealt mod 2.
        assert partition_cluster("4g:3,6g:2", 2) == ["4g:2,6g:1", "4g:1,6g:1"]

    def test_single_shard_identity(self):
        assert partition_cluster("4g:1,6g:1", 1) == ["4g:1,6g:1"]

    def test_every_shard_gets_a_node(self):
        specs = partition_cluster("8g:5", 5)
        assert specs == ["8g:1"] * 5

    def test_fewer_nodes_than_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            partition_cluster("8g:2", 3)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            partition_cluster("notaspec", 2)


class TestShardedFlat:
    NAME = "flat_event_pr2"

    def test_task_conservation_and_determinism(self):
        trace, factory, spec = scenario_inputs(self.NAME)
        kwargs = dict(
            shards=2,
            time_to_failure=spec["sim"]["time_to_failure"],
            cluster=spec["sim"]["cluster"],
            placement=spec["sim"]["placement"],
            backend="event",
            n_workers=1,
        )
        # The sharded backend re-derives arrivals from the same spec, so
        # thread the golden backend kwargs through a configured backend.
        from repro.sim.backends.event import EventDrivenBackend

        kwargs["backend"] = EventDrivenBackend(**spec["backend"])
        first = run_sharded(trace, factory, **kwargs)
        second = run_sharded(trace, factory, **kwargs)

        unsharded = run_cell(
            workload=trace,
            factory=factory,
            backend=EventDrivenBackend(**spec["backend"]),
            time_to_failure=spec["sim"]["time_to_failure"],
            cluster=spec["sim"]["cluster"],
            placement=spec["sim"]["placement"],
        )
        assert first.summary.n_tasks == unsharded.num_tasks
        assert first.summary.n_nodes == 2
        assert summary_to_dict(first.summary) == summary_to_dict(
            second.summary
        )

    def test_an_unsized_jsonl_source_shards_like_its_trace(self, tmp_path):
        # A JSONL trace at full scale cannot report its length; the flat
        # driver materializes it, so it shards like the trace it holds.
        from repro.sim.backends.event import EventDrivenBackend
        from repro.workflow.io import save_trace_jsonl
        from repro.workload.tracefile import TraceFileSource

        trace, factory, spec = scenario_inputs(self.NAME)
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(trace, path)
        assert TraceFileSource(path).n_tasks is None
        summaries = [
            summary_to_dict(
                run_sharded(
                    workload,
                    factory,
                    shards=2,
                    time_to_failure=spec["sim"]["time_to_failure"],
                    cluster=spec["sim"]["cluster"],
                    placement=spec["sim"]["placement"],
                    backend=EventDrivenBackend(**spec["backend"]),
                    n_workers=1,
                ).summary
            )
            for workload in (TraceFileSource(path), trace)
        ]
        assert summaries[0] == summaries[1]
        assert summaries[0]["tasks"]["n_tasks"] == len(trace)

    def test_single_shard_equals_streaming_run(self):
        """shards=1 is exactly the unsharded streaming run."""
        from repro.sim.backends.event import EventDrivenBackend
        from repro.sim.engine import OnlineSimulator

        trace, factory, spec = scenario_inputs(self.NAME)
        sharded = run_sharded(
            trace,
            factory,
            shards=1,
            time_to_failure=spec["sim"]["time_to_failure"],
            cluster=spec["sim"]["cluster"],
            placement=spec["sim"]["placement"],
            backend=EventDrivenBackend(**spec["backend"]),
        )
        plain = OnlineSimulator(
            trace,
            backend=EventDrivenBackend(**spec["backend"]),
            stream_collectors=True,
            **spec["sim"],
        ).run(factory())
        assert summary_to_dict(sharded.summary) == summary_to_dict(
            plain.summary
        )


class TestShardedDag:
    NAME = "dag_engine_pr3"

    def run_sharded_dag(self, n_workers):
        from repro.sim.backends.event import EventDrivenBackend

        trace, factory, spec = scenario_inputs(self.NAME)
        bk = spec["backend"]
        return run_sharded(
            trace,
            factory,
            shards=2,
            time_to_failure=spec["sim"]["time_to_failure"],
            cluster=spec["sim"]["cluster"],
            placement=spec["sim"]["placement"],
            backend=EventDrivenBackend(
                seed=bk["seed"],
                dag=bk["dag"],
                workflow_arrival=bk["workflow_arrival"],
            ),
            n_workers=n_workers,
        )

    def test_instances_partitioned_and_conserved(self):
        res = self.run_sharded_dag(n_workers=1)
        s = res.summary
        assert s.n_workflow_instances == 3  # 2 + 1 across the two shards
        trace, _, _ = scenario_inputs(self.NAME)
        assert s.n_tasks == 3 * len(trace)
        assert s.n_nodes == 2

    def test_multiprocess_equals_sequential(self):
        """Worker processes change nothing: merge is order-independent
        for counters and deterministic for sketches (fixed shard order)."""
        seq = self.run_sharded_dag(n_workers=1)
        par = self.run_sharded_dag(n_workers=2)
        assert summary_to_dict(seq.summary) == summary_to_dict(par.summary)

    def test_merged_result_is_summary_only(self):
        res = self.run_sharded_dag(n_workers=1)
        assert res.cluster is None
        assert res.workflows is None
        assert res.predictions == []
        # Ledger-backed properties still work off the merged counters.
        assert res.total_wastage_gbh == pytest.approx(
            res.summary.total_wastage_gbh
        )
        assert res.num_failures == res.summary.n_failures

    def test_merged_failure_distribution(self):
        # Fig. 8c data survives the merge: one entry per task type, from
        # the merged ledger, even though shards keep no prediction logs.
        res = self.run_sharded_dag(n_workers=1)
        trace, _, _ = scenario_inputs(self.NAME)
        distribution = res.failure_distribution()
        assert len(distribution) == len(trace.task_types)
        assert distribution.sum() == res.num_failures > 0

    def test_merged_quantiles_monotone(self):
        s = self.run_sharded_dag(n_workers=1).summary
        for sketch in (s.wastage_sketch, s.queue_wait_sketch):
            qs = [sketch.quantile(q) for q in (0.5, 0.9, 0.95, 0.99)]
            assert qs == sorted(qs)


class TestShardedGuards:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("node_outage", "0.1:1:0"),
            ("spill", "run.jsonl"),
            ("trace", "run.json"),
        ],
    )
    def test_backend_fields_that_cannot_split_are_refused(
        self, tmp_path, monkeypatch, field, value
    ):
        # A spill or trace file names one file, which every shard would
        # overwrite; a node id names a node of the whole cluster, while
        # each shard numbers its own sub-cluster from 0.
        from repro.errors import ConfigError
        from repro.sim.backends.event import EventDrivenBackend

        def no_shard(*args, **kwargs):
            raise AssertionError("a refused fan-out must start no shard")

        monkeypatch.setattr("repro.sim.runner._run_shard", no_shard)
        if field != "node_outage":
            value = str(tmp_path / value)
        with pytest.raises(ConfigError, match=field):
            run_sharded(
                build_workflow_trace("iwd", seed=0, scale=0.05),
                method_factories()["Witt-LR"],
                shards=2,
                backend=EventDrivenBackend(**{field: value}),
                cluster="64g:4",
                n_workers=1,
            )
        assert not list(tmp_path.iterdir())

    def test_requires_workload_and_factory(self):
        with pytest.raises(TypeError, match="factory"):
            run_sharded("synthetic:iwd", shards=2)

    @pytest.mark.parametrize("shards", [0, -1])
    def test_shard_count_checked_where_it_enters(self, shards):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="shards must be >= 1"):
            run_cell(
                "synthetic:iwd",
                method_factories()["Witt-LR"],
                backend="event",
                shards=shards,
            )

    def test_spill_dir_writes_per_shard_files(self, tmp_path):
        from repro.sim.backends.event import EventDrivenBackend

        trace, factory, spec = scenario_inputs("flat_event_pr2")
        run_sharded(
            trace,
            factory,
            shards=2,
            time_to_failure=spec["sim"]["time_to_failure"],
            cluster=spec["sim"]["cluster"],
            placement=spec["sim"]["placement"],
            backend=EventDrivenBackend(**spec["backend"]),
            n_workers=1,
            spill_dir=str(tmp_path),
        )
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["shard-0.jsonl", "shard-1.jsonl"]
        total = sum(
            len(p.read_text().splitlines()) for p in tmp_path.iterdir()
        )
        assert total == len(trace)
