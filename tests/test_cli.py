"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--workflow", "iwd"])
        args_d = vars(args)
        assert args_d["method"] == "Sizey"
        assert args_d["scale"] == 1.0
        assert args_d["ttf"] == 1.0

    def test_rejects_unknown_workflow(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--workflow", "nope"])

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--only", "fig99"])

    def test_backend_defaults_to_replay(self):
        args = build_parser().parse_args(["simulate", "--workflow", "iwd"])
        assert vars(args)["backend"] == "replay"

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workflow", "iwd", "--backend", "nope"]
            )

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_cluster_options_default_off(self):
        args = build_parser().parse_args(["simulate", "--workflow", "iwd"])
        assert args.cluster is None
        assert args.placement == "first-fit"
        assert args.arrival is None

    def test_rejects_bad_cluster_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workflow", "iwd", "--cluster", "lots:4"]
            )

    def test_rejects_bad_arrival_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workflow", "iwd", "--arrival", "fractal:2"]
            )

    def test_rejects_unknown_placement(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workflow", "iwd", "--placement", "psychic"]
            )

    def test_arrival_requires_event_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd",
                  "--arrival", "poisson:0.5"])
        assert "--backend event" in capsys.readouterr().err

    def test_dag_options_default_off(self):
        args = build_parser().parse_args(["simulate", "--workflow", "iwd"])
        assert args.dag is None
        assert args.workflow_arrival is None

    def test_rejects_bad_workflow_arrival_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workflow", "iwd",
                 "--workflow-arrival", "many@often"]
            )

    def test_rejects_unknown_dag_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workflow", "iwd", "--dag", "spaghetti"]
            )

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--arrival", "fixed:inf"),
            ("--arrival", "fixed:nan"),
            ("--arrival", "poisson:nan"),
            ("--arrival", "bursty:2xinf"),
            ("--arrival", "bursty:2xnan"),
            ("--node-outage", "nan:0.1:0"),
            ("--workflow-arrival", "2@fixed:nan"),
            ("--cluster", "nang:2"),
            ("--cluster", "infg:2"),
            ("--stop-after", "nan"),
            ("--stop-after", "inf"),
            ("--checkpoint-every", "nan"),
        ],
    )
    def test_rejects_non_finite_numbers(self, capsys, flag, value):
        # Parsed only: a run with one of these used to loop forever or
        # print NaN-sized nodes.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["simulate", "--workflow", "iwd", "--backend", "event",
                 f"{flag}={value}"]
            )
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_dag_requires_event_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--dag", "trace"])
        assert "--backend event" in capsys.readouterr().err

    def test_workflow_arrival_conflicts_with_task_arrival(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--backend", "event",
                  "--workflow-arrival", "2", "--arrival", "poisson:0.5"])
        assert "replaces per-task arrivals" in capsys.readouterr().err

    def test_dag_conflicts_with_task_arrival(self, capsys):
        # --dag must not be silently dropped in favour of --arrival.
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--backend", "event",
                  "--dag", "linear", "--arrival", "poisson:5"])
        assert "replaces per-task arrivals" in capsys.readouterr().err


class TestCommands:
    def test_simulate_prints_metrics(self, capsys):
        rc = main(
            ["simulate", "--workflow", "iwd", "--method", "Workflow-Presets",
             "--scale", "0.05"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "wastage GBh" in out
        assert "failures" in out

    def test_trace_writes_json_and_csv(self, tmp_path, capsys):
        out_json = tmp_path / "t.json"
        out_csv = tmp_path / "t.csv"
        rc = main(
            ["trace", "--workflow", "iwd", "--scale", "0.05",
             "--out", str(out_json), "--csv", str(out_csv)]
        )
        assert rc == 0
        data = json.loads(out_json.read_text())
        assert data["workflow"] == "iwd"
        assert out_csv.exists()
        assert "wrote JSON trace" in capsys.readouterr().out

    def test_compare_renders_all_methods(self, capsys):
        rc = main(
            ["compare", "--workflows", "iwd", "--scale", "0.05"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        for m in ("Sizey", "Witt-Wastage", "Workflow-Presets"):
            assert m in out

    def test_simulate_event_backend_prints_cluster_metrics(self, capsys):
        rc = main(
            ["simulate", "--workflow", "iwd", "--method", "Workflow-Presets",
             "--scale", "0.05", "--backend", "event"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "makespan h" in out
        assert "mean queue wait h" in out
        assert "mean node utilization" in out

    def test_compare_event_backend_end_to_end(self, capsys):
        rc = main(
            ["compare", "--workflows", "iwd", "--scale", "0.05",
             "--backend", "event"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "makespan h" in out
        assert "backend=event" in out

    def test_compare_fixed_arrivals(self, capsys):
        # '--arrival fixed:H' is the spelling of a fixed submission gap.
        rc = main(
            ["compare", "--workflows", "iwd", "--scale", "0.05",
             "--backend", "event", "--arrival", "fixed:0.05"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "makespan h" in out

    def test_figures_single_artifact(self, capsys):
        rc = main(["figures", "--only", "table1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table I" in out

    def test_simulate_heterogeneous_cluster_end_to_end(self, capsys):
        rc = main(
            ["simulate", "--workflow", "iwd", "--method", "Workflow-Presets",
             "--scale", "0.05", "--backend", "event",
             "--cluster", "128g:4,256g:4", "--placement", "best-fit",
             "--arrival", "poisson:0.5"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        # Per-node utilization labelled with each node's own capacity.
        assert "node 0 utilization (128G)" in out
        assert "node 4 utilization (256G)" in out

    def test_compare_heterogeneous_cluster(self, capsys):
        rc = main(
            ["compare", "--workflows", "iwd", "--scale", "0.05",
             "--backend", "event", "--cluster", "64g:2,128g:2",
             "--placement", "worst-fit"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "makespan h" in out

    def test_simulate_dag_prints_per_workflow_rows(self, capsys):
        rc = main(
            ["simulate", "--workflow", "iwd", "--method", "Workflow-Presets",
             "--scale", "0.05", "--backend", "event", "--dag", "trace",
             "--workflow-arrival", "2@fixed:0.5",
             "--cluster", "64g:2,128g:2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "workflow instances" in out
        assert "mean stretch" in out
        assert "per-workflow-instance metrics" in out
        assert "iwd#0" in out and "iwd#1" in out
        assert "user0" in out and "user1" in out

    def test_simulate_dag_without_workflow_arrival(self, capsys):
        rc = main(
            ["simulate", "--workflow", "iwd", "--method", "Workflow-Presets",
             "--scale", "0.05", "--backend", "event", "--dag", "linear"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "iwd#0" in out

    def test_compare_dag_adds_stretch_column(self, capsys):
        rc = main(
            ["compare", "--workflows", "iwd", "--scale", "0.05",
             "--backend", "event", "--dag", "trace",
             "--workflow-arrival", "2", "--cluster", "64g:2,128g:2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean wf makespan h" in out
        assert "mean stretch" in out


class TestWorkloadOption:
    def test_simulate_requires_some_workload(self, capsys):
        # Enforced in validation rather than at parse time, so --resume
        # can restore the workload from a checkpoint instead.
        with pytest.raises(SystemExit):
            main(["simulate", "--method", "Sizey"])

    def test_workflow_and_workload_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workflow", "iwd",
                 "--workload", "synthetic:iwd"]
            )

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workload", "carrier-pigeon:x"]
            )

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--workload", f"trace:{tmp_path}/ghost.json"]
            )

    def test_simulate_workload_synthetic_matches_workflow_alias(self, capsys):
        rc = main(
            ["simulate", "--workload", "synthetic:iwd", "--method",
             "Workflow-Presets", "--scale", "0.05"]
        )
        via_workload = capsys.readouterr().out
        assert rc == 0
        rc = main(
            ["simulate", "--workflow", "iwd", "--method",
             "Workflow-Presets", "--scale", "0.05"]
        )
        via_workflow = capsys.readouterr().out
        assert rc == 0
        # identical metrics; only the workload label differs
        strip = (
            lambda text: [
                line for line in text.splitlines()
                if not line.startswith("workload")
            ]
        )
        assert strip(via_workload) == strip(via_workflow)

    def test_simulate_trace_file_workload(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert main(
            ["trace", "--workflow", "iwd", "--scale", "0.05",
             "--out", str(path)]
        ) == 0
        capsys.readouterr()
        rc = main(
            ["simulate", "--workload", f"trace:{path}",
             "--method", "Workflow-Presets"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert f"trace:{path}" in out

    def test_trace_writes_jsonl_and_wfcommons(self, tmp_path, capsys):
        jsonl = tmp_path / "t.jsonl"
        wfc = tmp_path / "wf.json"
        rc = main(
            ["trace", "--workflow", "iwd", "--scale", "0.05",
             "--jsonl", str(jsonl), "--wfcommons", str(wfc)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote JSONL trace" in out
        assert "wrote WfCommons instance" in out
        # header line + one line per instance
        assert len(jsonl.read_text().splitlines()) > 1
        doc = json.loads(wfc.read_text())
        assert doc["schemaVersion"] == "1.5"
        assert doc["workflow"]["specification"]["tasks"]

    def test_compare_workloads_specs(self, tmp_path, capsys):
        wfc = tmp_path / "wf.json"
        assert main(
            ["trace", "--workflow", "iwd", "--scale", "0.05",
             "--wfcommons", str(wfc)]
        ) == 0
        capsys.readouterr()
        rc = main(
            ["compare", "--workloads", f"wfcommons:{wfc}",
             "--backend", "event"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Sizey" in out
        assert f"wfcommons:{wfc}" in out

    def test_compare_workflows_and_workloads_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "--workflows", "iwd",
                 "--workloads", "synthetic:iwd"]
            )

    def test_figures_wfcommons_replay_artifact_listed(self):
        args = build_parser().parse_args(
            ["figures", "--only", "wfcommons-replay"]
        )
        assert args.only == ["wfcommons-replay"]


class TestScaleOptions:
    def test_scale_flags_require_event_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--stream-collectors"])
        assert "--backend event" in capsys.readouterr().err

    def test_resume_excludes_workload(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--resume", "x.ckpt"])
        assert "checkpoint" in capsys.readouterr().err

    def test_stop_after_needs_checkpoint(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--backend", "event",
                  "--stop-after", "1.0"])
        assert "--checkpoint" in capsys.readouterr().err

    def test_shards_exclude_checkpointing(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--backend", "event",
                  "--shards", "2", "--checkpoint", "x.ckpt"])
        assert "--shards" in capsys.readouterr().err

    def test_shards_exclude_spill(self, tmp_path, capsys):
        spill = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--workflow", "iwd", "--scale", "0.05",
                  "--backend", "event", "--shards", "2",
                  "--shard-workers", "1", "--spill", str(spill)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--spill" in err and "--shards" in err
        assert not spill.exists()

    def test_shards_exclude_node_outage(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--backend", "event",
                  "--shards", "2", "--node-outage", "0.1:1:0"])
        assert "--node-outage" in capsys.readouterr().err

    def test_rejects_nonpositive_checkpoint_every(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--backend", "event",
                  "--checkpoint", "x.ckpt", "--checkpoint-every", "0"])
        assert "must be > 0" in capsys.readouterr().err

    def test_stream_collectors_end_to_end(self, capsys):
        rc = main(["simulate", "--workflow", "iwd", "--scale", "0.05",
                   "--method", "Workflow-Presets", "--backend", "event",
                   "--stream-collectors"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wastage GBh" in out

    def test_sharded_simulate_end_to_end(self, capsys):
        rc = main(["simulate", "--workflow", "iwd", "--scale", "0.05",
                   "--method", "Workflow-Presets", "--backend", "event",
                   "--cluster", "64g:2", "--shards", "2",
                   "--shard-workers", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shards" in out

    def test_checkpoint_resume_summary_round_trip(self, tmp_path, capsys):
        common = ["--workflow", "iwd", "--scale", "0.05",
                  "--method", "Workflow-Presets", "--backend", "event",
                  "--cluster", "64g:2", "--arrival", "poisson:600"]
        full = tmp_path / "full.json"
        rc = main(["simulate", *common, "--summary-json", str(full)])
        assert rc == 0
        capsys.readouterr()

        ck = tmp_path / "state.ckpt"
        rc = main(["simulate", *common,
                   "--checkpoint", str(ck), "--stop-after", "0.05"])
        assert rc == 0
        assert "paused" in capsys.readouterr().out
        assert ck.exists()

        resumed = tmp_path / "resumed.json"
        rc = main(["simulate", "--resume", str(ck),
                   "--summary-json", str(resumed)])
        assert rc == 0
        assert resumed.read_text() == full.read_text()


class TestServeCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8713
        assert args.max_tenants == 64

    def test_client_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client"])

    def test_client_predict_requires_task_fields(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["client", "predict", "--tenant", "a"]
            )

    def test_loadgen_validates_workload_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadgen", "--workload", "bogus:nope"]
            )

    def test_client_predict_against_live_server(self, capsys):
        from repro.serve.server import ServerThread

        with ServerThread() as srv:
            rc = main(
                ["client", "predict", "--host", srv.host,
                 "--port", str(srv.port), "--tenant", "cli",
                 "--task-type", "align", "--input-mb", "512"]
            )
            out = capsys.readouterr().out
            assert rc == 0
            assert '"estimate_mb": 4096.0' in out
            rc = main(
                ["client", "observe", "--host", srv.host,
                 "--port", str(srv.port), "--tenant", "cli",
                 "--task-type", "align", "--input-mb", "512",
                 "--peak-mb", "2000"]
            )
            out = capsys.readouterr().out
            assert rc == 0
            assert '"n_observed": 1' in out

    def test_loadgen_against_live_server(self, tmp_path, capsys):
        import json

        from repro.serve.server import ServerThread

        out_json = tmp_path / "report.json"
        with ServerThread() as srv:
            rc = main(
                ["loadgen", "--host", srv.host, "--port", str(srv.port),
                 "--workload", "synthetic:eager", "--tenants", "2",
                 "--rate", "1000", "--max-tasks", "32",
                 "--json", str(out_json)]
            )
        out = capsys.readouterr().out
        assert rc == 0
        assert "loadgen report" in out
        report = json.loads(out_json.read_text())
        assert report["n_tasks"] == 32
        assert report["n_errors"] == 0


#: Imports every start-up path (the CLI, the benchmark's simulation round,
#: the server), runs a Sizey simulation and one serve predict/observe
#: round, then prints the scipy modules loaded along the way.
_START_UP_SCRIPT = """
import json
import sys

import repro.cli
import repro.serve.server
from repro.experiments.factories import make_sizey, make_witt_percentile
from repro.serve.protocol import parse_observe_request, parse_predict_request
from repro.serve.tenants import TenantSession
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.workflow.nfcore import WORKFLOW_NAMES, build_workflow_trace

rc = repro.cli.main(["simulate", "--workflow", "iwd", "--method", "Sizey",
                     "--scale", "0.05", "--backend", "event"])
assert rc == 0, rc
session = TenantSession("startup")
_, items = parse_observe_request({"tenant": "startup", "observations": [
    {"task_type": "align", "input_size_mb": x, "peak_memory_mb": 4.0 * x + 512.0,
     "runtime_hours": 0.1} for x in (100.0, 400.0, 800.0, 1200.0, 1600.0, 2000.0)
]})
session.observe(items)
_, tasks = parse_predict_request({"tenant": "startup", "tasks": [
    {"task_type": "align", "input_size_mb": 1024.0}]})
assert session.predict(tasks)[0]["source"] == "model"
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


class TestStartUpImports:
    def test_sizey_simulate_and_serve_never_load_scipy(self):
        # scipy.optimize costs ~0.45 s and ~40 MB; only a quantile-line fit
        # (the Witt-Wastage baseline) may load it.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _START_UP_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
