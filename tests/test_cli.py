"""Tests for the command-line interface."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.sim.interface import MemoryPredictor


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
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--workflow", "iwd",
                  "--arrival", "poisson:0.5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "serial (replay) run keeps one task in flight" in err
        assert err.rstrip().endswith("drop arrival")

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
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--workflow", "iwd", "--dag", "trace"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "serial (replay) run keeps one task in flight" in err
        assert err.rstrip().endswith("drop dag")

    def test_workflow_arrival_conflicts_with_task_arrival(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--backend", "event",
                  "--workflow-arrival", "2", "--arrival", "poisson:0.5"])
        assert "drop arrival" in capsys.readouterr().err

    def test_dag_conflicts_with_task_arrival(self, capsys):
        # --dag must not be silently dropped in favour of --arrival.
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--backend", "event",
                  "--dag", "linear", "--arrival", "poisson:5"])
        assert "drop arrival" in capsys.readouterr().err


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
        # --resume is the third member of the required group: it
        # restores the workload from a checkpoint instead.
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
    def test_replay_refuses_checkpoints(self, tmp_path, capsys):
        ck = tmp_path / "replay.ckpt"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--workflow", "iwd", "--scale", "0.05",
                  "--method", "Witt-LR", "--checkpoint", str(ck),
                  "--stop-after", "0.01"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "serial (replay) run cannot be checkpointed" in err
        assert not ck.exists()

    def test_kernel_options_apply_to_replay(self, tmp_path, capsys):
        # Profile, trace, spill and summary files come from the kernel,
        # whichever driver runs it; the metric rows stay the replay's.
        run = ["simulate", "--workflow", "iwd", "--scale", "0.05",
               "--method", "Witt-LR"]
        assert main(run) == 0
        plain = capsys.readouterr().out
        paths = {name: tmp_path / name
                 for name in ("trace.json", "spill.jsonl", "summary.json")}
        assert main([*run, "--backend", "replay", "--profile",
                     "--trace", str(paths["trace.json"]),
                     "--spill", str(paths["spill.jsonl"]),
                     "--summary-json", str(paths["summary.json"])]) == 0
        out = capsys.readouterr().out
        metrics, profile = out.split("\n\n", 1)
        assert metrics + "\n" == plain
        assert profile.startswith("kernel phases:")
        assert all(path.stat().st_size > 0 for path in paths.values())
        summary = json.loads(paths["summary.json"].read_text())
        assert summary["tasks"]["n_tasks"] == 83
        assert summary["cluster"] is None
        spilled = paths["spill.jsonl"].read_text().splitlines()
        assert len(spilled) == 83
        events = json.loads(paths["trace.json"].read_text())["traceEvents"]
        assert any(e["ph"] == "X" for e in events)

    def test_resume_excludes_workload(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--resume", "x.ckpt"])
        assert "--resume: not allowed with" in capsys.readouterr().err

    def test_stop_after_needs_checkpoint(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--backend", "event",
                  "--stop-after", "1.0"])
        err = capsys.readouterr().err
        assert "stop_after" in err and "checkpoint path" in err

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
        assert "spill cannot be combined with sharding" in err
        assert not spill.exists()

    def test_shards_exclude_node_outage(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workflow", "iwd", "--backend", "event",
                  "--shards", "2", "--node-outage", "0.1:1:0"])
        assert "node_outage" in capsys.readouterr().err

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


class _BrokenPredictor(MemoryPredictor):
    """A predictor whose bug surfaces as a plain ValueError mid-run."""

    name = "Broken"

    def predict(self, task):
        raise ValueError("a bug inside a predictor")


class TestUsageErrors:
    """Bad values a layer refuses end as usage errors naming the field."""

    SIM = ["simulate", "--workflow", "iwd", "--method", "Witt-LR"]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (SIM + ["--scale", "nan"], "scale"),
            (SIM + ["--scale", "-1"], "scale"),
            (SIM + ["--ttf", "nan"], "time_to_failure"),
            (SIM + ["--seed", "-1"], "--seed"),
            (["compare", "--ttf", "0"], "time_to_failure"),
            (["profile", "--workflow", "iwd", "--scale", "2"], "scale"),
            (["simulate", "--resume", "{v7}"], "format version 7"),
            (["simulate", "--resume", "{text}"], "not a repro simulation"),
            (["simulate", "--resume", "{missing}"], "cannot read checkpoint"),
            (["trace", "--workflow", "iwd", "--scale", "2"],
             "scale must be in (0, 1], got 2.0"),
            (["trace", "--workflow", "iwd", "--scale", "0"],
             "scale must be in (0, 1], got 0.0"),
            (["trace", "--workflow", "iwd", "--scale", "nan"],
             "scale must be in (0, 1], got nan"),
            # --shard-workers sizes the pool of --shards N, N > 1 only.
            (SIM + ["--scale", "0.05", "--shard-workers", "4"],
             "--shard-workers"),
            (SIM + ["--scale", "0.05", "--backend", "event",
                    "--shard-workers", "0"], "--shard-workers: must be >= 1"),
            (SIM + ["--scale", "0.05", "--backend", "event", "--shards", "2",
                    "--shard-workers", "-3"], "--shard-workers: must be >= 1"),
            # Worker and repeat counts below 1 would run sequentially or
            # profile once instead.
            (["compare", "--workflows", "iwd", "--scale", "0.05",
              "--workers", "0"], "--workers: must be >= 1"),
            (["compare", "--workers", "-2"], "--workers: must be >= 1"),
            (["scorecard", "--out", "{missing}", "--workers", "0"],
             "--workers: must be >= 1"),
            (["profile", "--workflow", "iwd", "--scale", "0.05",
              "--repeat", "0"], "--repeat: must be >= 1"),
            # A replay run picks its own driver; the backend refuses the
            # flags that pick another.
            (SIM + ["--scale", "0.05", "--arrival", "fixed:0.5"],
             "drop arrival"),
            (SIM + ["--scale", "0.05", "--workflow-arrival", "2"],
             "drop workflow_arrival"),
            (SIM + ["--scale", "0.05", "--shards", "2"], "drop shards"),
            (SIM + ["--scale", "0.05", "--dag", "linear",
                    "--workflow-arrival", "2"],
             "drop dag, workflow_arrival"),
            (["compare", "--workflows", "iwd", "--scale", "0.05",
              "--arrival", "poisson:2"], "drop arrival"),
        ],
    )
    def test_exit_2_before_any_run(
        self, tmp_path, monkeypatch, capsys, argv, named
    ):
        from repro.sim.engine import OnlineSimulator

        def no_run(*args, **kwargs):
            raise AssertionError("a refused run must not start")

        monkeypatch.setattr(OnlineSimulator, "run", no_run)
        paths = {
            "v7": tmp_path / "v7.ckpt",
            "text": tmp_path / "notes.txt",
            "missing": tmp_path / "missing.ckpt",
        }
        paths["v7"].write_bytes(
            pickle.dumps({"format": "repro-checkpoint", "version": 7})
        )
        paths["text"].write_text("not a checkpoint\n")
        argv = [arg.format(**paths) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    def test_resume_takes_only_checkpoint_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--resume", "x.ckpt", "--profile",
                  "--trace", "t.json"])
        assert exc.value.code == 2
        assert "drop --profile, --trace" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def witt_lr_checkpoint(self, tmp_path_factory):
        ck = tmp_path_factory.mktemp("resume") / "state.ckpt"
        assert main(self.SIM + ["--scale", "0.05", "--backend", "event",
                                "--cluster", "64g:2",
                                "--arrival", "poisson:600",
                                "--checkpoint", str(ck),
                                "--stop-after", "0.05"]) == 0
        return ck

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--cluster", "4g:1", "--method", "Sizey", "--ttf", "0.5",
              "--scale", "0.3", "--seed", "5", "--placement", "best-fit"],
             "--cluster, --method, --ttf, --scale, --seed, --placement"),
            # At its default, or at the checkpointed run's value, a flag
            # is refused all the same: the checkpoint configures the run.
            (["--backend", "replay"], "--backend"),
            (["--backend", "event"], "--backend"),
            (["--method", "Witt-LR"], "--method"),
            (["--scale", "1.0", "--seed", "0"], "--scale, --seed"),
            (["--ttf", "1.0", "--placement", "first-fit"],
             "--ttf, --placement"),
            (["--shard-workers", "1"], "--shard-workers"),
            # The event backend's options are the checkpoint's too.
            (["--arrival", "poisson:600"], "--arrival"),
            (["--dag", "trace"], "--dag"),
            (["--workflow-arrival", "2"], "--workflow-arrival"),
            (["--node-outage", "0.01:0.02:0"], "--node-outage"),
            (["--stream-collectors"], "--stream-collectors"),
            (["--spill", "s.jsonl"], "--spill"),
            (["--shards", "1"], "--shards"),
            (["--trace-limit", "8"], "--trace-limit"),
        ],
    )
    def test_resume_names_every_run_flag_given(
        self, witt_lr_checkpoint, capsys, flags, named
    ):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--resume", str(witt_lr_checkpoint), *flags])
        assert exc.value.code == 2
        assert f"drop {named}" in capsys.readouterr().err

    def test_plain_value_error_propagates(self, monkeypatch):
        # Only ConfigError is a usage error: a bug that raises a bare
        # ValueError (numpy's LinAlgError is one) keeps its traceback.
        import repro.cli as cli
        from repro.errors import ConfigError

        monkeypatch.setattr(
            cli, "method_factories", lambda: {"Witt-LR": _BrokenPredictor}
        )
        with pytest.raises(ValueError, match="a bug inside") as exc:
            main(self.SIM + ["--scale", "0.05", "--backend", "event"])
        assert not isinstance(exc.value, ConfigError)

    def test_paused_resume_writes_its_checkpoint(self, tmp_path, capsys):
        from repro.sim.kernel.checkpoint import load_checkpoint

        ck = tmp_path / "state.ckpt"
        assert main(self.SIM + ["--scale", "0.05", "--backend", "event",
                                "--arrival", "poisson:600",
                                "--checkpoint", str(ck),
                                "--stop-after", "0.05"]) == 0
        assert load_checkpoint(str(ck)).now <= 0.05
        assert main(["simulate", "--resume", str(ck),
                     "--stop-after", "0.1"]) == 0
        assert f"checkpointed to {ck}" in capsys.readouterr().out
        assert 0.05 < load_checkpoint(str(ck)).now <= 0.1


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
