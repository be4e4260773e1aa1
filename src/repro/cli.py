"""Command-line interface: ``python -m repro <command>``.

Commands
--------
simulate      replay one workload with one method, print the result
profile       run one workload with the kernel phase profiler, print timings
figures       regenerate paper artifacts (all or a selection)
trace         generate a synthetic workflow trace to JSON/JSONL/CSV/WfCommons
compare       run the full method grid on selected workloads
scorecard     paper-scale quality scorecard and gate (QUALITY.json)
serve         run the resident sizing server (see repro.serve)
client        talk to a running sizing server (healthz/metrics/predict/observe)
loadgen       replay a workload source against a running sizing server

Every command accepts the global ``--log-level``/``--log-json`` flags
(before or after the command name) to enable structured run logs on
stderr; see :mod:`repro.obs.log`.

Workloads are addressed by spec strings (``--workload``): the six
synthetic paper workflows (``synthetic:iwd``), recorded repro-trace
files including streaming JSONL (``trace:runs/mag.jsonl``), and
WfCommons instance JSON (``wfcommons:traces/blast.json``).
``--workflow iwd`` remains as the historical alias for
``--workload synthetic:iwd``.

Examples::

    python -m repro simulate --workflow rnaseq --method Sizey --scale 0.3
    python -m repro simulate --workload wfcommons:blast.json --backend event
    python -m repro simulate --workload wfcommons:blast.json --backend event \
        --dag trace --workflow-arrival 4@poisson:2 --cluster "128g:4,256g:4"
    python -m repro simulate --workflow iwd --backend event \
        --cluster "128g:4,256g:4" --placement best-fit --arrival poisson:0.5
    python -m repro simulate --workflow iwd --backend event \
        --node-outage 0.05:0.2:0 --cluster "64g:4"
    python -m repro serve --port 8713
    python -m repro client predict --tenant alice --task-type align \
        --input-mb 1024
    python -m repro loadgen --workload synthetic:rnaseq --tenants 2 \
        --rate 200 --max-tasks 256
    python -m repro simulate --workflow iwd --backend event \
        --profile --trace timeline.json
    python -m repro profile --workflow rnaseq --scale 0.3
    python -m repro figures --only fig11 fig12
    python -m repro trace --workflow mag --scale 0.1 --out mag.json --csv mag.csv
    python -m repro trace --workflow iwd --wfcommons iwd_wfcommons.json
    python -m repro compare --workflows chipseq iwd --scale 0.2 --backend event
    python -m repro compare --workloads wfcommons:blast.json synthetic:iwd
    python -m repro scorecard --out change.json --compare parent.json --workers 2
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro.cluster.policies import placement_names
from repro.experiments.factories import METHOD_ORDER, method_factories
from repro.experiments.report import render_table
from repro.sim.backends import backend_names
from repro.sim.engine import OnlineSimulator
from repro.sim.runner import run_grid
from repro.workflow.io import export_csv, save_trace
from repro.workflow.nfcore import WORKFLOW_NAMES, build_workflow_trace

__all__ = ["main", "build_parser"]

_ARTIFACTS = (
    "table1",
    "fig1",
    "fig2",
    "fig7",
    "fig8",
    "table2",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "cluster",
    "workflow-sched",
    "wfcommons-replay",
)


def _nonnegative_hours(value: str) -> float:
    hours = float(value)
    if hours < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 hours, got {hours}")
    return hours


def _positive_hours(value: str) -> float:
    hours = float(value)
    if hours <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0 hours, got {hours}")
    return hours


def _cluster_spec(value: str) -> str:
    """Validate a --cluster spec eagerly so bad specs fail at parse time."""
    from repro.cluster.machine import parse_cluster_spec

    try:
        parse_cluster_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _arrival_spec(value: str) -> str:
    """Validate an --arrival spec eagerly so bad specs fail at parse time."""
    from repro.sim.arrivals import parse_arrival

    try:
        parse_arrival(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _node_outage_spec(value: str) -> str:
    """Validate a --node-outage spec eagerly so bad specs fail at parse time."""
    from repro.sim.kernel.outage import parse_node_outage

    try:
        parse_node_outage(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _workflow_arrival_spec(value: str) -> str:
    """Validate a --workflow-arrival spec eagerly (fail at parse time)."""
    from repro.sim.arrivals import parse_workflow_arrival

    try:
        parse_workflow_arrival(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _workload_spec(value: str) -> str:
    """Validate a --workload spec eagerly so bad specs fail at parse time.

    Construction checks the scheme and (for file-backed sources) that
    the file exists; the actual parse/ingestion stays lazy.
    """
    from repro.workload import parse_workload

    try:
        parse_workload(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_cluster_options(sub: argparse.ArgumentParser) -> None:
    """Cluster-scenario options shared by ``simulate`` and ``compare``."""
    sub.add_argument("--cluster", type=_cluster_spec, default=None,
                     help="cluster spec as SIZE:COUNT pools, e.g. "
                          "'128g:4,256g:4' (default: the paper's 8x128g)")
    sub.add_argument("--placement", choices=placement_names(),
                     default="first-fit",
                     help="node-placement policy")
    sub.add_argument("--arrival", type=_arrival_spec, default=None,
                     help="arrival model for the event backend: "
                          "'fixed:0.25', 'poisson:0.5', or 'bursty:8x0.5' "
                          "(default: batch submission at t=0)")
    sub.add_argument("--dag", choices=("trace", "linear"), default=None,
                     help="DAG-aware scheduling (event backend only): "
                          "release tasks as dependencies resolve, using "
                          "the trace's generated DAG ('trace') or a "
                          "linear task-type chain ('linear')")
    sub.add_argument("--workflow-arrival", type=_workflow_arrival_spec,
                     default=None, metavar="SPEC",
                     help="inject whole workflow instances (implies "
                          "--dag trace): 'N', 'N@poisson:R', 'N@fixed:H', "
                          "'N@bursty:SxG', optionally '@tenants:K'")
    sub.add_argument("--node-outage", type=_node_outage_spec,
                     action="append", default=None, metavar="SPEC",
                     help="schedule a node drain 'START:DURATION:NODE' "
                          "(hours, hours, node id): placement on the node "
                          "pauses and its running tasks are preempted and "
                          "re-queued; repeatable; works in flat and DAG "
                          "modes (event backend)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sizey reproduction (CLUSTER 2024) command-line tools",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        help="enable structured run logs on stderr at LEVEL "
                             "(debug, info, warning, error)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit logs as JSON lines (implies "
                             "--log-level info unless given)")
    # The same flags are accepted after the subcommand too (a shared
    # parent with SUPPRESS defaults, so a subcommand parse that omits
    # them never clobbers a value parsed at the top level).
    log_parent = argparse.ArgumentParser(add_help=False)
    log_parent.add_argument("--log-level", default=argparse.SUPPRESS,
                            metavar="LEVEL", help=argparse.SUPPRESS)
    log_parent.add_argument("--log-json", action="store_true",
                            default=argparse.SUPPRESS,
                            help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[log_parent],
                         help="replay one workload with one method")
    # Not required=True: --resume carries the workload inside the
    # checkpoint; _validate_args enforces the choice for fresh runs.
    which = sim.add_mutually_exclusive_group(required=False)
    which.add_argument("--workflow", choices=WORKFLOW_NAMES,
                       help="synthetic paper workflow (alias for "
                            "--workload synthetic:NAME)")
    which.add_argument("--workload", type=_workload_spec, metavar="SPEC",
                       help="workload source spec: 'synthetic:iwd', "
                            "'wfcommons:path.json', or 'trace:path.json[l]'")
    sim.add_argument("--method", choices=METHOD_ORDER, default="Sizey")
    sim.add_argument("--scale", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--ttf", type=float, default=1.0,
                     help="time-to-failure fraction (paper parameter)")
    sim.add_argument("--backend", choices=backend_names(), default="replay",
                     help="simulation backend (replay = paper-faithful "
                          "serial loop; event = concurrent discrete-event "
                          "engine with cluster metrics)")
    sim.add_argument("--arrival-interval", type=_nonnegative_hours, default=0.0,
                     help="hours between submissions (event backend only; "
                          "0 = submit the whole trace at once; shorthand "
                          "for --arrival fixed:H)")
    _add_cluster_options(sim)
    scale_grp = sim.add_argument_group(
        "scale-out (event backend only)",
        "streaming collectors, kernel checkpoint/resume, sharded fan-out",
    )
    scale_grp.add_argument("--stream-collectors", action="store_true",
                           help="bounded-memory online aggregates instead "
                                "of per-task logs; prints/exports the run "
                                "summary (quantile sketches, totals)")
    scale_grp.add_argument("--spill", metavar="PATH", default=None,
                           help="append per-task prediction logs to this "
                                "JSONL file in completion order")
    scale_grp.add_argument("--shards", type=int, default=1, metavar="N",
                           help="partition the workload and cluster across "
                                "N worker processes and merge their "
                                "summaries (implies --stream-collectors)")
    scale_grp.add_argument("--shard-workers", type=int, default=None,
                           metavar="N",
                           help="process-pool size for --shards (default: "
                                "min(shards, cpu count); 1 = sequential)")
    scale_grp.add_argument("--checkpoint", metavar="PATH", default=None,
                           help="write the paused kernel state here "
                                "(with --checkpoint-every / --stop-after)")
    scale_grp.add_argument("--checkpoint-every", type=_positive_hours,
                           default=None, metavar="HOURS",
                           help="overwrite --checkpoint at least every "
                                "HOURS of simulation time")
    scale_grp.add_argument("--stop-after", type=_positive_hours,
                           default=None, metavar="HOURS",
                           help="stop once the simulation clock passes "
                                "HOURS, leaving --checkpoint resumable")
    scale_grp.add_argument("--resume", metavar="PATH", default=None,
                           help="continue a checkpointed run (bit-for-bit "
                                "equal to the uninterrupted run); replaces "
                                "the workload/method/cluster options")
    scale_grp.add_argument("--summary-json", metavar="PATH", default=None,
                           help="write the run summary as JSON ('-' for "
                                "stdout)")
    obs_grp = sim.add_argument_group(
        "observability (event backend only)",
        "kernel phase profiler and Chrome trace_event export",
    )
    obs_grp.add_argument("--profile", action="store_true",
                         help="time the kernel phases and print the "
                              "per-phase table after the run summary")
    obs_grp.add_argument("--trace", metavar="PATH", default=None,
                         help="write a Chrome trace_event JSON timeline "
                              "of the run here (load in Perfetto or "
                              "chrome://tracing)")
    obs_grp.add_argument("--trace-limit", type=int, default=None, metavar="N",
                         help="keep only the last N trace events "
                              "(bounded ring buffer)")

    prof = sub.add_parser(
        "profile",
        parents=[log_parent],
        help="run one workload with the kernel phase profiler",
        description="Replay one workload on the event backend with the "
                    "phase profiler enabled, then print the per-phase "
                    "wall-time table (calls, seconds, %% of total) and "
                    "the events/sec throughput.",
    )
    which_prof = prof.add_mutually_exclusive_group(required=True)
    which_prof.add_argument("--workflow", choices=WORKFLOW_NAMES,
                            help="synthetic paper workflow (alias for "
                                 "--workload synthetic:NAME)")
    which_prof.add_argument("--workload", type=_workload_spec, metavar="SPEC",
                            help="workload source spec (see simulate "
                                 "--workload)")
    prof.add_argument("--method", choices=METHOD_ORDER, default="Sizey")
    prof.add_argument("--scale", type=float, default=1.0)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--ttf", type=float, default=1.0,
                      help="time-to-failure fraction (paper parameter)")
    prof.add_argument("--trace", metavar="PATH", default=None,
                      help="also write a Chrome trace_event JSON timeline")
    prof.add_argument("--trace-limit", type=int, default=None, metavar="N",
                      help="keep only the last N trace events")
    prof.add_argument("--repeat", type=int, default=1, metavar="N",
                      help="profile the workload N times and merge the "
                           "runs (phase shares average out scheduler "
                           "noise; events/sec reports the best run)")
    prof.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                      help="write the profile as JSON ('-' for stdout)")
    _add_cluster_options(prof)
    # The profiler lives in the kernel, so this command is always
    # event-backend; the defaults make _validate_args and the backend
    # resolver treat it exactly like `simulate --backend event`.
    prof.set_defaults(backend="event", arrival_interval=0.0)

    fig = sub.add_parser("figures", parents=[log_parent],
                         help="regenerate paper artifacts")
    fig.add_argument("--only", nargs="*", choices=_ARTIFACTS, default=None)
    fig.add_argument("--scale", type=float, default=0.15)
    fig.add_argument("--seed", type=int, default=0)

    tr = sub.add_parser("trace", parents=[log_parent],
                        help="generate a synthetic trace")
    tr.add_argument("--workflow", choices=WORKFLOW_NAMES, required=True)
    tr.add_argument("--scale", type=float, default=1.0)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", help="write JSON trace here")
    tr.add_argument("--jsonl", help="write streaming JSONL trace here")
    tr.add_argument("--csv", help="write CSV table here")
    tr.add_argument("--wfcommons",
                    help="write a WfCommons instance document here")

    cmp_ = sub.add_parser("compare", parents=[log_parent],
                          help="run the method grid")
    which_cmp = cmp_.add_mutually_exclusive_group()
    which_cmp.add_argument("--workflows", nargs="+", choices=WORKFLOW_NAMES,
                           default=None)
    which_cmp.add_argument("--workloads", nargs="+", type=_workload_spec,
                           default=None, metavar="SPEC",
                           help="workload source specs (see simulate "
                                "--workload)")
    cmp_.add_argument("--scale", type=float, default=0.2)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--ttf", type=float, default=1.0)
    cmp_.add_argument("--workers", type=int, default=1)
    cmp_.add_argument("--backend", choices=backend_names(), default="replay",
                      help="simulation backend used for every grid cell")
    cmp_.add_argument("--arrival-interval", type=_nonnegative_hours,
                      default=0.0,
                      help="hours between submissions (event backend only; "
                           "shorthand for --arrival fixed:H)")
    _add_cluster_options(cmp_)

    sc = sub.add_parser(
        "scorecard", parents=[log_parent],
        help="run the paper-scale quality scorecard; apply the quality gate",
        description="Run the cells QUALITY.json declares and write the "
                    "scorecard JSON (--out).  --compare PARENT.json applies "
                    "the gate of docs/QUALITY.md to Sizey's rows and exits "
                    "1 if a check fails; --compare PARENT.json CHANGE.json "
                    "compares two recorded scorecards without running.",
    )
    sc.add_argument("--out", metavar="PATH", default=None,
                    help="write the scorecard JSON here")
    sc.add_argument("--compare", nargs="+", metavar="SCORECARD", default=None,
                    help="PARENT.json [CHANGE.json]")
    sc.add_argument("--workers", type=int, default=1)
    sc.add_argument("--spec", default="QUALITY.json",
                    help="the scorecard declaration (default: %(default)s)")

    _add_serve_parsers(sub, log_parent)
    return parser


def _add_serve_parsers(sub, log_parent) -> None:
    """The ``serve`` / ``client`` / ``loadgen`` command trio."""
    from repro.serve.server import DEFAULT_PORT

    def _endpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=DEFAULT_PORT)

    srv = sub.add_parser("serve", parents=[log_parent],
                         help="run the resident sizing server")
    _endpoint(srv)
    srv.add_argument("--seed", type=int, default=0,
                     help="base seed mixed into every tenant's model seed")
    srv.add_argument("--max-tenants", type=int, default=64,
                     help="LRU capacity of the tenant registry")

    cli = sub.add_parser("client", parents=[log_parent],
                         help="talk to a running sizing server")
    actions = cli.add_subparsers(dest="action", required=True)

    hz = actions.add_parser("healthz", help="liveness probe")
    _endpoint(hz)
    mt = actions.add_parser("metrics", help="dump the /metrics payload")
    _endpoint(mt)
    mt.add_argument("--format", choices=("json", "prometheus"),
                    default="json",
                    help="payload format: JSON (default) or the "
                         "Prometheus text exposition")

    pr = actions.add_parser("predict", help="size one task")
    _endpoint(pr)
    pr.add_argument("--tenant", default="default")
    pr.add_argument("--task-type", required=True)
    pr.add_argument("--input-mb", type=float, required=True)
    pr.add_argument("--machine", default="default")
    pr.add_argument("--task-workflow", default="serve", metavar="NAME")
    pr.add_argument("--preset-mb", type=float, default=4096.0)
    pr.add_argument("--instance-id", type=int, default=-1)

    ob = actions.add_parser("observe", help="report one measured peak")
    _endpoint(ob)
    ob.add_argument("--tenant", default="default")
    ob.add_argument("--task-type", required=True)
    ob.add_argument("--input-mb", type=float, required=True)
    ob.add_argument("--peak-mb", type=float, required=True)
    ob.add_argument("--machine", default="default")
    ob.add_argument("--task-workflow", default="serve", metavar="NAME")
    ob.add_argument("--runtime-h", type=float, default=0.0)
    ob.add_argument("--allocated-mb", type=float, default=0.0)
    ob.add_argument("--instance-id", type=int, default=-1)

    lg = sub.add_parser(
        "loadgen", parents=[log_parent],
        help="replay a workload against a running server"
    )
    _endpoint(lg)
    lg.add_argument("--workload", type=_workload_spec, required=True,
                    metavar="SPEC",
                    help="workload source spec (see simulate --workload)")
    lg.add_argument("--tenants", type=int, default=2)
    lg.add_argument("--rate", type=float, default=200.0,
                    help="predict-request arrival rate (requests/sec)")
    lg.add_argument("--batch", type=int, default=8,
                    help="tasks per /predict request")
    lg.add_argument("--max-tasks", type=int, default=256,
                    help="stop after this many tasks (0 = whole workload)")
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--no-observe", action="store_true",
                    help="skip the /observe feedback after each batch")
    lg.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                    help="also write the report as JSON here")


def _validate_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject option combinations that would be silently ignored."""
    has_arrival = getattr(args, "arrival", None) is not None
    has_interval = getattr(args, "arrival_interval", 0.0) > 0.0
    if has_arrival and has_interval:
        parser.error("--arrival and --arrival-interval are mutually "
                     "exclusive (use --arrival fixed:H)")
    if (has_arrival or has_interval) and args.backend != "event":
        parser.error("--arrival/--arrival-interval only shape the event "
                     "backend; add --backend event")
    has_dag = getattr(args, "dag", None) is not None
    has_wf_arrival = getattr(args, "workflow_arrival", None) is not None
    if (has_dag or has_wf_arrival) and args.backend != "event":
        parser.error("--dag/--workflow-arrival only shape the event "
                     "backend; add --backend event")
    node_outages = getattr(args, "node_outage", None)
    if node_outages:
        if args.backend != "event":
            parser.error("--node-outage only shapes the event backend; "
                         "add --backend event")
        # Check node ids against the cluster now, so a typo fails with a
        # clean message like every other bad CLI combination.
        from repro.cluster.machine import parse_cluster_spec
        from repro.sim.kernel.outage import parse_node_outage

        if args.cluster is not None:
            n_nodes = sum(c for _, c in parse_cluster_spec(args.cluster))
        else:
            n_nodes = 8  # the paper's default cluster
        for spec in node_outages:
            node_id = parse_node_outage(spec).node_id
            if node_id >= n_nodes:
                parser.error(
                    f"--node-outage {spec} names node {node_id}, but the "
                    f"cluster has nodes 0..{n_nodes - 1}")
    if (has_dag or has_wf_arrival) and (has_arrival or has_interval):
        parser.error("DAG-aware scheduling replaces per-task arrivals; "
                     "drop --arrival/--arrival-interval")
    if args.command == "simulate":
        _validate_scale_args(parser, args, node_outages)
    if args.command == "profile":
        _validate_trace_limit(parser, args)


def _validate_trace_limit(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    if args.trace_limit is not None:
        if args.trace is None:
            parser.error("--trace-limit needs --trace")
        if args.trace_limit <= 0:
            parser.error(f"--trace-limit must be >= 1, got {args.trace_limit}")


def _validate_scale_args(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    node_outages,
) -> None:
    """Scale-out flag combinations for ``simulate``."""
    resume = args.resume is not None
    if not resume and args.workflow is None and args.workload is None:
        parser.error("one of --workflow or --workload is required "
                     "(or --resume to continue a checkpointed run)")
    if resume and (args.workflow is not None or args.workload is not None):
        parser.error("--resume restores the workload from the checkpoint; "
                     "drop --workflow/--workload")
    scale_flags = (
        args.stream_collectors
        or args.spill is not None
        or args.shards != 1
        or args.checkpoint is not None
        or args.checkpoint_every is not None
        or args.stop_after is not None
    )
    if scale_flags and not resume and args.backend != "event":
        parser.error("--stream-collectors/--spill/--shards/--checkpoint "
                     "options only shape the event backend; add "
                     "--backend event")
    obs_flags = args.profile or args.trace is not None
    if obs_flags and not resume and args.backend != "event":
        parser.error("--profile/--trace instrument the kernel; add "
                     "--backend event")
    if obs_flags and resume:
        parser.error("--profile/--trace cannot be combined with --resume "
                     "(the checkpoint pins the kernel's collectors)")
    if args.trace is not None and args.shards > 1:
        parser.error("--trace cannot be combined with --shards (each "
                     "shard would overwrite the same trace file)")
    _validate_trace_limit(parser, args)
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.shards > 1:
        if args.checkpoint or args.checkpoint_every or args.stop_after or resume:
            parser.error("--shards cannot be combined with checkpoint/"
                         "resume options (checkpoint single-shard runs)")
        if node_outages:
            parser.error("--shards cannot be combined with --node-outage "
                         "(node ids are renumbered per shard)")
    if (args.checkpoint_every is not None or args.stop_after is not None) \
            and args.checkpoint is None and not resume:
        parser.error("--checkpoint-every/--stop-after need --checkpoint "
                     "(or --resume) to keep the paused state")


def _resolve_cli_workload(args: argparse.Namespace):
    """The simulate command's workload source (--workload or --workflow)."""
    from repro.workload import parse_workload

    spec = args.workload or f"synthetic:{args.workflow}"
    return parse_workload(spec, seed=args.seed, scale=args.scale)


def _resolve_cli_backend(args: argparse.Namespace):
    """Backend name, or a configured instance when options require one."""
    dag = getattr(args, "dag", None)
    workflow_arrival = getattr(args, "workflow_arrival", None)
    node_outage = getattr(args, "node_outage", None)
    if args.backend == "event" and (
        args.arrival is not None
        or args.arrival_interval > 0.0
        or dag is not None
        or workflow_arrival is not None
        or node_outage
    ):
        from repro.sim.backends import EventDrivenBackend

        if dag is not None or workflow_arrival is not None:
            return EventDrivenBackend(
                dag=dag,
                workflow_arrival=workflow_arrival,
                seed=args.seed,
                node_outage=node_outage,
            )
        if args.arrival is not None:
            return EventDrivenBackend(
                arrival=args.arrival, seed=args.seed, node_outage=node_outage
            )
        return EventDrivenBackend(
            arrival_interval_hours=args.arrival_interval,
            seed=args.seed,
            node_outage=node_outage,
        )
    return args.backend


def _render_profile_table(profile) -> str:
    """The per-phase timing table shared by ``profile`` and ``--profile``."""
    d = profile.to_dict()
    rows = [
        [
            row["phase"],
            row["calls"],
            f"{row['seconds'] * 1e3:.3f}",
            f"{row['share'] * 100:.1f}%",
        ]
        for row in profile.render_rows()
    ]
    rows.append(
        ["(all phases)", d["n_events"], f"{d['phase_seconds'] * 1e3:.3f}", ""]
    )
    runs = f" across {d['n_runs']} runs" if d["n_runs"] > 1 else ""
    title = (
        f"kernel phases{runs}: {d['n_events']} events in "
        f"{d['wall_seconds']:.3f}s wall ({d['events_per_sec']:,.0f} events/sec)"
    )
    return render_table(
        ["phase", "calls", "ms", "% of wall"], rows, title=title
    )


def _write_summary_json(res, path: str) -> None:
    import json

    from repro.sim.results import summary_to_dict

    payload = json.dumps(summary_to_dict(res.summary), indent=1,
                         sort_keys=True)
    if path == "-":
        print(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.resume is not None:
        res = OnlineSimulator.resume(
            args.resume,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            stop_after=args.stop_after,
        )
        if res is None:
            ck = args.checkpoint or args.resume
            print(f"paused at --stop-after; state checkpointed to {ck}")
            return 0
        workload_name = res.workflow
        args.backend = "event"  # checkpoints only come from kernel runs
    elif args.shards > 1:
        from repro.sim.runner import run_sharded

        source = _resolve_cli_workload(args)
        res = run_sharded(
            source,
            method_factories()[args.method],
            shards=args.shards,
            time_to_failure=args.ttf,
            backend=_resolve_cli_backend(args),
            cluster=args.cluster,
            placement=args.placement,
            dag=args.dag,
            workflow_arrival=args.workflow_arrival,
            n_workers=args.shard_workers,
            profile=args.profile,
        )
        workload_name = source.name
    else:
        source = _resolve_cli_workload(args)
        predictor = method_factories()[args.method]()
        res = OnlineSimulator(
            source,
            time_to_failure=args.ttf,
            backend=_resolve_cli_backend(args),
            cluster=args.cluster,
            placement=args.placement,
            stream_collectors=args.stream_collectors,
            spill=args.spill,
            profile=args.profile,
            trace_path=args.trace,
            trace_limit=args.trace_limit,
        ).run(
            predictor,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            stop_after=args.stop_after,
        )
        if res is None:
            print(f"paused at --stop-after; state checkpointed to "
                  f"{args.checkpoint}")
            return 0
        workload_name = source.name
    if args.summary_json is not None:
        if res.summary is None:
            raise SystemExit(
                "--summary-json needs a kernel run (event backend)"
            )
        _write_summary_json(res, args.summary_json)
        if args.summary_json == "-":
            return 0
    rows = [
        ["workload", workload_name],
        ["workflow", res.workflow],
        ["method", res.method],
        ["backend", args.backend],
        ["tasks", res.num_tasks],
        ["wastage GBh", res.total_wastage_gbh],
        ["failures", res.num_failures],
        ["runtime h", res.total_runtime_hours],
        ["mean over-allocation ratio", res.over_allocation_ratio()],
    ]
    if args.shards > 1:
        rows.insert(4, ["shards", args.shards])
    if res.cluster is not None:
        rows += [
            ["makespan h", res.cluster.makespan_hours],
            ["mean queue wait h", res.cluster.mean_queue_wait_hours],
            ["max queue wait h", res.cluster.max_queue_wait_hours],
            ["mean node utilization", res.cluster.mean_utilization],
        ]
        for node_id, util in sorted(res.cluster.node_utilization.items()):
            cap = res.cluster.node_capacity_gb.get(node_id)
            label = f"node {node_id} utilization"
            if cap is not None:
                label += f" ({cap:.0f}G)"
            rows.append([label, util])
    if res.workflows is not None:
        wm = res.workflows
        rows += [
            ["workflow instances", wm.n_instances],
            ["mean workflow makespan h", wm.mean_makespan_hours],
            ["max workflow makespan h", wm.max_makespan_hours],
            ["mean stretch", wm.mean_stretch],
            ["max stretch", wm.max_stretch],
        ]
    summary = res.summary
    if summary is not None and res.cluster is None and summary.n_nodes:
        # Streaming/sharded runs: the raw metrics objects were dropped,
        # but the online summary still carries the cluster view.
        rows += [
            ["nodes", summary.n_nodes],
            ["makespan h", summary.makespan_hours],
            ["mean queue wait h", summary.queue_wait.mean],
            ["p99 queue wait h", summary.queue_wait_sketch.quantile(0.99)],
            ["mean node utilization", summary.mean_utilization],
        ]
    if (
        summary is not None
        and res.workflows is None
        and summary.n_workflow_instances
    ):
        rows += [
            ["workflow instances", summary.n_workflow_instances],
            ["mean workflow makespan h", summary.workflow_makespan.mean],
            ["mean stretch", summary.workflow_stretch.mean],
        ]
    print(render_table(["metric", "value"], rows))
    if res.workflows is not None:
        print()
        print(
            render_table(
                ["workflow", "tenant", "submit h", "makespan h",
                 "crit path h", "stretch", "wait h", "wastage GBh",
                 "failures"],
                [
                    [w.key, w.tenant, w.submit_time_hours, w.makespan_hours,
                     w.critical_path_hours, w.stretch, w.queue_wait_hours,
                     w.wastage_gbh, w.n_failures]
                    for w in res.workflows.instances
                ],
                title="per-workflow-instance metrics",
            )
        )
    if args.profile and res.profile is not None:
        print()
        print(_render_profile_table(res.profile))
    if args.trace is not None:
        print(f"wrote Chrome trace to {args.trace}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    repeat = max(1, args.repeat)
    profile = None
    best_eps = 0.0
    for _ in range(repeat):
        # Fresh source + predictor per run: identical replay, no state
        # carried over, so merged phase shares are honest averages.
        source = _resolve_cli_workload(args)
        predictor = method_factories()[args.method]()
        res = OnlineSimulator(
            source,
            time_to_failure=args.ttf,
            backend=_resolve_cli_backend(args),
            cluster=args.cluster,
            placement=args.placement,
            profile=True,
            trace_path=args.trace,
            trace_limit=args.trace_limit,
        ).run(predictor)
        if profile is None:
            profile = res.profile
        else:
            profile.merge(res.profile)
        best_eps = max(best_eps, res.profile.events_per_sec)
    if args.json_out is not None:
        import json

        payload = json.dumps(profile.to_dict(), indent=1, sort_keys=True)
        if args.json_out == "-":
            print(payload)
        else:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    if args.json_out != "-":
        print(
            f"{source.name} x {res.method}: {res.num_tasks} tasks, "
            f"{res.num_failures} failures"
        )
        print(_render_profile_table(profile))
        if repeat > 1:
            print(
                f"best of {repeat} runs: {best_eps:,.0f} events/sec "
                "(merged table averages out per-run scheduler noise)"
            )
        if args.trace is not None:
            print(f"wrote Chrome trace to {args.trace}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ablations,
        cluster_scenarios,
        wfcommons_replay,
        workflow_scheduling,
        fig1_distributions,
        fig2_input_relation,
        fig7_utilization,
        fig8_main_results,
        fig9_training_time,
        fig10_alpha_sweep,
        fig11_model_selection,
        fig12_error_trend,
        table1_workflow_stats,
        table2_per_workflow,
    )

    wanted = set(args.only or _ARTIFACTS)
    s, seed = args.scale, args.seed
    if "table1" in wanted:
        table1_workflow_stats.run(seed=seed)
    if "fig1" in wanted:
        fig1_distributions.run(seed=seed)
    if "fig2" in wanted:
        fig2_input_relation.run(seed=seed)
    if "fig7" in wanted:
        fig7_utilization.run(seed=seed)
    grid = None
    if "fig8" in wanted:
        grids = fig8_main_results.run(seed=seed, scale=s)
        grid = grids[1.0]
    if "table2" in wanted:
        table2_per_workflow.run(seed=seed, scale=s, grid=grid)
    if "fig9" in wanted:
        fig9_training_time.run(seed=seed, scale=s)
    if "fig10" in wanted:
        fig10_alpha_sweep.run(seed=seed, scale=max(s, 0.2))
    if "fig11" in wanted:
        fig11_model_selection.run(seed=seed, scale=max(s, 0.3))
    if "fig12" in wanted:
        fig12_error_trend.run(seed=seed, scale=max(s, 0.3))
    if "ablations" in wanted:
        ablations.run(seed=seed, scale=max(s, 0.2))
    if "cluster" in wanted:
        cluster_scenarios.run(seed=seed, scale=min(s, 0.1))
    if "workflow-sched" in wanted:
        workflow_scheduling.run(seed=seed, scale=min(s, 0.05))
    if "wfcommons-replay" in wanted:
        wfcommons_replay.run(seed=seed, scale=min(s, 0.1))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = build_workflow_trace(args.workflow, seed=args.seed, scale=args.scale)
    stats = trace.stats()
    print(
        f"{trace.workflow}: {stats['n_instances']:.0f} instances, "
        f"{stats['n_task_types']:.0f} task types"
    )
    if args.out:
        save_trace(trace, args.out)
        print(f"wrote JSON trace to {args.out}")
    if args.jsonl:
        from repro.workflow.io import save_trace_jsonl

        save_trace_jsonl(trace, args.jsonl)
        print(f"wrote JSONL trace to {args.jsonl}")
    if args.csv:
        export_csv(trace, args.csv)
        print(f"wrote CSV table to {args.csv}")
    if args.wfcommons:
        import json as _json

        from repro.workload import trace_to_wfcommons

        with open(args.wfcommons, "w") as fh:
            _json.dump(trace_to_wfcommons(trace), fh)
        print(f"wrote WfCommons instance to {args.wfcommons}")
    if not (args.out or args.jsonl or args.csv or args.wfcommons):
        print("(use --out/--jsonl/--csv/--wfcommons to persist the trace)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.workloads is not None:
        from repro.workload import parse_workload

        workloads = {
            spec: parse_workload(spec, seed=args.seed, scale=args.scale)
            for spec in args.workloads
        }
        names = list(workloads)
    else:
        wanted = args.workflows or list(WORKFLOW_NAMES)
        workloads = {
            wf: build_workflow_trace(wf, seed=args.seed, scale=args.scale)
            for wf in wanted
        }
        names = list(workloads)
    results = run_grid(
        workloads,
        method_factories(),
        time_to_failure=args.ttf,
        n_workers=args.workers,
        backend=_resolve_cli_backend(args),
        cluster=args.cluster,
        placement=args.placement,
    )
    with_cluster = args.backend == "event"
    with_workflows = args.dag is not None or args.workflow_arrival is not None
    header = ["method", "wastage GBh", "failures", "runtime h"]
    if with_cluster:
        # Each workflow simulates on its own fresh cluster, so the only
        # honest aggregates are the back-to-back wall-clock (sum of
        # makespans) and the task-weighted mean queue wait.
        header += ["makespan h", "mean wait h"]
    if with_workflows:
        header += ["mean wf makespan h", "mean stretch"]
    rows = []
    for method in METHOD_ORDER:
        per_wf = results[method]
        row = [
            method,
            sum(r.total_wastage_gbh for r in per_wf.values()),
            sum(r.num_failures for r in per_wf.values()),
            sum(r.total_runtime_hours for r in per_wf.values()),
        ]
        if with_cluster:
            clustered = [
                r for r in per_wf.values() if r.cluster is not None
            ]
            n_tasks = sum(r.num_tasks for r in clustered)
            row += [
                sum(r.cluster.makespan_hours for r in clustered),
                (
                    sum(r.cluster.total_queue_wait_hours for r in clustered)
                    / n_tasks
                    if n_tasks
                    else 0.0
                ),
            ]
        if with_workflows:
            instances = [
                w
                for r in per_wf.values()
                if r.workflows is not None
                for w in r.workflows.instances
            ]
            n = len(instances)
            row += [
                sum(w.makespan_hours for w in instances) / n if n else 0.0,
                sum(w.stretch for w in instances) / n if n else 0.0,
            ]
        rows.append(row)
    print(
        render_table(
            header,
            rows,
            title=f"workloads: {', '.join(names)} "
            f"(scale={args.scale}, ttf={args.ttf}, backend={args.backend})",
        )
    )
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.experiments import scorecard as sc

    compare = args.compare or []
    if len(compare) > 2 or (len(compare) == 2) == (args.out is not None):
        print(
            "repro scorecard: error: use --out PATH [--compare PARENT.json], "
            "or --compare PARENT.json CHANGE.json",
            file=sys.stderr,
        )
        return 2
    try:
        parent = sc.load_scorecard(compare[0]) if compare else None
        if len(compare) == 2:
            card = sc.load_scorecard(compare[1])
        else:
            card = sc.run_scorecard(
                sc.load_spec(args.spec),
                n_workers=args.workers,
                progress=lambda line: print(line, flush=True),
            )
            sc.save_scorecard(card, args.out)
            print(f"wrote {args.out}\n")
        print(sc.render_scorecard(card))
        if parent is None:
            return 0
        checks = sc.compare(parent, card)
    except (OSError, ValueError) as exc:
        print(f"repro scorecard: error: {exc}", file=sys.stderr)
        return 2
    print("\n" + sc.render_verdict(checks))
    return 0 if all(c.passed for c in checks) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve.server import SizingServer

    server = SizingServer(
        args.host,
        args.port,
        base_seed=args.seed,
        max_tenants=args.max_tenants,
    )

    async def _main() -> None:
        await server.start()
        print(f"sizing server listening on {server.url}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(server.stop())
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - fallback path
        pass
    print("sizing server stopped")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import SizingClient

    with SizingClient(args.host, args.port) as client:
        if args.action == "healthz":
            payload = client.healthz()
        elif args.action == "metrics":
            if args.format == "prometheus":
                print(client.metrics(format="prometheus"), end="")
                return 0
            payload = client.metrics()
        elif args.action == "predict":
            payload = client.predict(
                args.tenant,
                [
                    {
                        "task_type": args.task_type,
                        "workflow": args.task_workflow,
                        "machine": args.machine,
                        "input_size_mb": args.input_mb,
                        "preset_memory_mb": args.preset_mb,
                        "instance_id": args.instance_id,
                    }
                ],
            )
        else:
            payload = client.observe(
                args.tenant,
                [
                    {
                        "task_type": args.task_type,
                        "workflow": args.task_workflow,
                        "machine": args.machine,
                        "input_size_mb": args.input_mb,
                        "peak_memory_mb": args.peak_mb,
                        "runtime_hours": args.runtime_h,
                        "allocated_mb": args.allocated_mb,
                        "instance_id": args.instance_id,
                    }
                ],
            )
    print(_json.dumps(payload, indent=2))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.loadgen import run_loadgen

    report = run_loadgen(
        args.workload,
        host=args.host,
        port=args.port,
        tenants=args.tenants,
        rate_rps=args.rate,
        batch=args.batch,
        max_tasks=args.max_tasks or None,
        observe=not args.no_observe,
        seed=args.seed,
    )
    rows = [
        [key, value]
        for key, value in report.as_dict().items()
        if not isinstance(value, dict)  # histograms go to --json only
    ]
    print(render_table(["metric", "value"], rows, title="loadgen report"))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            _json.dump(report.as_dict(), fh, indent=2)
        print(f"wrote JSON report to {args.json_out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "profile": _cmd_profile,
    "figures": _cmd_figures,
    "trace": _cmd_trace,
    "compare": _cmd_compare,
    "scorecard": _cmd_scorecard,
    "serve": _cmd_serve,
    "client": _cmd_client,
    "loadgen": _cmd_loadgen,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None or args.log_json:
        from repro.obs.log import configure_logging

        try:
            configure_logging(
                level=args.log_level or "info", json_mode=args.log_json
            )
        except ValueError as exc:
            parser.error(str(exc))
    if hasattr(args, "backend"):
        _validate_args(parser, args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
