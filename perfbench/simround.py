"""One measured round of a simulation workload, run in its own process.

A round is what one ``repro simulate`` user pays: interpreter start and
imports, trace build and backend construction (the set-up), then the
simulations and the reads of their reported result fields (the timed
region).  The parent passes the monotonic time at which it spawned this
process, so set-up includes interpreter start.  The round prints one
JSON object on its last stdout line.

    python3 perfbench/simround.py --workload sim_sizey --seed 1 \\
        --spawned <CLOCK_MONOTONIC seconds> [--traced --spans-out PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from repro.experiments.factories import make_sizey, make_witt_percentile
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.workflow.nfcore import WORKFLOW_NAMES, build_workflow_trace

from spans import (
    LatencyLog,
    ProbedPredictor,
    SpanRecorder,
    install_slot_spans,
    layer_report,
)

#: sim_sizey: the paper's method on all six nf-core workflows back to
#: back, a fresh predictor each (how Fig. 8 is produced), flat Poisson
#: arrivals at 50 tasks/h.  sim_dag_kernel: the non-learning
#: Witt-Percentile baseline on many DAG-scheduled rnaseq instances, so
#: the kernel, ready sets, placement and collectors do the work.
WORKLOADS = {
    "sim_sizey": {
        "workflows": WORKFLOW_NAMES,
        "trace_scale": 0.1,
        "arrival": "poisson:50",
        "instances": None,
        "method": make_sizey,
    },
    "sim_dag_kernel": {
        "workflows": ("rnaseq",),
        "trace_scale": 1.0,
        "arrival": None,
        "instances": 64,
        "method": make_witt_percentile,
    },
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def preset_wastage_gbh(tasks) -> float:
    """What the user presets would waste on ``tasks`` (they never fail)."""
    return sum(
        (t.task_type.preset_memory_mb - t.peak_memory_mb) * t.runtime_hours
        for t in tasks
    ) / 1024.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak resident set size (``VmHWM``) in MB.

    Not ``getrusage``: a spawned child's ``ru_maxrss`` starts at its
    parent's resident set, so it would report the benchmark's memory.
    """
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _build(spec: dict, seed: int, size: float):
    """Simulators for one round, each with its trace and instance count."""
    scale = min(1.0, spec["trace_scale"] * size) if spec["instances"] is None else 1.0
    runs = []
    for name in spec["workflows"]:
        trace = build_workflow_trace(name, seed=seed, scale=scale)
        if spec["instances"] is None:
            copies = 1
            backend = EventDrivenBackend(arrival=spec["arrival"], seed=seed)
            sim = OnlineSimulator(trace, backend=backend)
        else:
            copies = max(1, round(spec["instances"] * size))
            backend = EventDrivenBackend(seed=seed)
            sim = OnlineSimulator(
                trace, backend=backend, workflow_arrival=f"{copies}@poisson:2"
            )
        runs.append((sim, trace, copies))
    return runs


def _finalize(result) -> dict:
    """The reported result fields a user reads after a run."""
    return {
        "tasks": result.num_tasks,
        "wastage_gbh": result.total_wastage_gbh,
        "failures": result.num_failures,
        "failure_distribution": result.failure_distribution().tolist(),
        "makespan_h": result.cluster.makespan_hours,
    }


def _check(result, out: dict, expected_tasks: int) -> list[str]:
    errors = []
    if out["tasks"] != expected_tasks:
        errors.append(
            f"{result.workflow}: {out['tasks']} of {expected_tasks} tasks finished"
        )
    by_type = sum(result.wastage_by_task_type().values())
    if abs(by_type - out["wastage_gbh"]) > 1e-6 * max(1.0, out["wastage_gbh"]):
        errors.append(
            f"{result.workflow}: per-type wastage {by_type} != total "
            f"{out['wastage_gbh']}"
        )
    if sum(out["failure_distribution"]) != out["failures"]:
        errors.append(f"{result.workflow}: failure distribution != failures")
    return errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--size", type=float, default=1.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    if args.traced:
        probe = SpanRecorder()
        install_slot_spans(probe)
    else:
        probe = LatencyLog()
    call = probe.call

    build_start = _now()
    runs = call("workload.build", _build, spec, args.seed, args.size)
    setup_end = _now()
    gc.collect()

    finished, errors, predictors = [], [], []
    failed_runs = 0
    timed_start = _now()
    for sim, trace, copies in runs:
        predictor = ProbedPredictor(spec["method"](), probe)
        predictors.append(predictor)
        try:
            result = call("run", sim.run, predictor)
            finished.append((result, call("finalize", _finalize, result), trace, copies))
        except Exception as exc:  # noqa: BLE001 - a failed run is reported
            errors.append(f"run raised {exc!r}")
            failed_runs += 1
    timed_s = _now() - timed_start

    outputs = []
    for result, out, trace, copies in finished:
        problems = _check(result, out, copies * len(trace))
        errors.extend(problems)
        failed_runs += bool(problems)
        out["preset_wastage_gbh"] = copies * preset_wastage_gbh(trace)
        outputs.append(out)
    report = {
        "setup_s": setup_end - args.spawned,
        "build_s": setup_end - build_start,
        "timed_s": timed_s,
        "runs": len(runs),
        "failed_runs": failed_runs,
        "build_tasks": sum(len(trace) for _, trace, _ in runs),
        "outputs": outputs,
        "errors": errors,
        "maxrss_mb": peak_rss_mb(),
    }
    if args.traced:
        rows = probe.rows()
        report["layers"] = layer_report(rows)
        report["sized_tasks"] = sum(p.sized_tasks for p in predictors)
        report["preset_tasks"] = sum(p.preset_tasks for p in predictors)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                           "spans": rows}, fh)
    else:
        report["latency_ns"] = {
            op: probe.ns.get(op, []) for op in ("sizing", "learning")
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
