"""End-to-end benchmark of the Sizey reproduction, with a traced breakdown.

    python3 perfbench/run.py --workload sim_sizey --seed 1 --seconds 35 --trace 0

Workloads (see ``perfbench/README.md`` and ``BENCHMARK.json``):

- ``sim_sizey`` -- the paper's method (``make_sizey()``) on the six
  nf-core workflows, event backend, flat Poisson arrivals;
- ``sim_dag_kernel`` -- the non-learning Witt-Percentile baseline on many
  DAG-scheduled rnaseq instances, so the simulation kernel does the work;
- ``serve_sizey_full`` -- ``repro serve`` in its own process, driven by 2
  closed-loop clients in lockstep, one tenant each, full retraining on
  every update.

The benchmark measures the program from outside, in rounds of the same
size until ``--seconds`` is used up: a simulation round is one process
(``simround.py``), a serving round is one server process plus the
clients in this process.  Round ``k`` replays inputs generated from the
seed and ``k``.  Every round checks the program's outputs.  ``--trace 0``
prints the end-to-end metrics (medians over rounds, latencies pooled,
sizing quality over the first rounds, times scaled to a reference host
speed by a calibration kernel run around each round); ``--trace 1``
alternates untraced and traced rounds (``spans.py``), requires each
traced round to reproduce its untraced twin exactly, and prints the
per-layer metrics (raw times).
The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` with the metrics ``BENCHMARK.json`` declares.  A
traced run writes its spans and self-time report under ``.perfbench/``
in the repository root.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: The tail latency reported as ``*_tail_ms``.  Serving gives the fewest
#: samples (~170 predicts a run), and p90 keeps >= 10 of them beyond it.
TAIL_PERCENTILE = 90
#: End-to-end times are reported at a reference host speed.  A shared
#: host slows down by up to 2x for seconds to minutes at a time (other
#: tenants' load), so each round's times are scaled by
#: ``(CALIBRATION_REF_S / t) ** CALIBRATION_POWER``, ``t`` being the
#: calibration kernel's time measured around the round.  The reference
#: only sets the scale: the kernel took about 30 ms on the 2-vCPU x86-64
#: VM the bounds were set on, when that host was quiet.  On that VM the
#: serving workload slowed by about the square root of the kernel's
#: slowdown and the simulations by between that and all of it, so the
#: square root left the smallest ten-seed spreads.
CALIBRATION_REF_S = 0.030
CALIBRATION_POWER = 0.5
#: Untraced rounds per run, at least; the sizing-quality metrics come
#: from these, so they are the same for a seed whatever the host speed.
MIN_ROUNDS = 3
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150

#: serve_sizey_full: one tenant per client, each replaying the first
#: SERVE_TASKS tasks of its own trace (submission order) in every round.
SERVE_TENANTS = ("rnaseq", "chipseq")
SERVE_TRACE_SCALE = 0.25
SERVE_TASKS = 96
SERVE_BATCH = 8

#: The model families whose per-slot costs the traced runs report.
SLOTS = ("linear", "knn", "mlp", "random_forest")


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]
    }


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def _mono() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _calibration_kernel() -> float:
    """Fixed work that does not use the program: dict and sort work on
    Python objects plus small numpy calls, the two kinds of work the
    workloads spend their time in."""
    table = {}
    for i in range(60_000):
        table[(i % 977, i)] = i * 0.5
    acc = sorted(table.values(), reverse=True)[0]
    a = np.arange(512.0).reshape(64, 8) / 512.0
    w = np.linspace(0.0, 1.0, 8)
    for _ in range(2000):
        y = a @ w
        acc += float(y.mean()) + float(y[np.argsort(y)[3]])
    return acc


def calibrate() -> float:
    """Seconds the calibration kernel takes now (median of 3)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - start)
    return median(times)


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise BenchError("percentile of no samples")
    k = (len(xs) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spans_path(args) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}.spans.json"


def round_seed(seed: int, k: int) -> int:
    """Seed of the inputs of round ``k``: each round replays new inputs."""
    return seed * 1000 + k


# ----------------------------------------------------------------------
# simulation rounds
# ----------------------------------------------------------------------


def sim_round(args, traced: bool, k: int) -> dict:
    """One ``simround.py`` process; its report in the common round shape."""
    cmd = [
        sys.executable, str(HERE / "simround.py"),
        "--workload", args.workload, "--seed", str(round_seed(args.seed, k)),
        "--size", repr(args.size),
    ]
    if traced:
        cmd += ["--traced", "--spans-out", str(_spans_path(args))]
    spawned = _mono()
    proc = subprocess.Popen(
        cmd + ["--spawned", repr(spawned)],
        stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} round exceeded {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} round exited with {proc.returncode}")
    r = json.loads(out.strip().splitlines()[-1])
    outs = r["outputs"]
    tasks = sum(o["tasks"] for o in outs)
    round_ = {
        "setup_s": r["setup_s"],
        "maxrss_mb": r["maxrss_mb"],
        "tasks": tasks,
        "work_s": r["timed_s"],
        "wall_s": r["build_s"] + r["timed_s"],
        "outputs": outs,
        "quality": {
            "tasks": tasks,
            "wastage_gbh": sum(o["wastage_gbh"] for o in outs),
            "preset_wastage_gbh": sum(o["preset_wastage_gbh"] for o in outs),
            "failures": sum(o["failures"] for o in outs),
            "makespan_h": sum(o["makespan_h"] for o in outs),
        },
        "errors": r["errors"],
        "attempted": r["runs"],
        "failed": r["failed_runs"],
        "build_tasks": r["build_tasks"],
    }
    if traced:
        layers = r["layers"]
        round_.update(
            layers=layers,
            sized_tasks=r["sized_tasks"],
            preset_tasks=r["preset_tasks"],
            covered_s=sum(row["self_ns"] for row in layers.values()) / 1e9,
        )
    else:
        round_["latency_ms"] = {
            "predict": [ns / 1e6 for ns in r["latency_ns"]["sizing"]],
            "observe": [ns / 1e6 for ns in r["latency_ns"]["learning"]],
        }
        round_["mean_ms"] = {
            op: sum(ms) / len(ms) for op, ms in round_["latency_ms"].items()
        }
    return round_


# ----------------------------------------------------------------------
# serving rounds
# ----------------------------------------------------------------------


def _predict_item(inst) -> dict:
    return {
        "task_type": inst.task_type.name,
        "workflow": inst.task_type.workflow,
        "machine": inst.machine,
        "instance_id": inst.instance_id,
        "input_size_mb": inst.input_size_mb,
        "preset_memory_mb": inst.task_type.preset_memory_mb,
    }


def _observe_items(batch, estimates: list[float]) -> tuple[list[dict], list]:
    """SWMS-style feedback: a run per task, plus a retry when under-sized.

    An estimate below the true peak is a killed attempt (ledger failure)
    followed by a training-only success (``allocated_mb`` 0, no ledger
    row), the same feedback ``repro loadgen`` sends.
    """
    items, under = [], []
    for inst, estimate in zip(batch, estimates):
        base = {
            "task_type": inst.task_type.name,
            "workflow": inst.task_type.workflow,
            "machine": inst.machine,
            "instance_id": inst.instance_id,
            "input_size_mb": inst.input_size_mb,
            "peak_memory_mb": inst.peak_memory_mb,
            "runtime_hours": inst.runtime_hours,
        }
        if estimate >= inst.peak_memory_mb:
            items.append({**base, "success": True, "allocated_mb": estimate})
        else:
            under.append(inst)
            items.append({**base, "success": False, "allocated_mb": estimate})
            items.append({**base, "success": True, "allocated_mb": 0.0})
    return items, under


class _Client:
    """One closed-loop client: a tenant on its own keep-alive connection.

    The two clients move in lockstep steps, half a cycle apart: in every
    step one tenant's ``/observe`` trains while the other tenant's
    ``/predict`` is served, so each predict waits behind the other
    tenant's training the same way in every round.
    """

    def __init__(self, port: int, tenant: str, tasks: list,
                 step: threading.Barrier, lag: int, steps: int) -> None:
        self.port = port
        self.tenant = tenant
        self.tasks = tasks
        self.step = step
        self.lag = lag
        self.steps = steps
        self.latency_ms = {"predict": [], "observe": []}
        self.requests = 0
        self.bad = 0
        self.errors: list[str] = []
        self.estimates: list[float] = []
        self.observations = 0
        self.serial_hours = 0.0

    def _post(self, conn, path: str, payload: dict) -> tuple[int, dict]:
        body = json.dumps(payload)
        start = time.perf_counter()
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        self.latency_ms[path.strip("/")].append((time.perf_counter() - start) * 1e3)
        self.requests += 1
        if resp.status != 200:
            self.bad += 1
            self.errors.append(f"{self.tenant} {path}: HTTP {resp.status}")
            return resp.status, {}
        return resp.status, json.loads(data)

    def _predict(self, conn, batch) -> list[float] | None:
        status, reply = self._post(conn, "/predict", {
            "tenant": self.tenant,
            "tasks": [_predict_item(inst) for inst in batch],
        })
        if status != 200:
            return None
        estimates = [float(r["estimate_mb"]) for r in reply["results"]]
        if len(estimates) != len(batch) or min(estimates) <= 0.0:
            self.errors.append(f"{self.tenant}: bad estimates {estimates}")
        self.estimates.extend(estimates)
        return estimates

    def _observe(self, conn, batch, estimates: list[float]) -> None:
        items, under = _observe_items(batch, estimates)
        status, reply = self._post(conn, "/observe", {
            "tenant": self.tenant, "observations": items,
        })
        if status == 200:
            self.observations += len(items)
            if reply.get("n_observed") != len(items):
                self.errors.append(f"{self.tenant}: observe count mismatch")
        # One task at a time on one slot; a kill costs its runtime.
        self.serial_hours += sum(t.runtime_hours for t in batch + under)

    def run(self) -> None:
        batches = [
            self.tasks[i : i + SERVE_BATCH]
            for i in range(0, len(self.tasks), SERVE_BATCH)
        ]
        # Step s: predict batch (s - lag) // 2 on even offsets, observe it
        # on odd ones; steps outside this client's batches are idle.
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        estimates = None
        try:
            for s in range(self.steps):
                self.step.wait()
                b, phase = divmod(s - self.lag, 2)
                if not 0 <= b < len(batches):
                    continue
                if phase == 0:
                    estimates = self._predict(conn, batches[b])
                elif estimates is not None:
                    self._observe(conn, batches[b], estimates)
        except (OSError, http.client.HTTPException, ValueError, KeyError,
                threading.BrokenBarrierError) as exc:
            self.step.abort()
            self.requests += 1
            self.bad += 1
            self.errors.append(f"{self.tenant}: {exc!r}")
        finally:
            conn.close()


def _get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise BenchError(f"GET {path}: HTTP {resp.status}")
        return json.loads(data)
    finally:
        conn.close()


class _Server:
    """``repro serve`` (or, traced, the span launcher) in its own process."""

    def __init__(self, seed: int, spans_out: Path | None) -> None:
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                   "--spans-out", str(spans_out)]
        cmd += ["--port", "0", "--seed", str(seed)]
        launched = _mono()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise BenchError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            _get_json(self.port, "/healthz")
        except BaseException:
            self.stop()
            raise
        self.setup_s = _mono() - launched

    def stop(self) -> None:
        """SIGTERM and wait (SIGKILL after 30 s)."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"server exited with {self.proc.returncode}")


def serve_round(args, traced: bool, k: int) -> dict:
    """Fresh server, both tenants replay their tasks, read /metrics, stop."""
    from repro.workflow.nfcore import build_workflow_trace

    from simround import peak_rss_mb, preset_wastage_gbh

    seed = round_seed(args.seed, k)
    build_start = time.perf_counter()
    scale = min(1.0, SERVE_TRACE_SCALE * args.size)
    n = max(SERVE_BATCH, round(SERVE_TASKS * args.size))
    tasks = {
        name: list(build_workflow_trace(name, seed=seed, scale=scale))[:n]
        for name in SERVE_TENANTS
    }
    build_s = time.perf_counter() - build_start

    server = _Server(seed, _spans_path(args) if traced else None)
    try:
        step = threading.Barrier(len(tasks), timeout=120)
        steps = 2 * -(-n // SERVE_BATCH) + 1
        clients = [
            _Client(server.port, name, ts, step, lag, steps)
            for lag, (name, ts) in enumerate(tasks.items())
        ]
        threads = [threading.Thread(target=c.run) for c in clients]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        replay_s = time.perf_counter() - start
        start = time.perf_counter()
        snapshot = _get_json(server.port, "/metrics")
        finalize_s = time.perf_counter() - start
        rss = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()

    errors = [e for c in clients for e in c.errors]
    tenants = snapshot["registry"]["tenants"]
    outputs = []
    for c in clients:
        t = tenants.get(c.tenant)
        if t is None:
            errors.append(f"tenant {c.tenant} missing from /metrics")
            continue
        if t["n_observations"] != c.observations:
            errors.append(f"{c.tenant}: server counted {t['n_observations']} "
                          f"observations, client sent {c.observations}")
        if len(c.estimates) != len(c.tasks):
            errors.append(f"{c.tenant}: {len(c.estimates)} estimates for "
                          f"{len(c.tasks)} tasks")
        outputs.append([c.tenant, c.estimates, t["wastage"]["total_gbh"],
                        t["wastage"]["failures"], t["n_observations"]])
    n_tasks = sum(len(c.tasks) for c in clients)
    latency = {
        op: [ms for c in clients for ms in c.latency_ms[op]]
        for op in ("predict", "observe")
    }
    round_ = {
        "setup_s": server.setup_s,
        "maxrss_mb": rss,
        "tasks": n_tasks,
        "work_s": replay_s,
        "wall_s": replay_s,
        "outputs": outputs,
        "quality": {
            "tasks": n_tasks,
            "wastage_gbh": sum(o[2] for o in outputs),
            "preset_wastage_gbh": sum(preset_wastage_gbh(ts) for ts in tasks.values()),
            "failures": sum(o[3] for o in outputs),
            "makespan_h": max(c.serial_hours for c in clients),
        },
        "errors": errors,
        "attempted": sum(c.requests for c in clients) + 1,
        "failed": sum(c.bad for c in clients) + (1 if errors else 0),
        "build_tasks": n_tasks,
        "latency_ms": latency,
    }
    if traced:
        from spans import layer_report

        with open(_spans_path(args)) as fh:
            layers = layer_report(json.load(fh)["spans"])
        for label, seconds in (("workload.build", build_s), ("finalize", finalize_s)):
            ns = int(seconds * 1e9)
            layers[label] = {"calls": 1, "total_ns": ns, "self_ns": ns}
        session = {
            op: [sum(t["latency"][op][key] for t in tenants.values())
                 for key in ("sum_s", "count")]
            for op in ("predict", "observe")
        }
        client_s = sum(sum(v) for v in latency.values()) / 1e3
        session_s = session["predict"][0] + session["observe"][0]
        spans_s = sum(layers.get(k, {"total_ns": 0})["total_ns"]
                      for k in ("sizing", "learning")) / 1e9
        round_.update(
            layers=layers,
            sized_tasks=n_tasks,
            preset_tasks=sum(t["preset_fallbacks"] for t in tenants.values()),
            session=session,
            client_s=client_s,
            n_requests=sum(len(v) for v in latency.values()),
            # Client request time = transport (client minus server session
            # time) + session; spans cover the session's sizing and
            # learning, the rest of it is lock wait and request glue.
            covered_s=spans_s + client_s - session_s,
            coverage_wall_s=client_s,
        )
    return round_


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

WORKLOADS = {
    "sim_sizey": sim_round,
    "sim_dag_kernel": sim_round,
    "serve_sizey_full": serve_round,
}


def run_rounds(args, start: float):
    """Rounds until ``--seconds`` is used up.

    Round ``k`` of each kind replays the inputs of ``round_seed(seed, k)``.
    With ``--trace 1`` untraced and traced rounds alternate, so both see
    the same host conditions and the traced round ``k`` must reproduce
    the untraced round ``k``'s outputs exactly.  Each round carries its
    ``host_scale`` from the mean of the calibration times measured just
    before and just after it (see ``CALIBRATION_REF_S``).
    Returns (untraced, traced, calibration times, errors, attempted,
    failed).
    """
    round_fn = WORKLOADS[args.workload]
    deadline = start + args.seconds
    plain, traced, cals = [], [], [calibrate()]
    while True:
        is_traced = bool(args.trace) and len(plain) > len(traced)
        t0 = _mono()
        r = round_fn(args, is_traced, len(traced) if is_traced else len(plain))
        r["duration_s"] = _mono() - t0
        (traced if is_traced else plain).append(r)
        cals.append(calibrate())
        r["host_scale"] = (
            CALIBRATION_REF_S / ((cals[-2] + cals[-1]) / 2)
        ) ** CALIBRATION_POWER
        if args.trace:
            enough = len(traced) >= 1 and len(traced) == len(plain)
        else:
            enough = len(plain) >= MIN_ROUNDS
        longest = max(x["duration_s"] for x in plain + traced)
        if enough and _mono() + longest > deadline:
            break
    rounds = plain + traced
    errors = [e for r in rounds for e in r["errors"]]
    for k, (a, b) in enumerate(zip(plain, traced)):
        if a["outputs"] != b["outputs"]:
            errors.append(f"round {k}: traced outputs differ from untraced")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return plain, traced, cals, errors, attempted, failed


def _p50_ms(plain: list[dict], op: str) -> float:
    """Serving: p50 of the pooled client round trips.

    Simulations: median over rounds of a round's mean call time.  Their
    per-call times mix calls answered from presets with calls that query
    one to four fitted models, and the pooled p50 jumped between those
    modes from seed to seed.
    """
    if "mean_ms" in plain[0]:
        return median(r["mean_ms"][op] * r["host_scale"] for r in plain)
    return percentile(_latencies(plain, op), 50)


def _latencies(plain: list[dict], op: str) -> list[float]:
    """Every round's call times of ``op``, each scaled by its round's host."""
    return [ms * r["host_scale"] for r in plain for ms in r["latency_ms"][op]]


def end_to_end(plain: list[dict]) -> tuple[dict, dict]:
    quality = [r["quality"] for r in plain[:MIN_ROUNDS]]
    q = {key: sum(x[key] for x in quality) for key in quality[0]}
    predict = _latencies(plain, "predict")
    observe = _latencies(plain, "observe")
    metrics = {
        "tasks_per_sec": median(
            r["tasks"] / (r["work_s"] * r["host_scale"]) for r in plain
        ),
        "setup_s": median(r["setup_s"] * r["host_scale"] for r in plain),
        "peak_rss_mb": median(r["maxrss_mb"] for r in plain),
        "wastage_vs_presets": q["wastage_gbh"] / q["preset_wastage_gbh"],
        "retries_per_task": q["failures"] / q["tasks"],
        "makespan_h": q["makespan_h"] / len(quality),
        "predict_p50_ms": _p50_ms(plain, "predict"),
        "predict_tail_ms": percentile(predict, TAIL_PERCENTILE),
        "observe_p50_ms": _p50_ms(plain, "observe"),
        "observe_tail_ms": percentile(observe, TAIL_PERCENTILE),
    }
    info = {"rounds": len(plain), "predict_samples": len(predict),
            "observe_samples": len(observe)}
    return metrics, info


def _pool_metrics(layers: dict, n: int) -> dict:
    """Per-slot train/predict cost per call, and train calls per round."""
    zero = {"calls": 0, "total_ns": 0}
    out = {}
    for slot in SLOTS:
        train = layers.get(f"pool.{slot}.train", zero)
        pred = layers.get(f"pool.{slot}.predict", zero)
        out[f"pool.{slot}.train_us"] = train["total_ns"] / 1e3 / max(train["calls"], 1)
        out[f"pool.{slot}.train_calls"] = train["calls"] / n
        out[f"pool.{slot}.predict_us"] = pred["total_ns"] / 1e3 / max(pred["calls"], 1)
    preq = layers.get("pool.prequential", zero)["total_ns"]
    updates = layers.get("modelpool.update", zero)["calls"]
    out["pool.prequential_us"] = preq / 1e3 / max(updates, 1)
    return out


def per_layer(plain: list[dict], traced: list[dict], cals: list[float]):
    n = len(traced)
    layers: dict[str, dict] = {}
    for r in traced:
        for label, row in r["layers"].items():
            acc = layers.setdefault(label, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for key in acc:
                acc[key] += row[key]
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def total_s(label: str) -> float:
        return layers.get(label, zero)["total_ns"] / 1e9 / n

    def calls(label: str) -> float:
        return layers.get(label, zero)["calls"] / n

    q = {key: sum(r["quality"][key] for r in traced) / n for key in traced[0]["quality"]}
    sized = sum(r["sized_tasks"] for r in traced) / n
    kernel_self = layers.get("run", zero)["self_ns"] / 1e9 / n
    # Only a simulation has a kernel: the run span around OnlineSimulator.run.
    attempts = q["tasks"] + q["failures"] if "run" in layers else 0
    metrics = {
        "host.calibration_ms": 1e3 * median(cals),
        "trace.overhead_share": (
            median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in plain)
            - 1.0
        ),
        "trace.coverage_share": (
            sum(r["covered_s"] for r in traced)
            / sum(r.get("coverage_wall_s", r["wall_s"]) for r in traced)
        ),
        "workload.build_s": total_s("workload.build"),
        "workload.tasks_per_sec": traced[0]["build_tasks"] / total_s("workload.build"),
        "sizing.calls": calls("sizing"),
        "sizing.tasks": sized,
        "sizing.s": total_s("sizing"),
        "sizing.us_per_task": total_s("sizing") * 1e6 / max(sized, 1),
        "sizing.preset_fallback_share": (
            sum(r["preset_tasks"] for r in traced) / n / max(sized, 1)
        ),
        "sizing.wastage_gbh": q["wastage_gbh"],
        "learning.calls": calls("learning"),
        "learning.s": total_s("learning"),
        "learning.us_per_observe": (
            total_s("learning") * 1e6 / max(calls("learning"), 1)
        ),
        "failure.s": total_s("failure"),
        **_pool_metrics(layers, n),
        "kernel.self_s": kernel_self,
        "kernel.attempts": attempts,
        "kernel.events_per_sec": 2 * attempts / kernel_self if kernel_self else 0.0,
        "finalize.s": total_s("finalize"),
        "serve.session_predict_ms": 0.0,
        "serve.session_observe_ms": 0.0,
        "serve.transport_ms": 0.0,
    }
    info = {"rounds": len(plain), "traced_rounds": n, "layers": layers}
    if "session" in traced[0]:
        session = {
            op: [sum(r["session"][op][i] for r in traced) for i in (0, 1)]
            for op in ("predict", "observe")
        }
        client_s = sum(r["client_s"] for r in traced)
        session_s = session["predict"][0] + session["observe"][0]
        metrics.update({
            "serve.session_predict_ms": 1e3 * session["predict"][0] / session["predict"][1],
            "serve.session_observe_ms": 1e3 * session["observe"][0] / session["observe"][1],
            "serve.transport_ms": (
                1e3 * (client_s - session_s) / sum(r["n_requests"] for r in traced)
            ),
        })
        info["client_observe_p50_ms"] = percentile(
            [ms for r in traced for ms in r["latency_ms"]["observe"]], 50
        )
    return metrics, info


def _report(workload: str, metrics: dict, info: dict) -> str:
    """Human-readable self-time report of a traced run."""
    lines = [f"traced self-time report: {workload}"]
    layers = info["layers"]
    n = info["traced_rounds"]
    total = sum(row["self_ns"] for row in layers.values()) or 1
    for label, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(
            f"  {label:<28} self {row['self_ns'] / 1e9 / n:9.4f} s/round "
            f"{100.0 * row['self_ns'] / total:6.2f}%  calls {row['calls'] / n:10.1f}"
        )
    lines.append(f"  layer self time / traced wall: {metrics['trace.coverage_share']:.4f}")
    lines.append(f"  trace.overhead_share: {metrics['trace.overhead_share']:.4f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=float, default=1.0,
                    help="scale factor on the workload size (smoke tests)")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    try:
        plain, traced, cals, errors, attempted, failed = run_rounds(args, _mono())
        if args.trace:
            values, info = per_layer(plain, traced, cals)
        else:
            values, info = end_to_end(plain)
            info["calibration_ms"] = 1e3 * median(cals)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        report = _report(args.workload, values, info)
        print(report)
        (OUT / f"{args.workload}-seed{args.seed}.report.txt").write_text(report + "\n")
        del info["layers"]
    print(json.dumps({"workload": args.workload, **info}))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in declared_units(bool(args.trace)).items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
