"""Load generator: replay a WorkloadSource against a live sizing server.

The harness turns any :class:`~repro.workload.base.WorkloadSource` into
serving traffic: tasks are chunked into ``/predict`` batches, batches
are assigned round-robin to the configured tenants, and request starts
follow a seeded Poisson arrival process at the requested rate — the
serving analogue of the simulator's arrival models.  After each sized
batch the generator optionally closes the online loop, reporting each
task's ground-truth peak back through ``/observe`` exactly like an SWMS
would: a sufficient estimate becomes a successful (ledger-accounted)
run, an under-allocation becomes a failure record plus a training-only
success — mirroring the simulator's kill-and-retry outcome.

Each tenant drives its own persistent connection, so the measured
p50/p95/p99 ``/predict`` latencies and the total request rate are
end-to-end numbers (client serialization included).  They land in
``BENCH_6.json`` via ``benchmarks/test_bench_serve.py``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ConfigError
from repro.obs.metrics import LatencyHistogram
from repro.workflow.task import TaskInstance
from repro.workload.base import WorkloadSource

__all__ = ["LoadgenReport", "run_loadgen"]


@dataclass(frozen=True)
class LoadgenReport:
    """End-to-end load-generation measurements (latencies in ms).

    ``predict_latency`` is a :meth:`~repro.obs.metrics.LatencyHistogram.
    snapshot` using the same bucket bounds as the server's ``/metrics``
    histograms, so client-observed and server-observed latency
    distributions compare bucket-for-bucket.
    """

    workload: str
    n_tenants: int
    n_tasks: int
    n_predict_requests: int
    n_observe_requests: int
    n_errors: int
    n_under_allocations: int
    duration_s: float
    requests_per_sec: float
    predict_p50_ms: float
    predict_p95_ms: float
    predict_p99_ms: float
    predict_mean_ms: float
    predict_latency: dict | None = None

    def as_dict(self) -> dict:
        return asdict(self)


class _AsyncConnection:
    """Minimal HTTP/1.1 keep-alive client on asyncio streams."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure_open(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        await self._ensure_open()
        assert self._reader is not None and self._writer is not None
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self._reader.readexactly(length) if length else b""
        return status, json.loads(data.decode("utf-8")) if data else {}

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None


def _predict_item(inst: TaskInstance) -> dict:
    return {
        "task_type": inst.task_type.name,
        "workflow": inst.task_type.workflow,
        "machine": inst.machine,
        "instance_id": inst.instance_id,
        "input_size_mb": inst.input_size_mb,
        "preset_memory_mb": inst.task_type.preset_memory_mb,
    }


def _observe_items(
    batch: list[TaskInstance], results: list[dict]
) -> tuple[list[dict], int]:
    """SWMS-style feedback for one sized batch.

    Returns the observation payloads plus how many estimates fell short
    of the true peak (the under-allocation count in the report).
    """
    items: list[dict] = []
    under = 0
    for inst, result in zip(batch, results):
        estimate = float(result["estimate_mb"])
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
            under += 1
            # The failed attempt wastes its whole allocation; the retry
            # that eventually succeeds still reveals the true peak, so a
            # training-only success (allocated 0 -> no ledger row) follows.
            items.append(
                {**base, "success": False, "allocated_mb": estimate}
            )
            items.append({**base, "success": True, "allocated_mb": 0.0})
    return items, under


async def _tenant_worker(
    tenant: str,
    host: str,
    port: int,
    schedule: list[tuple[float, list[TaskInstance]]],
    t0: float,
    observe: bool,
    latencies: list[float],
    counters: dict,
) -> None:
    conn = _AsyncConnection(host, port)
    loop = asyncio.get_running_loop()
    try:
        for offset, batch in schedule:
            delay = t0 + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            payload = {
                "tenant": tenant,
                "tasks": [_predict_item(inst) for inst in batch],
            }
            start = time.perf_counter()
            status, response = await conn.request(
                "POST", "/predict", payload
            )
            latencies.append((time.perf_counter() - start) * 1e3)
            counters["predict"] += 1
            if status != 200:
                counters["errors"] += 1
                continue
            if not observe:
                continue
            items, under = _observe_items(batch, response["results"])
            counters["under"] += under
            status, _ = await conn.request(
                "POST",
                "/observe",
                {"tenant": tenant, "observations": items},
            )
            counters["observe"] += 1
            if status != 200:
                counters["errors"] += 1
    finally:
        await conn.close()


async def _run_async(
    source: WorkloadSource,
    host: str,
    port: int,
    tenant_names: list[str],
    rate_rps: float,
    batch: int,
    max_tasks: int | None,
    observe: bool,
    seed: int,
) -> LoadgenReport:
    tasks: list[TaskInstance] = []
    for inst in source.iter_tasks():
        tasks.append(inst)
        if max_tasks is not None and len(tasks) >= max_tasks:
            break
    if not tasks:
        raise ConfigError(f"workload {source.name!r} yielded no tasks")
    batches = [tasks[i : i + batch] for i in range(0, len(tasks), batch)]
    # Seeded Poisson arrivals; batch k goes to tenant k round-robin.
    rng = np.random.default_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / rate_rps, size=len(batches)))
    schedules: dict[str, list[tuple[float, list[TaskInstance]]]] = {
        name: [] for name in tenant_names
    }
    for k, b in enumerate(batches):
        name = tenant_names[k % len(tenant_names)]
        schedules[name].append((float(offsets[k]), b))

    latencies: list[float] = []
    counters = {"predict": 0, "observe": 0, "errors": 0, "under": 0}
    t0 = asyncio.get_running_loop().time()
    wall_start = time.perf_counter()
    await asyncio.gather(
        *(
            _tenant_worker(
                name,
                host,
                port,
                schedule,
                t0,
                observe,
                latencies,
                counters,
            )
            for name, schedule in schedules.items()
        )
    )
    duration = time.perf_counter() - wall_start
    lat = np.asarray(latencies, dtype=np.float64)
    hist = LatencyHistogram()
    for ms in latencies:
        hist.observe(ms / 1e3)
    n_requests = counters["predict"] + counters["observe"]
    return LoadgenReport(
        workload=source.name,
        n_tenants=len(tenant_names),
        n_tasks=len(tasks),
        n_predict_requests=counters["predict"],
        n_observe_requests=counters["observe"],
        n_errors=counters["errors"],
        n_under_allocations=counters["under"],
        duration_s=duration,
        requests_per_sec=n_requests / duration if duration > 0 else 0.0,
        predict_p50_ms=float(np.percentile(lat, 50)),
        predict_p95_ms=float(np.percentile(lat, 95)),
        predict_p99_ms=float(np.percentile(lat, 99)),
        predict_mean_ms=float(lat.mean()),
        predict_latency=hist.snapshot(),
    )


def run_loadgen(
    workload: "WorkloadSource | str",
    *,
    host: str = "127.0.0.1",
    port: int,
    tenants: "int | list[str]" = 2,
    rate_rps: float = 200.0,
    batch: int = 8,
    max_tasks: int | None = 256,
    observe: bool = True,
    seed: int = 0,
) -> LoadgenReport:
    """Replay ``workload`` against a live server; returns the report.

    ``tenants`` is either a count (names become ``tenant-0..N-1``) or an
    explicit list of tenant names.  ``rate_rps`` shapes the *arrival*
    process of predict requests; the achieved rate also includes the
    observe feedback traffic.
    """
    if isinstance(workload, str):
        from repro.workload import parse_workload

        source = parse_workload(workload, seed=seed)
    else:
        source = workload
    if isinstance(tenants, int):
        if tenants < 1:
            raise ConfigError(f"tenants must be >= 1, got {tenants}")
        tenant_names = [f"tenant-{i}" for i in range(tenants)]
    else:
        tenant_names = list(tenants)
        if not tenant_names:
            raise ConfigError("tenant name list must not be empty")
    if rate_rps <= 0:
        raise ConfigError(f"rate_rps must be > 0, got {rate_rps}")
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    return asyncio.run(
        _run_async(
            source,
            host,
            port,
            tenant_names,
            rate_rps,
            batch,
            max_tasks,
            observe,
            seed,
        )
    )
