"""Observability: kernel phase profiling, trace export, logs, metrics.

The ``repro.obs`` package is the always-available, off-by-default
observability layer spanning the simulation kernel, the serve subsystem,
and the CLI:

- :mod:`repro.obs.profile` — the kernel **phase profiler**: a
  :class:`~repro.obs.profile.PhaseTimer` seam around the kernel's
  size→place→run→kill/resize lifecycle, accumulating per-phase
  wall-time / call-count counters into a
  :class:`~repro.obs.profile.KernelProfile` attached to
  :class:`~repro.sim.results.SimulationResult` (and merged across
  shards).  Its laps sit in the kernel's one event loop, each behind an
  ``is not None`` check on the timer, so a run with profiling off never
  reads the clock.  Enable with ``profile=True`` on the kernel /
  backend / ``OnlineSimulator`` or via ``repro profile`` on the CLI.
- :mod:`repro.obs.trace` — a composable
  :class:`~repro.obs.trace.TraceCollector` emitting Chrome
  ``trace_event`` JSON (load it in ``about:tracing`` or
  https://ui.perfetto.dev) with per-node tracks for task occupancy,
  kills, resizes, outages, and a cluster-wide queue-depth counter.
  ``repro simulate --trace out.json`` on the CLI.
- :mod:`repro.obs.log` — structured run logging on stdlib ``logging``:
  a JSON formatter, ``run_id`` / ``tenant`` / ``shard`` context fields
  via :func:`~repro.obs.log.log_context`, and the ``--log-level`` /
  ``--log-json`` CLI flags.
- :mod:`repro.obs.metrics` — Prometheus-style serve metrics: fixed
  log-spaced latency histograms
  (:class:`~repro.obs.metrics.LatencyHistogram`) backed by the
  deterministic :class:`~repro.sim.sketches.QuantileSketch`, and the
  text exposition renderer behind ``GET /metrics?format=prometheus``.

Everything here is measurement: enabling any of it never changes
simulation results (pinned bit-for-bit by the golden regression tests).
"""

from __future__ import annotations

__all__ = [
    "KernelProfile",
    "PhaseTimer",
    "TraceCollector",
    "LatencyHistogram",
    "configure_logging",
    "get_logger",
    "log_context",
]


def __getattr__(name: str):
    # Lazy re-exports: the kernel imports repro.obs.profile on its hot
    # construction path, and must not drag in the trace/metrics modules
    # (and their collector/sketch imports) with it.
    if name in ("KernelProfile", "PhaseTimer"):
        from repro.obs import profile

        return getattr(profile, name)
    if name == "TraceCollector":
        from repro.obs.trace import TraceCollector

        return TraceCollector
    if name == "LatencyHistogram":
        from repro.obs.metrics import LatencyHistogram

        return LatencyHistogram
    if name in ("configure_logging", "get_logger", "log_context"):
        from repro.obs import log

        return getattr(log, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
