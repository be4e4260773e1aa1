"""Sizey reproduction: memory-efficient execution of scientific workflow tasks.

This package reproduces Bader et al., *"Sizey: Memory-Efficient Execution of
Scientific Workflow Tasks"*, IEEE CLUSTER 2024 (arXiv:2407.16353), together
with every substrate the evaluation depends on:

- :mod:`repro.ml` -- a from-scratch NumPy machine-learning library providing
  the four regressor families Sizey uses (linear, k-nearest-neighbours,
  multi-layer perceptron, random forest) plus scalers, metrics, and
  hyper-parameter search.
- :mod:`repro.workflow` -- scientific-workflow task model and a synthetic
  trace generator calibrated to the paper's six nf-core workflows.
- :mod:`repro.provenance` -- the provenance database Sizey queries online.
- :mod:`repro.cluster` -- a simulated cluster resource manager (nodes,
  placement policies, the allocation cap) with GBh wastage accounting.
- :mod:`repro.core` -- Sizey itself: RAQ scoring, gating, offsets,
  failure handling, and online learning.
- :mod:`repro.baselines` -- the four state-of-the-art baselines plus the
  Workflow-Presets sanity baseline.
- :mod:`repro.sim` -- the online simulator used by the evaluation: one
  discrete-event kernel that enforces strict memory limits (paper
  assumption A3), behind two backends — the paper-faithful serialized
  ``"replay"``, one task in flight, and a concurrent ``"event"`` engine
  that measures queueing wait, makespan, and per-node utilization.
  Predictors speak the v2 contract: vectorized ``predict_batch`` (the
  one sizing path; per-task ``predict`` derives from it, or the other
  way round), and the ``begin_trace``/``end_trace`` lifecycle hooks.
- :mod:`repro.sched` -- DAG-aware workflow scheduling on top of the
  event backend: whole workflow instances (multi-tenant arrivals) whose
  tasks are released only as dependencies succeed, with per-workflow
  makespan / critical-path / stretch metrics
  (``EventDrivenBackend(dag=..., workflow_arrival=...)``).
- :mod:`repro.experiments` -- regenerators for every table and figure.

Quickstart::

    from repro import SizeyPredictor, SizeyConfig
    from repro.workflow.nfcore import build_workflow_trace
    from repro.sim import OnlineSimulator

    trace = build_workflow_trace("rnaseq", seed=7)
    sizey = SizeyPredictor(SizeyConfig(alpha=0.0, gating="interpolation"))
    result = OnlineSimulator(trace).run(sizey)
    print(result.total_wastage_gbh, result.num_failures)

    # Cluster-level view: same trace, concurrent event-driven execution.
    result = OnlineSimulator(trace, backend="event").run(
        SizeyPredictor(SizeyConfig())
    )
    print(result.cluster.makespan_hours, result.cluster.mean_utilization)
"""

__version__ = "1.9.0"

__all__ = ["SizeyPredictor", "SizeyConfig", "__version__"]


def __getattr__(name: str):
    # Lazy re-exports keep `import repro.ml` cheap: the core package pulls
    # in the full prediction stack, which substrate-only users don't need.
    if name == "SizeyPredictor":
        from repro.core.predictor import SizeyPredictor

        return SizeyPredictor
    if name == "SizeyConfig":
        from repro.core.config import SizeyConfig

        return SizeyConfig
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
