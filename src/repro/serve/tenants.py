"""Multi-tenant predictor pools with deterministic seeds and LRU eviction.

One :class:`TenantSession` owns everything stateful about a tenant: its
:class:`~repro.core.predictor.SizeyPredictor` (and therefore its model
pools), its :class:`~repro.cluster.accounting.WastageLedger`, and its
request counters.  The :class:`TenantRegistry` creates sessions lazily
on first use — an unknown tenant name is a valid tenant that simply has
no history yet — and evicts the least-recently-used session when the
configured capacity is exceeded, so a server pointed at an unbounded
tenant population cannot grow without limit.

Seeding is deterministic per *name*: ``tenant_seed`` mixes the server's
base seed with a digest of the tenant name, so two servers started with
the same base seed hand every tenant identical model initialisation —
replaying the same observation history reproduces the same estimates
across restarts (pinned by the serve tests).
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import replace

from repro.cluster.accounting import WastageLedger
from repro.core.config import SizeyConfig
from repro.core.predictor import SizeyPredictor
from repro.errors import ConfigError
from repro.obs.metrics import LatencyHistogram
from repro.serve.protocol import ObserveItem
from repro.sim.interface import TaskSubmission

__all__ = ["tenant_seed", "TenantSession", "TenantRegistry"]


def tenant_seed(name: str, base_seed: int = 0) -> int:
    """Deterministic per-tenant seed: stable across server restarts."""
    return (int(base_seed) + zlib.crc32(name.encode("utf-8"))) % (2**31 - 1)


class TenantSession:
    """All per-tenant state behind one lock.

    The server handles requests on executor threads, so two requests for
    the *same* tenant can run concurrently; the session lock serializes
    them (predict ordering relative to observes is part of the online
    contract), while different tenants proceed fully in parallel.  The
    pool-level lock below this one keeps direct pool sharing safe too.
    """

    def __init__(
        self,
        name: str,
        config: SizeyConfig | None = None,
        base_seed: int = 0,
        clock=time.perf_counter,
    ) -> None:
        self.name = name
        self.seed = tenant_seed(name, base_seed)
        cfg = config if config is not None else SizeyConfig()
        self.config = replace(cfg, random_state=self.seed)
        self.predictor = SizeyPredictor(self.config)
        self.ledger = WastageLedger()
        self.created_at = time.time()
        self.n_predictions = 0
        self.n_observations = 0
        #: Request-latency histograms per operation (lock-wait included);
        #: ``clock`` is injectable so tests can pin deterministic buckets.
        self.latency = {
            "predict": LatencyHistogram(),
            "observe": LatencyHistogram(),
        }
        self._clock = clock
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def predict(self, tasks: list[TaskSubmission]) -> list[dict]:
        """Size a batch; each result reports its estimate and source.

        ``source`` is ``"model"`` when the tenant's pool answered and
        ``"preset"`` when the submission fell back to its user preset
        (unknown task type or below ``min_history``) — the distinction
        the paper's Phase 1 makes, surfaced so clients can tell a cold
        tenant from a warm one.
        """
        start = self._clock()
        with self._lock:
            sources = [self._source_of(task) for task in tasks]
            estimates = self.predictor.predict_batch(tasks)
            self.n_predictions += len(tasks)
            self.latency["predict"].observe(self._clock() - start)
        return [
            {"estimate_mb": float(est), "source": src}
            for est, src in zip(estimates, sources)
        ]

    def _source_of(self, task: TaskSubmission) -> str:
        key = self.predictor._key(task.task_type, task.machine)
        pool = self.predictor.pools.get(key)
        if pool is None or not pool.is_ready or (
            pool.n_observations < self.config.min_history
        ):
            return "preset"
        return "model"

    def observe(self, items: list[ObserveItem]) -> int:
        """Feed peak-memory measurements back into the tenant's models."""
        start = self._clock()
        with self._lock:
            for item in items:
                rec = item.record
                if item.allocated_mb > 0.0:
                    if rec.success:
                        self.ledger.record_success(
                            task_type=rec.task_type,
                            workflow=rec.workflow,
                            instance_id=rec.instance_id,
                            attempt=item.attempt,
                            allocated_mb=item.allocated_mb,
                            peak_memory_mb=rec.peak_memory_mb,
                            runtime_hours=rec.runtime_hours,
                        )
                    else:
                        self.ledger.record_failure(
                            task_type=rec.task_type,
                            workflow=rec.workflow,
                            instance_id=rec.instance_id,
                            attempt=item.attempt,
                            allocated_mb=item.allocated_mb,
                            peak_memory_mb=rec.peak_memory_mb,
                            time_to_failure_hours=rec.runtime_hours,
                        )
                self.predictor.observe(rec)
            self.n_observations += len(items)
            self.latency["observe"].observe(self._clock() - start)
        return len(items)

    def metrics(self) -> dict:
        """Per-tenant slice of ``GET /metrics``.

        One lock acquisition snapshots every counter and histogram
        together, so the payload is internally consistent even while
        predict/observe traffic is mutating the session concurrently.
        """
        with self._lock:
            accuracy = {
                f"{task_type}@{machine}": {
                    name: float(score)
                    for name, score in zip(
                        self.config.model_classes, pool.accuracy_scores()
                    )
                }
                for (task_type, machine), pool in sorted(
                    self.predictor.pools.items()
                )
            }
            return {
                "seed": self.seed,
                "n_predictions": self.n_predictions,
                "n_observations": self.n_observations,
                "preset_fallbacks": self.predictor.preset_fallbacks,
                "n_pools": len(self.predictor.pools),
                "model_accuracy": accuracy,
                "model_selection_shares": (
                    self.predictor.model_selection_shares()
                ),
                "latency": {
                    op: hist.snapshot()
                    for op, hist in self.latency.items()
                },
                "wastage": {
                    "total_gbh": self.ledger.total_wastage_gbh,
                    "runtime_hours": self.ledger.total_runtime_hours,
                    "failures": self.ledger.num_failures,
                    "by_task_type": self.ledger.wastage_by_task_type(),
                },
            }


class TenantRegistry:
    """Lazily-created tenant sessions with LRU capacity eviction."""

    def __init__(
        self,
        config: SizeyConfig | None = None,
        *,
        base_seed: int = 0,
        max_tenants: int = 64,
    ) -> None:
        if max_tenants < 1:
            raise ConfigError(f"max_tenants must be >= 1, got {max_tenants}")
        self.config = config
        self.base_seed = base_seed
        self.max_tenants = max_tenants
        self.evictions = 0
        self._sessions: OrderedDict[str, TenantSession] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, name: str) -> TenantSession:
        """The tenant's session, created on first use; bumps LRU rank."""
        with self._lock:
            session = self._sessions.get(name)
            if session is None:
                session = TenantSession(
                    name, config=self.config, base_seed=self.base_seed
                )
                self._sessions[name] = session
                while len(self._sessions) > self.max_tenants:
                    self._sessions.popitem(last=False)
                    self.evictions += 1
            else:
                self._sessions.move_to_end(name)
            return session

    def peek(self, name: str) -> TenantSession | None:
        """The session if resident, without creating or bumping it."""
        with self._lock:
            return self._sessions.get(name)

    def names(self) -> list[str]:
        """Resident tenant names, least- to most-recently used."""
        with self._lock:
            return list(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def metrics(self) -> dict:
        """The registry + per-tenant slice of ``GET /metrics``.

        The session list *and* the eviction counter are snapshotted in
        one lock acquisition — reading ``evictions`` unlocked could pair
        a post-eviction counter with a pre-eviction tenant list.  The
        per-session calls then run outside the registry lock (each takes
        its own session lock), so a slow tenant cannot stall ``get()``.
        """
        with self._lock:
            sessions = list(self._sessions.items())
            n_tenants = len(sessions)
            evictions = self.evictions
        return {
            "n_tenants": n_tenants,
            "max_tenants": self.max_tenants,
            "evictions": evictions,
            "tenants": {
                name: session.metrics() for name, session in sessions
            },
        }
