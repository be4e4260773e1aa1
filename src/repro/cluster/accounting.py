"""Wastage accounting: the evaluation's headline metric.

The paper reports *memory wastage over time* in gigabyte-hours (GBh).
Definition used here (matching the paper's semantics):

- A **successful** attempt wastes ``(allocated - peak) * runtime`` — the
  over-provisioned slice of memory is held for the task's whole runtime.
- A **failed** attempt (under-allocation, killed at the limit) wastes
  ``allocated * time_to_failure`` — everything that was allocated was
  held without producing a result, for the fraction of the runtime the
  task survived.

Total runtime per method (Fig. 8d) is the sum of successful runtimes
plus the time lost in failed attempts — which is why failure-prone
methods show higher aggregate runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import defaultdict

__all__ = ["AttemptOutcome", "WastageLedger"]

_MB_PER_GB = 1024.0


@dataclass(frozen=True)
class AttemptOutcome:
    """Outcome of one execution attempt of one task instance."""

    task_type: str
    workflow: str
    instance_id: int
    attempt: int
    allocated_mb: float
    peak_memory_mb: float
    runtime_hours: float
    success: bool
    wastage_gbh: float

    @property
    def over_allocation_mb(self) -> float:
        return max(self.allocated_mb - self.peak_memory_mb, 0.0)


class WastageLedger:
    """Accumulates wastage, runtime, and failure statistics per task type.

    With ``keep_outcomes=False`` the per-attempt :class:`AttemptOutcome`
    list is dropped and only the running aggregates are maintained —
    the streaming-collector mode for million-task runs, where the
    outcome list would be the largest allocation of the whole process.
    Totals, per-type breakdowns, and :meth:`merge` behave identically
    either way.
    """

    def __init__(self, keep_outcomes: bool = True) -> None:
        self.keep_outcomes = keep_outcomes
        # Columnar storage: one plain tuple per attempt, in
        # :class:`AttemptOutcome` field order.  Building the frozen
        # dataclass per attempt was a top-five cost of the kernel hot
        # path; the object view is materialized lazily (and cached) by
        # :attr:`outcomes`.
        self._outcomes: list[tuple] = []
        self._mat: list[AttemptOutcome] | None = None
        self._wastage_by_type: dict[str, float] = defaultdict(float)
        self._failures_by_type: dict[str, int] = defaultdict(int)
        self._runtime_hours = 0.0
        self._total_wastage = 0.0
        self._n_attempts = 0

    def record_success(
        self,
        task_type: str,
        workflow: str,
        instance_id: int,
        attempt: int,
        allocated_mb: float,
        peak_memory_mb: float,
        runtime_hours: float,
    ) -> float:
        """Account one successful attempt; returns its wastage (GBh)."""
        if allocated_mb < peak_memory_mb - 1e-9:
            raise ValueError(
                "successful attempt cannot have allocated < peak "
                f"({allocated_mb:.1f} < {peak_memory_mb:.1f} MB)"
            )
        wastage = (allocated_mb - peak_memory_mb) / _MB_PER_GB * runtime_hours
        if self.keep_outcomes:
            self._outcomes.append(
                (
                    task_type,
                    workflow,
                    instance_id,
                    attempt,
                    allocated_mb,
                    peak_memory_mb,
                    runtime_hours,
                    True,
                    wastage,
                )
            )
        self._wastage_by_type[task_type] += wastage
        self._total_wastage += wastage
        self._runtime_hours += runtime_hours
        self._n_attempts += 1
        return wastage

    def record_failure(
        self,
        task_type: str,
        workflow: str,
        instance_id: int,
        attempt: int,
        allocated_mb: float,
        peak_memory_mb: float,
        time_to_failure_hours: float,
    ) -> float:
        """Account one killed attempt; returns its wastage (GBh)."""
        if allocated_mb >= peak_memory_mb:
            raise ValueError(
                "failed attempt requires allocated < peak "
                f"({allocated_mb:.1f} >= {peak_memory_mb:.1f} MB)"
            )
        # The whole allocation was wasted for as long as the task ran.
        wastage = allocated_mb / _MB_PER_GB * time_to_failure_hours
        if self.keep_outcomes:
            self._outcomes.append(
                (
                    task_type,
                    workflow,
                    instance_id,
                    attempt,
                    allocated_mb,
                    peak_memory_mb,
                    time_to_failure_hours,
                    False,
                    wastage,
                )
            )
        self._wastage_by_type[task_type] += wastage
        self._total_wastage += wastage
        self._runtime_hours += time_to_failure_hours
        self._n_attempts += 1
        self._failures_by_type[task_type] += 1
        return wastage

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def outcomes(self) -> list[AttemptOutcome]:
        """Materialized :class:`AttemptOutcome` view of the stored rows.

        Rows are kept as plain tuples during a run (hot-path append);
        the dataclass objects are built on first access and cached —
        the length check rebuilds whenever new rows arrived since.
        """
        rows = self._outcomes
        mat = self._mat
        if mat is None or len(mat) != len(rows):
            new = object.__new__
            mat = []
            append = mat.append
            for row in rows:
                o = new(AttemptOutcome)
                o.__dict__.update(
                    task_type=row[0],
                    workflow=row[1],
                    instance_id=row[2],
                    attempt=row[3],
                    allocated_mb=row[4],
                    peak_memory_mb=row[5],
                    runtime_hours=row[6],
                    success=row[7],
                    wastage_gbh=row[8],
                )
                append(o)
            self._mat = mat
        return list(mat)

    @property
    def total_wastage_gbh(self) -> float:
        return self._total_wastage

    @property
    def total_runtime_hours(self) -> float:
        return self._runtime_hours

    @property
    def num_failures(self) -> int:
        return sum(self._failures_by_type.values())

    @property
    def num_attempts(self) -> int:
        """Total attempts committed — valid even with dropped outcomes."""
        return self._n_attempts

    def wastage_by_task_type(self) -> dict[str, float]:
        return dict(self._wastage_by_type)

    def failures_by_task_type(self) -> dict[str, int]:
        return dict(self._failures_by_type)

    def merge(self, other: "WastageLedger") -> "WastageLedger":
        """Fold ``other`` into this ledger (multi-workflow or shard merge).

        Aggregates come from ``other``'s running counters, so merging
        works whether or not either side kept its outcome list; outcome
        lists concatenate when present.
        """
        if self.keep_outcomes:
            self._outcomes.extend(other._outcomes)
        for t, w in other._wastage_by_type.items():
            self._wastage_by_type[t] += w
        for t, n in other._failures_by_type.items():
            self._failures_by_type[t] += n
        self._total_wastage += other._total_wastage
        self._runtime_hours += other._runtime_hours
        self._n_attempts += other._n_attempts
        return self
