"""Cluster resource manager: nodes, placement and the allocation cap.

Scheduling policy itself is out of the paper's scope (assumption A2 —
ordering and node assignment belong to the resource manager), so this
manager delegates node choice to a pluggable
:class:`~repro.cluster.policies.PlacementPolicy` (first-fit by default,
the seed behaviour).  What the evaluation *does* depend on is captured
faithfully:

- allocation requests are capped at the capacity of the largest node
  that could ever host the task — the retry policy "doubles until the
  machine resources are exhausted" (§II-E), so the manager exposes the
  cap;
- placement bookkeeping so utilisation can be inspected.

The strict memory limit (assumption A3: a task whose true peak exceeds
its allocation is killed) is enforced by the simulation kernel
(:mod:`repro.sim.kernel`), which reserves each attempt on the node this
manager picks.

The cluster may be heterogeneous: pass ``pools`` as ``(config, count)``
pairs (or use :meth:`ResourceManager.from_spec` with a compact string
such as ``"128g:4,256g:4"``).  The original single-config signature
keeps working and still builds the paper's eight identical 128 GB EPYC
nodes by default.
"""

from __future__ import annotations

from typing import Collection, Sequence

from repro.cluster.machine import (
    EPYC_7282_128G,
    Machine,
    MachineConfig,
    parse_cluster_spec,
)
from repro.cluster.policies import PlacementPolicy, resolve_placement
from repro.errors import ConfigError

__all__ = ["ResourceManager"]


class ResourceManager:
    """A cluster of nodes with strict memory limits.

    Parameters
    ----------
    config:
        Node type (defaults to the paper's 128 GB EPYC nodes).  Ignored
        when ``pools`` is given.
    n_nodes:
        Cluster size (paper: 8).  Ignored when ``pools`` is given.
    pools:
        Heterogeneous node pools as ``(MachineConfig, count)`` pairs;
        nodes are numbered consecutively in pool order.
    placement:
        Node-choice policy: a registered name (``"first-fit"``,
        ``"best-fit"``, ``"worst-fit"``) or a
        :class:`~repro.cluster.policies.PlacementPolicy` instance.
    """

    def __init__(
        self,
        config: MachineConfig = EPYC_7282_128G,
        n_nodes: int = 8,
        *,
        pools: Sequence[tuple[MachineConfig, int]] | None = None,
        placement: str | PlacementPolicy = "first-fit",
    ) -> None:
        if pools is None:
            if n_nodes < 1:
                raise ConfigError(f"n_nodes must be >= 1, got {n_nodes}")
            pools = [(config, n_nodes)]
        self.pools: list[tuple[MachineConfig, int]] = []
        self.nodes: list[Machine] = []
        for cfg, count in pools:
            if count < 1:
                raise ConfigError(
                    f"pool count must be >= 1, got {count} for {cfg.name!r}"
                )
            self.pools.append((cfg, int(count)))
            for _ in range(count):
                self.nodes.append(
                    Machine(config=cfg, node_id=len(self.nodes))
                )
        # Back-compat: the single-config attribute now names the first
        # pool's node type (the only one, for homogeneous clusters).
        self.config = self.pools[0][0]
        self.placement = resolve_placement(placement)
        self._next_task_id = 0
        # The node list is fixed for the manager's lifetime, so the
        # largest capacity is too; the kernel reads it once per
        # sized task, which made the per-call max() measurable.
        self._max_allocation_mb = max(
            node.config.memory_mb for node in self.nodes
        )

    @classmethod
    def from_spec(
        cls,
        spec: str,
        *,
        placement: str | PlacementPolicy = "first-fit",
    ) -> "ResourceManager":
        """Build a manager from a cluster spec string like ``"128g:4,256g:4"``."""
        return cls(pools=parse_cluster_spec(spec), placement=placement)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def is_heterogeneous(self) -> bool:
        """Whether the cluster mixes more than one node capacity."""
        return len({node.config.memory_mb for node in self.nodes}) > 1

    @property
    def max_allocation_mb(self) -> float:
        """The largest allocation any single task can receive.

        On a heterogeneous cluster this is the capacity of the *largest*
        node — the only node type that bounds what a task could ever be
        granted.
        """
        return self._max_allocation_mb

    def node_capacities_mb(self) -> dict[int, float]:
        """Per-node memory capacity, keyed by node id."""
        return {node.node_id: node.config.memory_mb for node in self.nodes}

    def clamp_allocation(self, request_mb: float) -> float:
        """Clamp a request to [1 MB, largest-node capacity]."""
        # Comparisons, not min()/max(): the kernel clamps every
        # task it sizes, and those two calls cost more than the rest.
        request_mb = float(request_mb)
        if request_mb < 1.0:
            return 1.0
        if request_mb > self._max_allocation_mb:
            return float(self._max_allocation_mb)
        return request_mb

    def next_task_id(self) -> int:
        """Hand out a fresh cluster-unique task id (monotonic per run)."""
        task_id = self._next_task_id
        self._next_task_id += 1
        return task_id

    def release_all(self) -> None:
        """Reset all allocation bookkeeping to a pristine state.

        Drops every live reservation and restarts the task-id counter, so
        one manager can back repeated ``run()`` calls without leaking
        state (or unbounded task ids) between simulations.
        """
        for node in self.nodes:
            node.running.clear()
            node.allocated_mb = 0.0
        self._next_task_id = 0

    def try_place(
        self, memory_mb: float, exclude: "Collection[int] | None" = None
    ) -> Machine | None:
        """Policy-driven placement; ``None`` when no node fits now.

        The kernel's one placement entry, called once per placement: a
        request that does not currently fit simply stays queued until
        capacity frees up.  ``exclude`` hides the named
        node ids from the policy — how the kernel pauses placement on
        drained nodes.
        """
        nodes = self.nodes
        if exclude:
            nodes = [n for n in nodes if n.node_id not in exclude]
        return self.placement.select(nodes, memory_mb)
