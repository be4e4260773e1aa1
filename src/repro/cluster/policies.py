"""Pluggable node-placement policies.

The paper treats node assignment as the resource manager's business
(assumption A2), and its evaluation only ever needed first-fit on eight
identical nodes.  On a heterogeneous cluster the policy starts to
matter: best-fit packs small tasks onto small nodes and keeps the big
nodes free for tasks only they can host, while worst-fit spreads load.
:class:`PlacementPolicy` is the seam — any object with a ``name`` and a
``select(nodes, memory_mb)`` method works, and the three classic
policies ship ready-made:

- ``"first-fit"`` — the first node (in node-id order) with room; this is
  the seed behaviour and the default everywhere.
- ``"best-fit"`` — the fitting node with the least free memory
  (tightest fit; ties broken by node id).
- ``"worst-fit"`` — the fitting node with the most free memory
  (ties broken by node id).

All three are deterministic, which the simulation backends rely on.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.cluster.machine import Machine
from repro.errors import ConfigError

__all__ = [
    "PlacementPolicy",
    "FirstFit",
    "BestFit",
    "WorstFit",
    "register_placement",
    "placement_names",
    "resolve_placement",
]


@runtime_checkable
class PlacementPolicy(Protocol):
    """Chooses which node hosts an allocation request.

    ``select`` returns the chosen node, or ``None`` when no node
    currently has room — the kernel then keeps the task queued until
    capacity frees up.  Implementations must be deterministic for a
    given node state.
    """

    #: Registry / CLI name of the policy.
    name: str

    def select(
        self, nodes: Sequence[Machine], memory_mb: float
    ) -> Machine | None:
        ...


class FirstFit:
    """First node in node-id order with room (seed behaviour)."""

    name = "first-fit"

    def select(
        self, nodes: Sequence[Machine], memory_mb: float
    ) -> Machine | None:
        # Inlined Machine.can_fit (a method + property per probe): this
        # runs for every placement scan on the kernel hot path.
        for node in nodes:
            if memory_mb <= node.config.memory_mb - node.allocated_mb + 1e-9:
                return node
        return None


class BestFit:
    """Fitting node with the least free memory (tightest fit)."""

    name = "best-fit"

    def select(
        self, nodes: Sequence[Machine], memory_mb: float
    ) -> Machine | None:
        fitting = [n for n in nodes if n.can_fit(memory_mb)]
        if not fitting:
            return None
        return min(fitting, key=lambda n: (n.free_mb, n.node_id))


class WorstFit:
    """Fitting node with the most free memory (spreads load)."""

    name = "worst-fit"

    def select(
        self, nodes: Sequence[Machine], memory_mb: float
    ) -> Machine | None:
        fitting = [n for n in nodes if n.can_fit(memory_mb)]
        if not fitting:
            return None
        return min(fitting, key=lambda n: (-n.free_mb, n.node_id))


_REGISTRY: dict[str, Callable[[], PlacementPolicy]] = {
    "first-fit": FirstFit,
    "best-fit": BestFit,
    "worst-fit": WorstFit,
}


def register_placement(
    name: str, factory: Callable[[], PlacementPolicy]
) -> None:
    """Make ``factory()`` addressable as ``placement=name`` everywhere."""
    if not name:
        raise ValueError("placement policy name must be non-empty")
    _REGISTRY[name] = factory


def placement_names() -> tuple[str, ...]:
    """Registered policy names (CLI choices), in registration order."""
    return tuple(_REGISTRY)


def resolve_placement(
    placement: str | PlacementPolicy,
) -> PlacementPolicy:
    """Turn a registry name or a ready-made policy into an instance."""
    if isinstance(placement, str):
        try:
            return _REGISTRY[placement]()
        except KeyError:
            raise ConfigError(
                f"unknown placement policy {placement!r}; "
                f"registered: {sorted(_REGISTRY)}"
            ) from None
    if not isinstance(placement, PlacementPolicy):
        raise TypeError(
            f"placement must be a name or PlacementPolicy, "
            f"got {type(placement)!r}"
        )
    return placement
