"""Machine model: configurations, allocation state, cluster specs.

The paper's testbed is eight identical nodes (AMD EPYC 7282, 128 GB
DDR4).  :class:`MachineConfig` describes a node type;
:class:`Machine` tracks the live allocation state of one node so the
resource manager can enforce capacity.  Real workflow clusters are
heterogeneous, so :func:`parse_cluster_spec` turns a compact string
such as ``"128g:4,256g:4"`` into the ``(config, count)`` node pools the
resource manager is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = [
    "MachineConfig",
    "Machine",
    "EPYC_7282_128G",
    "parse_memory_mb",
    "parse_cluster_spec",
]


@dataclass(frozen=True)
class MachineConfig:
    """A node type: name, memory capacity, and core count."""

    name: str
    memory_mb: float
    cores: int = 32

    def __post_init__(self) -> None:
        if not math.isfinite(self.memory_mb) or self.memory_mb <= 0:
            raise ConfigError(f"memory_mb must be positive, got {self.memory_mb}")
        if self.cores < 1:
            raise ConfigError(f"cores must be >= 1, got {self.cores}")


#: The paper's node type: AMD EPYC 7282, 128 GB DDR4.
EPYC_7282_128G = MachineConfig(name="epyc-7282-128g", memory_mb=128.0 * 1024, cores=32)


def parse_memory_mb(token: str) -> float:
    """Parse a memory size token: ``"128g"``, ``"512m"``, or plain MB.

    Accepts a ``g``/``gb`` suffix (GiB), an ``m``/``mb`` suffix (MB), or
    a bare number interpreted as MB.  Case-insensitive; fractions such
    as ``"1.5g"`` are fine.
    """
    text = token.strip().lower()
    if not text:
        raise ConfigError("empty memory size token")
    factor = 1.0
    for suffix, mult in (("gb", 1024.0), ("g", 1024.0), ("mb", 1.0), ("m", 1.0)):
        if text.endswith(suffix):
            text = text[: -len(suffix)]
            factor = mult
            break
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse memory size {token!r}") from None
    mb = value * factor
    if not math.isfinite(mb) or mb <= 0:
        raise ConfigError(f"memory size must be positive, got {token!r}")
    return mb


def parse_cluster_spec(spec: str) -> list[tuple[MachineConfig, int]]:
    """Parse a cluster spec string into ``(config, count)`` node pools.

    The spec is a comma-separated list of ``SIZE:COUNT`` entries, e.g.
    ``"128g:4,256g:4"`` — four 128 GB nodes plus four 256 GB nodes.  The
    count defaults to 1 when omitted (``"512g"``).  Sizes follow
    :func:`parse_memory_mb`.
    """
    pools: list[tuple[MachineConfig, int]] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            raise ConfigError(f"empty entry in cluster spec {spec!r}")
        size_token, _, count_token = entry.partition(":")
        memory_mb = parse_memory_mb(size_token)
        if count_token:
            try:
                count = int(count_token)
            except ValueError:
                raise ConfigError(
                    f"cannot parse node count in {entry!r}"
                ) from None
        else:
            count = 1
        if count < 1:
            raise ConfigError(f"node count must be >= 1 in {entry!r}")
        config = MachineConfig(
            name=f"node-{size_token.strip().lower()}", memory_mb=memory_mb
        )
        pools.append((config, count))
    if not pools:
        raise ConfigError(f"cluster spec {spec!r} describes no nodes")
    return pools


@dataclass
class Machine:
    """One cluster node with live allocation bookkeeping."""

    config: MachineConfig
    node_id: int = 0
    allocated_mb: float = 0.0
    running: dict[int, float] = field(default_factory=dict)

    @property
    def free_mb(self) -> float:
        return self.config.memory_mb - self.allocated_mb

    def can_fit(self, memory_mb: float) -> bool:
        # ``free_mb + 1e-9`` without the property call: allocate() runs
        # this on every kernel dispatch.
        return memory_mb <= self.config.memory_mb - self.allocated_mb + 1e-9

    def allocate(self, task_id: int, memory_mb: float) -> None:
        """Reserve ``memory_mb`` for ``task_id``; strict capacity check."""
        if memory_mb <= 0:
            raise ValueError(f"allocation must be positive, got {memory_mb}")
        if task_id in self.running:
            raise ValueError(f"task {task_id} already running on node {self.node_id}")
        if not self.can_fit(memory_mb):
            raise MemoryError(
                f"node {self.node_id} ({self.config.name}) cannot fit "
                f"{memory_mb:.0f} MB; free={self.free_mb:.0f} MB"
            )
        self.running[task_id] = memory_mb
        self.allocated_mb += memory_mb

    def release(self, task_id: int) -> float:
        """Free the reservation of ``task_id``; returns the released MB."""
        if task_id not in self.running:
            raise KeyError(f"task {task_id} not running on node {self.node_id}")
        mb = self.running.pop(task_id)
        self.allocated_mb -= mb
        return mb
