"""Kernel checkpoint/resume: pause, serialize, continue bit-for-bit.

A checkpoint is one pickle of the whole paused
:class:`~repro.sim.kernel.core.SimulationKernel` behind a small header.
Pickling the kernel *as one object graph* is what makes resume exact:
the event heap, the driver's ready queue, and the running-task table all
reference the same :class:`~repro.sim.kernel.core.TaskState` objects,
and pickle's memo preserves that sharing — a field-by-field export would
have to reconstruct it by hand.  Everything the loop depends on rides
along: the clock, dispatch generations, per-node allocations, predictor
model state (including numpy ``Generator`` RNG states, which pickle
exactly), collector aggregates and sketches, and the flat driver's
stream cursor (live iterators are dropped on pickle and rebuilt
deterministically on first use after resume).

``run(until=...)`` pauses only *between* event batches — at a clock
boundary — so a checkpoint never captures a half-applied batch.

Checkpoints are pickles: load them only from paths you wrote yourself
(the standard pickle trust model).  They are version-stamped and refuse
to load across incompatible format versions.

:func:`drive_kernel` is the shared driving loop behind the CLI's
``--checkpoint`` / ``--checkpoint-every`` / ``--stop-after`` /
``--resume`` flags: run in bounded slices, checkpoint at each pause, and
optionally stop for good at a given simulation time.
"""

from __future__ import annotations

import os
import pickle
from typing import TYPE_CHECKING

from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel.core import SimulationKernel
    from repro.sim.results import SimulationResult

_log = get_logger("sim.checkpoint")

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "drive_kernel",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
# Version 2 (PR 10): the pickled kernel carries EventCalendar state
# (columnar scheduled lane + dynamic heap) instead of a single EventHeap.
# Version 3: learned predictor state changed layout (flat MLP
# parameter buffers, array-encoded trees and forests, cached offsets).
# Version 4: Sizey's incremental MLP update runs 5 Adam steps, not 20.
# A pickled MLP carries its own partial_fit_steps, so a resumed v3 run
# would keep training with 20 steps and match neither version's results.
CHECKPOINT_VERSION = 4


def save_checkpoint(kernel: "SimulationKernel", path: str) -> None:
    """Write ``kernel``'s full state to ``path`` (atomic replace)."""
    if not kernel._started:
        raise ValueError(
            "cannot checkpoint a kernel that has not started running; "
            "call run(until=...) first"
        )
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "clock": kernel.now,
        "workflow": kernel.source.workflow,
        "method": kernel.predictor.name,
        "kernel": kernel,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    _log.info(
        "checkpoint saved",
        extra={"path": path, "clock_hours": kernel.now},
    )


def load_checkpoint(path: str) -> "SimulationKernel":
    """Load a checkpoint written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if (
        not isinstance(payload, dict)
        or payload.get("format") != CHECKPOINT_FORMAT
    ):
        raise ValueError(f"{path!r} is not a repro simulation checkpoint")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path!r} has format version {version}; this "
            f"build reads version {CHECKPOINT_VERSION}"
        )
    _log.info(
        "checkpoint loaded",
        extra={
            "path": path,
            "clock_hours": payload.get("clock"),
            "workflow": payload.get("workflow"),
            "method": payload.get("method"),
        },
    )
    return payload["kernel"]


def drive_kernel(
    kernel: "SimulationKernel",
    *,
    checkpoint: str | None = None,
    checkpoint_every: float | None = None,
    stop_after: float | None = None,
) -> "SimulationResult | None":
    """Run ``kernel`` to completion in checkpointed slices.

    - ``checkpoint_every`` (hours of simulation time): pause at least
      every that often and, if ``checkpoint`` is set, overwrite the
      checkpoint file at each pause — crash recovery loses at most one
      slice.
    - ``stop_after`` (hours): stop for good once the clock passes it,
      write a final checkpoint (if ``checkpoint`` is set), and return
      ``None`` — the induced-interrupt mode the resume tests and the CI
      scale-smoke step use.

    Returns the finished :class:`~repro.sim.results.SimulationResult`,
    or ``None`` when stopped early.
    """
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ValueError(
            f"checkpoint_every must be positive, got {checkpoint_every}"
        )
    if not kernel._started:
        kernel._start()
    while True:
        if not kernel.events:
            return kernel.run()  # drains the (empty) loop and finalizes
        next_time = kernel.events.next_time
        if stop_after is not None and next_time > stop_after:
            if checkpoint is not None:
                save_checkpoint(kernel, checkpoint)
            return None
        # Anchor the slice at the next event so every slice makes
        # progress even when events are sparser than the interval.
        until = stop_after
        if checkpoint_every is not None:
            until = next_time + checkpoint_every
            if stop_after is not None:
                until = min(until, stop_after)
        result = kernel.run(until=until)
        if result is not None:
            return result
        if checkpoint is not None:
            save_checkpoint(kernel, checkpoint)
