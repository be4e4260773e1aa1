"""Kernel checkpoint/resume: pause, serialize, continue bit-for-bit.

A checkpoint is two pickles in one file: a small header (format,
version, clock, workflow, method), then the whole paused
:class:`~repro.sim.kernel.core.SimulationKernel`.  The header is read
without rebuilding any object, so a file of another version is refused
with a typed error before its kernel is unpickled.
Pickling the kernel *as one object graph* is what makes resume exact:
the event heap, the kernel's ready queue, the DAG driver's per-copy
state dicts and the running-task table all reference the same
:class:`~repro.sim.kernel.core.TaskState` objects,
and pickle's memo preserves that sharing — a field-by-field export would
have to reconstruct it by hand.  Everything the loop depends on rides
along: the clock, dispatch generations, per-node allocations, predictor
model state (including numpy ``Generator`` RNG states, which pickle
exactly), collector aggregates and sketches, and the flat driver's
count of built task states (its arrival schedule and live task iterator
are dropped on pickle and rebuilt from the seed and the source on first
use after resume).

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

from repro.errors import ConfigError
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
# Version 2: the pickled kernel carries a two-lane event calendar
# (columnar scheduled lane + dynamic heap) instead of a single EventHeap.
# Version 3: learned predictor state changed layout (flat MLP
# parameter buffers, array-encoded trees and forests, cached offsets).
# Version 4: Sizey's incremental MLP update runs 5 Adam steps, not 20.
# A pickled MLP carries its own partial_fit_steps, so a resumed v3 run
# would keep training with 20 steps and match neither version's results.
# Version 5: collectors take one ``on_attempt_end`` callback and fold
# buffered rows; the pickled kernel and collectors changed layout, so a
# v4 file would fail with an AttributeError on resume instead of this
# module's typed version error.
# Version 6: quantile sketches cluster in one pass on floor(k(q)) and
# keep their centroids in float64 arrays.  A v5 file holds centroids of
# the older greedy pass, so resuming it would match no uninterrupted run.
# Version 7: a task state carries its run's ``instance_id`` and no
# prebuilt submission; DAG copies share their trace's instances.  The
# header became its own pickle, read first: a v6 kernel holds states
# with a ``submission`` slot this build lacks and cannot be unpickled.
# Version 8: the DAG scheduler keeps the driver's per-copy state dicts
# and per-copy priority dicts, heap entries are ``(priority, state)``
# and fresh releases a cursor-read list.  A v7 scheduler holds
# ``(key, id)``-keyed maps, so its first requeue would fail with a
# ``KeyError``.
# Version 9: the kernel owns one event heap and the ready queue; a flat
# run keeps one pending arrival and a count of the states it built.  A
# v8 file pickles the two-lane event calendar and a DAG run's ready-set
# scheduler, classes this build no longer has.
CHECKPOINT_VERSION = 9


class _Opaque:
    """Stands in for every object a :class:`_HeaderReader` meets."""

    def __init__(self, *args, **kwargs) -> None:
        pass

    def _ignore(self, *args) -> None:
        pass

    __setstate__ = __setitem__ = append = extend = _ignore


class _HeaderReader(pickle.Unpickler):
    """Unpickles containers and scalars; every class is :class:`_Opaque`.

    Nothing is imported or called, so the header of any version reads,
    also the one-pickle payload of versions up to 6.
    """

    def find_class(self, module: str, name: str) -> type:
        return _Opaque


def save_checkpoint(kernel: "SimulationKernel", path: str) -> None:
    """Write ``kernel``'s full state to ``path`` (atomic replace)."""
    if not kernel._started:
        raise ValueError(
            "cannot checkpoint a kernel that has not started running; "
            "call run(until=...) first"
        )
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "clock": kernel.now,
        "workflow": kernel.source.workflow,
        "method": kernel.predictor.name,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(header, fh, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.dump(kernel, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    _log.info(
        "checkpoint saved",
        extra={"path": path, "clock_hours": kernel.now},
    )


def load_checkpoint(path: str) -> "SimulationKernel":
    """Load a checkpoint written by :func:`save_checkpoint`.

    A file that cannot be read, is not a checkpoint, or holds another
    format version raises :class:`~repro.errors.ConfigError`.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(
            f"cannot read checkpoint {path!r}: {exc.strerror}"
        ) from None
    with fh:
        try:
            header = _HeaderReader(fh).load()
        except (pickle.UnpicklingError, EOFError, ValueError, TypeError,
                OverflowError, MemoryError):
            # What the opaque reader raises on a file that is no pickle
            # (MemoryError: a garbage length prefix).
            header = None
        if (
            not isinstance(header, dict)
            or header.get("format") != CHECKPOINT_FORMAT
        ):
            raise ConfigError(
                f"{path!r} is not a repro simulation checkpoint"
            )
        version = header.get("version")
        if version != CHECKPOINT_VERSION:
            raise ConfigError(
                f"checkpoint {path!r} has format version {version}; this "
                f"build reads version {CHECKPOINT_VERSION}"
            )
        kernel = pickle.load(fh)
    _log.info(
        "checkpoint loaded",
        extra={
            "path": path,
            "clock_hours": header.get("clock"),
            "workflow": header.get("workflow"),
            "method": header.get("method"),
        },
    )
    return kernel


def drive_kernel(
    kernel: "SimulationKernel",
    *,
    checkpoint: str | None = None,
    checkpoint_every: float | None = None,
    stop_after: float | None = None,
) -> "SimulationResult | None":
    """Run ``kernel`` to completion in checkpointed slices.

    - ``checkpoint_every`` (hours of simulation time): pause at least
      every that often and overwrite the ``checkpoint`` file at each
      pause — crash recovery loses at most one slice.
    - ``stop_after`` (hours): stop for good once the clock passes it,
      write a final checkpoint, and return ``None`` — the
      induced-interrupt mode the resume tests and the CI scale-smoke
      step use.

    Either pause needs ``checkpoint``: a paused state that is written
    nowhere is lost.

    Returns the finished :class:`~repro.sim.results.SimulationResult`,
    or ``None`` when stopped early.
    """
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ConfigError(
            f"checkpoint_every must be positive, got {checkpoint_every}"
        )
    if checkpoint is None and (
        checkpoint_every is not None or stop_after is not None
    ):
        raise ConfigError(
            "checkpoint_every/stop_after need a checkpoint path to keep "
            "the paused state"
        )
    if not kernel._started:
        kernel._start()
    while True:
        if not kernel.events:
            return kernel.run()  # drains the (empty) loop and finalizes
        next_time = kernel.events.next_time
        if stop_after is not None and next_time > stop_after:
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
        save_checkpoint(kernel, checkpoint)
