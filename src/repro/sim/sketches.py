"""Online aggregates for streaming metrics: quantile sketch + running stats.

Million-task runs cannot keep per-task lists of queue waits, latencies,
or wastage in memory, so the streaming collectors summarize every
distribution with two small objects:

- :class:`QuantileSketch` — a deterministic t-digest-style centroid
  sketch.  Values are buffered and periodically *compressed* into
  weighted centroids by one numpy pass: the points that share
  ``floor(k(q))`` of the scale function
  ``k(q) = (compression / 4) ln(q / (1 - q))`` merge.  Its slope is the
  reciprocal of the usual t-digest size bound
  ``4 n q (1-q) / compression``, so the sketch stays accurate in the
  tails and coarse only in the middle, and ``n`` values keep at most
  ``(compression / 2) ln(2 n) + 2`` centroids — ``O(compression ·
  log n)``.  Everything is plain arithmetic over sorted arrays — no
  randomness — so the same input stream always produces the same
  centroids, which is what makes checkpoint/resume and shard merges
  reproducible.
- :class:`RunningStat` — exact count / sum / mean / min / max.

Both are **mergeable** (shard results fold into one) and **picklable**
(checkpoints carry them verbatim).  Accuracy: with the default
``compression=512`` the relative quantile error stays well under 1 % on
unimodal distributions of any size — pinned by a regression test against
``np.quantile`` on a mid-size simulation scenario.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["QuantileSketch", "RunningStat", "QUANTILE_POINTS"]

#: Quantiles reported in run summaries, as ``"p50"``-style labels.
QUANTILE_POINTS: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p95", 0.95),
    ("p99", 0.99),
)


class RunningStat:
    """Exact streaming count/sum/min/max/mean; mergeable across shards."""

    __slots__ = ("n", "total", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, value: float) -> None:
        self.n += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def merge(self, other: "RunningStat") -> "RunningStat":
        self.n += other.n
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    # RunningStat uses __slots__, so give pickle explicit state.
    def __getstate__(self):
        return (self.n, self.total, self.min, self.max)

    def __setstate__(self, state) -> None:
        self.n, self.total, self.min, self.max = state


class QuantileSketch:
    """Deterministic mergeable t-digest-style quantile sketch.

    ``add`` appends to a buffer; once the buffer fills, buffered points
    and existing centroids are stable-sorted together and re-clustered
    in one vectorized pass.  Each point's centre ``q`` on the quantile
    axis comes from the cumulative weights, and each run of points
    sharing ``floor(k(q))``, ``k(q) = (compression / 4) ln(q / (1 - q))``,
    becomes one centroid.  A unit step of ``k`` spans
    ``4 n q (1-q) / compression`` points (the t-digest k1 bound): small
    clusters near the tails, larger in the middle, and at most
    ``(compression / 2) ln(2 n) + 2`` centroids.  Up to ``compression``
    values the steps are all wider than one point, so every point keeps
    its own centroid and small streams degrade to exact quantiles.
    ``quantile`` interpolates linearly between centroid means, treating
    each centroid as centered mass; it compresses only what is
    buffered, so repeated reads re-walk nothing.
    """

    __slots__ = ("compression", "_means", "_weights", "_buffer", "_cap", "stat")

    def __init__(self, compression: int = 512) -> None:
        if compression < 16:
            raise ValueError(f"compression must be >= 16, got {compression}")
        self.compression = compression
        self._means = np.empty(0)
        self._weights = np.empty(0)
        self._buffer: list[float] = []
        self._cap = compression * 2
        self.stat = RunningStat()

    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        # Inlined RunningStat.add: the simulation kernel calls this for
        # every completion (wastage + turnaround) and every dispatch
        # (queue wait), so the extra method call was measurable.
        value = float(value)
        stat = self.stat
        stat.n += 1
        stat.total += value
        if value < stat.min:
            stat.min = value
        if value > stat.max:
            stat.max = value
        buffer = self._buffer
        buffer.append(value)
        if len(buffer) >= self._cap:
            self._compress()

    def extend(self, values: Iterable[float]) -> None:
        # Bulk add: one stat update for the whole batch (``sum`` with a
        # start value is the same sequential left-fold as repeated
        # ``+=``, so the float total is bit-identical to add() calls),
        # then buffer fills chunked to the exact compress boundaries the
        # per-value path would hit.  _compress() rebinds ``_buffer``, so
        # it is re-fetched after every chunk.
        vals = [float(v) for v in values]
        if not vals:
            return
        stat = self.stat
        stat.n += len(vals)
        stat.total = sum(vals, stat.total)
        lo = min(vals)
        hi = max(vals)
        if lo < stat.min:
            stat.min = lo
        if hi > stat.max:
            stat.max = hi
        cap = self._cap
        pos = 0
        n = len(vals)
        while pos < n:
            buffer = self._buffer
            take = cap - len(buffer)
            buffer.extend(vals[pos : pos + take])
            pos += take
            if len(buffer) >= cap:
                self._compress()

    @property
    def n(self) -> int:
        return self.stat.n

    # ------------------------------------------------------------------
    def _compress(self, force: bool = False) -> None:
        # Nothing buffered: the centroids are already one pass's sorted
        # output, and a pass over them would change nothing.  ``force``
        # is for merge(), whose concatenated centroids are NOT sorted.
        buffer = self._buffer
        if not buffer and not force:
            return
        self._buffer = []
        means = np.concatenate((self._means, buffer))
        if not means.size:
            return
        weights = np.concatenate((self._weights, np.ones(len(buffer))))
        order = np.argsort(means, kind="stable")
        means = means[order]
        weights = weights[order]
        # Centre of each point's mass on the quantile axis, mapped
        # through the scale function; points sharing floor(k) merge.
        cum = np.cumsum(weights)
        q = (cum - weights / 2.0) / cum[-1]
        k = np.floor(self.compression / 4.0 * np.log(q / (1.0 - q)))
        bounds = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1], [True])))
        starts = bounds[:-1]
        merged = np.add.reduceat(weights, starts)
        # A lone point keeps its mean as is (``m * w / w`` can round), so
        # a second pass over finished centroids changes nothing.
        self._means = np.where(
            bounds[1:] - starts == 1,
            means[starts],
            np.add.reduceat(means * weights, starts) / merged,
        )
        self._weights = merged

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile of everything added so far."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.stat.n == 0:
            return float("nan")
        self._compress()
        means, weights = self._means, self._weights
        if len(means) == 1:
            return float(means[0])
        target = q * self.stat.n
        # Each centroid's mass is centered on its mean: centroid i spans
        # cumulative weight [c_i - w_i/2, c_i + w_i/2).  Interpolate
        # between the centres around ``target`` (the minimum sits at 0).
        centres = np.cumsum(weights) - weights / 2.0
        i = int(np.searchsorted(centres, target, side="right"))
        if i == len(means):
            return self.stat.max
        if i == 0:
            prev_mean, prev_pos = self.stat.min, 0.0
        else:
            prev_mean, prev_pos = float(means[i - 1]), float(centres[i - 1])
        frac = (target - prev_pos) / (float(centres[i]) - prev_pos)
        return prev_mean + (float(means[i]) - prev_mean) * frac

    def quantiles(
        self, points: Sequence[tuple[str, float]] = QUANTILE_POINTS
    ) -> dict[str, float]:
        """Labelled quantiles (summary form), e.g. ``{"p50": ..., ...}``."""
        return {label: self.quantile(q) for label, q in points}

    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other``'s mass into this sketch (shard merge)."""
        other._compress()
        self.stat.merge(other.stat)
        self._means = np.concatenate((self._means, other._means))
        self._weights = np.concatenate((self._weights, other._weights))
        self._compress(force=True)
        return self

    # __slots__: explicit pickle state (checkpoints carry sketches).
    def __getstate__(self):
        return (
            self.compression,
            self._means,
            self._weights,
            self._buffer,
            self.stat,
        )

    def __setstate__(self, state) -> None:
        (
            self.compression,
            self._means,
            self._weights,
            self._buffer,
            self.stat,
        ) = state
        self._cap = self.compression * 2
