"""Mean, standard deviation and median of a 1-D float window.

The offset choice (:mod:`repro.core.offsets`) and the windowed
prequential accuracy (:mod:`repro.core.scores`) run on every sizing
call.  These helpers call the reductions ``np.mean``, ``np.std`` and
``np.median`` run for a 1-D float array, in the same order, so they
equal them to the last bit without the wrappers' argument handling;
``np.median`` would also import ``numpy.ma`` on its first call.
"""

from __future__ import annotations

import math

import numpy as np


def window_mean(values) -> float:
    """``float(np.mean(values))`` for a non-empty 1-D float sequence."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.add.reduce(arr) / arr.shape[0])


def window_std(values: np.ndarray) -> float:
    """``float(np.std(values))`` for a non-empty 1-D float64 array."""
    n = values.shape[0]
    mean = np.add.reduce(values, keepdims=True)
    mean /= n
    dev = values - mean
    np.multiply(dev, dev, out=dev)
    return math.sqrt(np.add.reduce(dev) / n)


def window_median(values: np.ndarray) -> float:
    """``float(np.median(values))`` for a non-empty 1-D float64 array.

    The same partition as ``np.median``: the middle order statistic(s)
    plus the last element, which holds a NaN if there is one.
    """
    n = values.shape[0]
    half = n // 2
    if n % 2:
        part = np.partition(values, [half, -1])
        middle = part[half]
    else:
        part = np.partition(values, [half - 1, half, -1])
        middle = (part[half - 1] + part[half]) / 2.0
    return float(part[-1] if math.isnan(part[-1]) else middle)
