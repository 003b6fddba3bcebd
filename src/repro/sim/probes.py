"""Measurement helper: exact latency percentiles.

A plain data collector -- it never schedules anything, so recording
latencies cannot change simulation behaviour.
"""

from __future__ import annotations

import math
from array import array
from bisect import insort
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np


class LatencyRecorder:
    """Stores every latency sample and computes exact percentiles.

    The NetRS evaluation reports Avg / 95th / 99th / 99.9th percentiles, and
    99.9th of a few ten-thousand samples needs the exact empirical quantile,
    so we keep all samples rather than a sketch.  They are kept unboxed, in
    a float64 buffer (``array("d")``): 8 B a sample, where a list of Python
    floats costs about 32 (the float and its list slot), so the 6 M samples
    of a paper-sized cell take 48 MB, not some 190.
    """

    __slots__ = ("_samples", "_sorted", "_mean_cache")

    def __init__(self) -> None:
        self._samples = array("d")
        # Sorted mirror of _samples, built on first query and then kept
        # sorted incrementally (insort is one C-level memmove): the R95
        # issue path queries the mean/percentile after nearly every add,
        # and re-sorting per query is quadratic in run length.  It is built
        # as a copy of the buffer sorted in place through a numpy view, so
        # no sample is ever boxed (``sorted()`` would box every one).
        self._sorted: array | None = None
        # (sample count, mean) of the last mean() call: repeated queries
        # between adds (the R95 warmup issues faster than it completes)
        # return the identical float without re-reducing.
        self._mean_cache: Tuple[int, float] | None = None

    def add(self, latency: float) -> None:
        """Record one latency sample, in seconds."""
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self._samples.append(latency)
        if self._sorted is not None:
            insort(self._sorted, latency)

    def extend(self, latencies: Iterable[float]) -> None:
        """Record many samples at once (all of them, or none if one is negative)."""
        if not isinstance(latencies, (list, tuple)):
            latencies = list(latencies)
        if not latencies:
            return
        lowest = min(latencies)
        if lowest < 0:
            raise ValueError(f"negative latency: {lowest}")
        self._samples.extend(latencies)
        self._sorted = None  # bulk append: cheaper to re-sort on next query

    def extend_array(self, latencies: np.ndarray) -> None:
        """Record a vectorized block of samples (numpy float array).

        The shard merge folds each shard's samples in with it: two O(n)
        operations instead of n scalar ``add`` calls, the block's float64
        bytes appended as they are, without boxing a sample.
        """
        if len(latencies) == 0:
            return
        if float(latencies.min()) < 0:
            raise ValueError("negative latency in block")
        block = np.ascontiguousarray(latencies, dtype=np.float64)
        self._samples.frombytes(block.view(np.uint8))
        self._sorted = None  # bulk append: cheaper to re-sort on next query

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Sequence[float]:
        """The raw samples (insertion order), as a tuple of Python floats.

        Boxes every sample on every access (some 30 MiB for a million); to
        compare or reduce samples, read :attr:`values` instead.
        """
        return tuple(self._samples)

    @property
    def values(self) -> np.ndarray:
        """The raw samples (insertion order) as a read-only float64 array.

        A view of the recorder's own buffer: nothing is copied or boxed.  The
        buffer cannot grow while a view of it is alive (``add`` raises
        ``BufferError``), so read it once recording is over and drop it.
        """
        view = np.frombuffer(self._samples, dtype=np.float64)
        view.flags.writeable = False
        return view

    def _ensure_sorted(self) -> np.ndarray:
        # Zero-copy float64 view over the sorted mirror; numpy reductions
        # over it are bit-identical to the former sort-per-query arrays.
        mirror = self._sorted
        if mirror is None:
            mirror = self._sorted = self._samples[:]
            view = np.frombuffer(mirror, dtype=np.float64)
            view.sort()
            return view
        return np.frombuffer(mirror, dtype=np.float64)

    def mean(self) -> float:
        """Arithmetic mean (NaN when empty)."""
        count = len(self._samples)
        if not count:
            return math.nan
        cache = self._mean_cache
        if cache is not None and cache[0] == count:
            return cache[1]
        # np.add.reduce is the exact pairwise reduction ndarray.mean()
        # dispatches to internally; calling it directly (and dividing by
        # the known count) skips the _methods._mean wrapper while keeping
        # the bits identical.  This sits on the R95 issue path.
        value = float(np.add.reduce(self._ensure_sorted()) / count)
        self._mean_cache = (count, value)
        return value

    def percentile(self, q: float) -> float:
        """Empirical ``q``-th percentile, ``0 <= q <= 100`` (NaN when empty).

        Computes numpy's default ``linear`` quantile directly on the sorted
        mirror: virtual index ``(n - 1) * q/100``, then the two-sided lerp
        ``_quantile`` uses (``b - diff * (1 - g)`` when ``g >= 0.5``).  The
        scalar arithmetic is the same operation order numpy performs, so
        values are bit-equal to ``np.percentile`` while skipping its array
        machinery -- this sits on the R95 threshold-refresh path.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        count = len(self._samples)
        if not count:
            return math.nan
        mirror = self._sorted
        if mirror is None:
            mirror = self._sorted = self._samples[:]
            np.frombuffer(mirror, dtype=np.float64).sort()
        virtual = (count - 1) * (q / 100.0)
        previous = int(virtual)
        if previous > count - 1:
            previous = count - 1
        following = previous + 1
        if following > count - 1:
            following = count - 1
        gamma = virtual - previous
        # array('d') stores C doubles, so indexing yields the identical
        # float64 value the numpy view would -- without materialising it.
        low = mirror[previous]
        high = mirror[following]
        diff = high - low
        if gamma >= 0.5:
            return high - diff * (1.0 - gamma)
        return low + diff * gamma

    def summary(self) -> Dict[str, float]:
        """The four paper metrics: mean, p95, p99, p999 (seconds).

        One vectorized ``np.percentile`` call over the cached sorted array;
        the values are exactly those of per-quantile calls.
        """
        if not self._samples:
            return {
                "mean": math.nan,
                "p95": math.nan,
                "p99": math.nan,
                "p999": math.nan,
            }
        data = self._ensure_sorted()
        p95, p99, p999 = np.percentile(data, (95.0, 99.0, 99.9))
        return {
            "mean": float(data.mean()),
            "p95": float(p95),
            "p99": float(p99),
            "p999": float(p999),
        }

