"""Exact ranks for streams assembled from slices of a fixed value pool.

Every workload's batches are slices of one seeded pool, cycled.  A
metric's stream is then a multiset: pool slice ``s`` taken ``c[s]``
times.  Sorting the pool once and weighting each sorted value by its
slice's count gives the stream's exact rank function as one cumulative
sum, so checking an answer is two ``searchsorted`` calls -- no matter
how many elements the stream holds.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


class RankTable:
    """Exact rank function of a finite multiset of floats."""

    def __init__(self, sorted_values: np.ndarray, cum_counts: np.ndarray):
        self.values = sorted_values
        self.cum = cum_counts
        self.n = int(cum_counts[-1]) if cum_counts.size else 0

    @classmethod
    def of(cls, values: np.ndarray) -> "RankTable":
        ordered = np.sort(np.asarray(values, dtype=np.float64))
        return cls(ordered, np.arange(1, ordered.size + 1, dtype=np.int64))

    def rank_interval(self, value: float) -> Tuple[int, int]:
        """``(lo, hi)``: the 1-based ranks *value* occupies (``hi < lo``
        when it is absent -- it then sits between ranks ``hi`` and ``lo``)."""
        i = int(np.searchsorted(self.values, value, side="left"))
        j = int(np.searchsorted(self.values, value, side="right"))
        below = int(self.cum[i - 1]) if i else 0
        upto = int(self.cum[j - 1]) if j else 0
        return below + 1, upto

    def rank_error(self, phi: float, value: float) -> int:
        """Rank distance of *value* from the exact ``phi``-quantile.

        Same reading as :func:`repro.analysis.rank_error.observed_rank_error`:
        zero when the value's rank interval covers ``ceil(phi n)``.
        """
        target = min(max(math.ceil(phi * self.n), 1), self.n)
        lo, hi = self.rank_interval(value)
        if lo <= target <= hi:
            return 0
        return min(abs(target - lo), abs(target - hi))


class SlicedPool:
    """A value pool cut into equal slices; batches are whole slices."""

    def __init__(self, pool: np.ndarray, slice_len: int) -> None:
        if pool.size % slice_len:
            raise ValueError("pool size must be a multiple of the slice size")
        self.pool = pool
        self.slice_len = slice_len
        self.slices = pool.reshape(-1, slice_len)
        # sorted pool and each sorted value's slice, built on first use
        self._sorted: "np.ndarray | None" = None
        self._slice_of: "np.ndarray | None" = None

    @property
    def n_slices(self) -> int:
        return self.slices.shape[0]

    def table(self, slice_counts: np.ndarray) -> RankTable:
        """Rank table of the stream taking slice ``s`` ``slice_counts[s]`` times."""
        if self._sorted is None:
            order = np.argsort(self.pool, kind="stable")
            self._sorted = self.pool[order]
            self._slice_of = order // self.slice_len
        weights = np.asarray(slice_counts, dtype=np.int64)[self._slice_of]
        return RankTable(self._sorted, np.cumsum(weights))

    def slice_counts(self, slice_ids: np.ndarray) -> np.ndarray:
        return np.bincount(slice_ids, minlength=self.n_slices)


def lognormal_pool(rng: np.random.Generator, size: int) -> np.ndarray:
    """Latency-like values: lognormal, median 100, heavy right tail."""
    return rng.lognormal(mean=math.log(100.0), sigma=1.0, size=size)
