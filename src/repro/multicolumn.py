"""Many columns, one pass (Section 1.2).

*"This is especially important for query optimization as it is desirable
to compute histograms for multiple columns of a table in a single pass
over a table."*

:class:`MultiColumnSketcher` maintains one quantile summary per column and
feeds them all from a single scan, then hands back per-column quantiles,
equi-depth histograms, or the raw sketches.  It accepts dictionaries of
arrays (one per chunk), the engine's :class:`~repro.engine.table.Chunk`
objects, or a plain 2D ``(rows, columns)`` ndarray, so it plugs directly
into table scans::

    sketcher = MultiColumnSketcher(["price", "qty"], epsilon=0.005, n=len(t))
    for chunk in t.scan():
        sketcher.consume(chunk)
    boundaries = sketcher.histogram("price", 20)

Every column is its own :class:`QuantileSketch`, fed its slice of each
chunk, so answers are exactly those of feeding the columns separately;
the Section 5 sampling front-end (``delta``) composes per column.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from .core.errors import ConfigurationError, EmptySummaryError
from .core.sketch import QuantileSketch
from .histogram.equidepth import EquiDepthHistogram

__all__ = ["MultiColumnSketcher"]


class MultiColumnSketcher:
    """Per-column quantile summaries filled by one table scan.

    Parameters
    ----------
    columns:
        Column names to summarise (all must be numeric).
    epsilon:
        Guarantee for every column's quantiles.
    n:
        Expected row count (sizes each sketch).
    delta:
        Optional: allow the probabilistic sampling path per column.
    """

    def __init__(
        self,
        columns: Sequence[str],
        epsilon: float,
        n: Optional[int] = None,
        *,
        delta: Optional[float] = None,
        policy: str = "new",
    ) -> None:
        if not columns:
            raise ConfigurationError("need at least one column")
        if len(set(columns)) != len(columns):
            raise ConfigurationError(f"duplicate column names in {columns}")
        self.columns = list(columns)
        self.epsilon = epsilon
        self._sketches: Dict[str, QuantileSketch] = {
            name: QuantileSketch(
                epsilon, n=n, delta=delta, policy=policy
            )
            for name in self.columns
        }
        self._minima: Dict[str, float] = {}
        self._maxima: Dict[str, float] = {}
        self._n_rows = 0

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def memory_elements(self) -> int:
        """Total footprint across all column sketches."""
        return sum(sk.memory_elements for sk in self._sketches.values())

    def _coerce_matrix(self, matrix: np.ndarray) -> Dict[str, np.ndarray]:
        if matrix.ndim != 2:
            raise ConfigurationError(
                f"ndarray chunks must be 2D (rows, columns), got shape "
                f"{matrix.shape}"
            )
        if matrix.shape[1] != len(self.columns):
            raise ConfigurationError(
                f"chunk has {matrix.shape[1]} columns, sketcher tracks "
                f"{len(self.columns)}: {self.columns}"
            )
        # one transposed copy per chunk: each column's sketch then reads
        # a contiguous row instead of a strided matrix[:, j] view
        columns = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64).T)
        return dict(zip(self.columns, columns))

    def consume(self, chunk: "Mapping[str, Any] | np.ndarray | Any") -> None:
        """Feed one scan chunk.

        Accepts a mapping of column name to values, an engine ``Chunk``,
        or a 2D ``(rows, columns)`` ndarray whose columns are in
        ``self.columns`` order.
        """
        if isinstance(chunk, np.ndarray):
            arrays = self._coerce_matrix(chunk)
            n_rows = len(chunk)
        else:
            columns = getattr(chunk, "columns", chunk)
            if not isinstance(columns, Mapping):
                raise ConfigurationError(
                    "consume() expects a mapping of column -> values, an "
                    "engine Chunk, or a 2D (rows, columns) ndarray"
                )
            arrays = {}
            n_rows = None
            for name in self.columns:
                if name not in columns:
                    raise ConfigurationError(
                        f"chunk is missing column {name!r}"
                    )
                arr = np.asarray(columns[name], dtype=np.float64)
                if n_rows is None:
                    n_rows = len(arr)
                elif len(arr) != n_rows:
                    raise ConfigurationError(
                        f"ragged chunk: column {name!r} has {len(arr)} "
                        f"rows, expected {n_rows}"
                    )
                arrays[name] = arr
        if not n_rows:
            return
        self._n_rows += n_rows
        for name in self.columns:
            arr = arrays[name]
            self._sketches[name].extend(arr)
            low = float(arr.min())
            high = float(arr.max())
            self._minima[name] = min(self._minima.get(name, low), low)
            self._maxima[name] = max(self._maxima.get(name, high), high)

    # -- per-column outputs ------------------------------------------------

    def sketch(self, column: str) -> QuantileSketch:
        """The underlying sketch for *column*."""
        if column not in self._sketches:
            raise ConfigurationError(
                f"unknown column {column!r}; tracking {self.columns}"
            )
        return self._sketches[column]

    def quantiles(self, column: str, phis: Sequence[float]) -> List[float]:
        """Approximate quantiles of one column."""
        return [float(v) for v in self.sketch(column).quantiles(phis)]

    def all_quantiles(
        self, phis: Sequence[float]
    ) -> Dict[str, List[float]]:
        """The same quantile fractions for every tracked column."""
        return {name: self.quantiles(name, phis) for name in self.columns}

    def error_bounds(self) -> Dict[str, float]:
        """Certified Lemma 5 rank-error bound (elements) per column."""
        return {
            name: float(sk.error_bound())
            for name, sk in self._sketches.items()
        }

    def histogram(self, column: str, n_buckets: int) -> EquiDepthHistogram:
        """An equi-depth histogram of one column from its sketch."""
        sketch = self.sketch(column)
        if self._n_rows == 0:
            raise EmptySummaryError("no rows consumed yet")
        boundaries = [
            float(v) for v in sketch.equidepth_boundaries(n_buckets)
        ]
        boundaries.sort()
        return EquiDepthHistogram(
            boundaries,
            n=self._n_rows,
            low=self._minima[column],
            high=self._maxima[column],
            epsilon=self.epsilon,
        )

    def histograms(self, n_buckets: int) -> Dict[str, EquiDepthHistogram]:
        """Equi-depth histograms for every tracked column."""
        return {
            name: self.histogram(name, n_buckets) for name in self.columns
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiColumnSketcher(columns={self.columns}, "
            f"eps={self.epsilon}, rows={self._n_rows})"
        )
