"""SketchBank: many logically-independent MRL summaries, one vectorised ingest.

Section 1.2 of the paper motivates computing *many* quantile summaries in a
single scan -- histograms for multiple columns of a table, and GROUP BY
plans that "compute multiple aggregation results concurrently".  Feeding N
independent :class:`~repro.core.framework.QuantileFramework` instances one
at a time from Python is dominated by per-row bucketing and per-call
overhead, not by the summaries themselves.  :class:`SketchBank` removes
that overhead: a whole chunk, tagged with one integer *sketch id* per
element, is routed to all destination summaries with a handful of
vectorised numpy calls.

How a chunk is ingested
-----------------------

1. the caller encodes each element's destination summary as an integer id
   (e.g. ``np.unique(keys, return_inverse=True)`` over GROUP BY keys, or
   the column index for multi-column scans);
2. one *stable* ``np.argsort`` over the ids partitions the chunk into one
   contiguous run per destination sketch (a counting sort by destination);
3. each run is handed to the destination framework's existing batched
   ingest (:meth:`~repro.core.framework.QuantileFramework._ingest_numeric`,
   which sorts all full leaf buffers of the run in a single
   ``np.sort(axis=1)`` and places them via the presorted
   ``_place_values`` fast path from the kernel layer).

Why the partition is *stable* (sorted by id only, not by ``(id, value)``):
a buffer's contents are the sorted k-element windows of each summary's
input stream *in arrival order*.  Sorting a run by value would move
elements across window boundaries and produce different (still
guarantee-respecting, but not identical) buffers.  A stable partition
preserves each summary's arrival order exactly, so the bank is
**bit-identical** to N independently-fed frameworks -- same buffers, same
collapse schedule, same quantile answers, same certified Lemma 5 error
bound, same serialised wire format.  The property-test suite asserts all
of this.  The value sort the lexsort variant would have pre-paid happens
anyway, vectorised, inside the run's batched leaf construction.

Because every summary is logically independent, the per-sketch epsilon
guarantee is untouched: each sketch sees exactly the subsequence of the
stream addressed to it, in order, and Lemma 5 applies per sketch.

Scratch buffers for the partition step are owned by the bank and reused
across chunks; summaries for ids first seen mid-stream are materialised
lazily from a single pre-computed parameter plan (the plan search runs
once per bank, not once per group).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .errors import CapacityExceededError, ConfigurationError
from .framework import QuantileFramework
from .parameters import ParameterPlan, optimal_parameters
from ..obs import hooks as _obs

__all__ = ["SketchBank"]

#: Default design capacity when the caller does not know ``n`` (mirrors
#: :data:`repro.core.sketch.DEFAULT_DESIGN_N`).
_DEFAULT_DESIGN_N = 2**30

_FINITE_MSG = (
    "numeric streams must be finite: the framework reserves "
    "+/-inf as padding sentinels and NaN has no rank"
)


class SketchBank:
    """N independent one-pass quantile summaries filled by vectorised ingest.

    Every sketch in the bank shares one configuration ``(epsilon, n,
    policy, offset_mode)`` -- the GROUP BY / multi-column shape, where all
    groups or columns carry the same guarantee.  Sketches are addressed by
    dense integer ids ``0 .. n_sketches - 1`` and materialised lazily: an
    ingest naming id ``i`` creates sketches up to ``i`` on the spot, so
    groups first seen in the last chunk of a stream cost nothing before
    that.

    Parameters
    ----------
    epsilon:
        Rank guarantee for every sketch, exactly as in
        :class:`~repro.core.sketch.QuantileSketch`.
    n:
        Expected elements *per sketch* (an upper bound is safe and is the
        natural choice for GROUP BY: no group exceeds the table).
    policy / offset_mode:
        Collapse policy and offset handling, shared by all sketches.
    n_sketches:
        Sketches to materialise eagerly (ids ``0 .. n_sketches - 1``).
    max_sketches:
        Optional hard cap on the number of sketches; ingest naming an id
        at or beyond the cap raises
        :class:`~repro.core.errors.CapacityExceededError` (the bank-level
        analogue of a per-sketch capacity error -- memory is bounded by
        ``max_sketches * b * k`` elements).
    eps:
        Keyword alias for *epsilon* (the facade spelling); give exactly
        one of the two.
    """

    def __init__(
        self,
        epsilon: Optional[float] = None,
        n: Optional[int] = None,
        *,
        policy: str = "new",
        offset_mode: str = "alternate",
        n_sketches: int = 0,
        max_sketches: Optional[int] = None,
        eps: Optional[float] = None,
    ) -> None:
        if (epsilon is None) == (eps is None):
            raise ConfigurationError(
                "give exactly one of epsilon (positional) or eps= (keyword)"
            )
        if epsilon is None:
            epsilon = eps
        if not 0 < epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        design_n = _DEFAULT_DESIGN_N if n is None else int(n)
        if design_n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if n_sketches < 0:
            raise ConfigurationError(
                f"n_sketches must be >= 0, got {n_sketches}"
            )
        if max_sketches is not None and max_sketches < 1:
            raise ConfigurationError(
                f"max_sketches must be >= 1, got {max_sketches}"
            )
        self.epsilon = epsilon
        self.design_n = design_n
        self.policy = policy
        self.offset_mode = offset_mode
        self.max_sketches = max_sketches
        self._sketches: List[QuantileFramework] = []
        if n_sketches:
            self._materialize_through(n_sketches - 1)

    # -- sketch management -------------------------------------------------

    @property
    def plan(self) -> ParameterPlan:
        """The shared ``(b, k)`` plan (memoized by the planner)."""
        return optimal_parameters(
            self.epsilon, self.design_n, policy=self.policy
        )

    @property
    def n_sketches(self) -> int:
        return len(self._sketches)

    def __len__(self) -> int:
        return len(self._sketches)

    def _materialize_through(self, max_id: int) -> None:
        if self.max_sketches is not None and max_id >= self.max_sketches:
            raise CapacityExceededError(
                f"bank capped at {self.max_sketches} sketches; "
                f"sketch id {max_id} would exceed it"
            )
        plan = self.plan
        while len(self._sketches) <= max_id:
            fw = QuantileFramework(
                plan.b,
                plan.k,
                policy=self.policy,
                offset_mode=self.offset_mode,
                designed_n=self.design_n,
            )
            fw._mode = "numeric"  # banks are numeric-only by construction
            self._sketches.append(fw)

    def add_sketch(self) -> int:
        """Materialise one more sketch; returns its id."""
        new_id = len(self._sketches)
        self._materialize_through(new_id)
        return new_id

    def adopt(self, fw: QuantileFramework) -> int:
        """Register an externally built framework as the next sketch id.

        Lets callers that already own :class:`QuantileFramework` instances
        (e.g. :class:`~repro.core.sketch.QuantileSketch` wrappers) route
        their ingest through the bank while keeping their own handles.
        """
        if not isinstance(fw, QuantileFramework):
            raise ConfigurationError(
                f"adopt() needs a QuantileFramework, got {type(fw).__name__}"
            )
        if fw._mode == "generic":
            raise ConfigurationError(
                "banks are numeric-only; cannot adopt a generic-mode summary"
            )
        if self.max_sketches is not None and len(self._sketches) >= self.max_sketches:
            raise CapacityExceededError(
                f"bank capped at {self.max_sketches} sketches"
            )
        fw._mode = "numeric"
        self._sketches.append(fw)
        return len(self._sketches) - 1

    def sketch(self, i: int) -> QuantileFramework:
        """The underlying framework for sketch *i* (shared reference)."""
        if not 0 <= i < len(self._sketches):
            raise ConfigurationError(
                f"no sketch {i}; bank holds {len(self._sketches)}"
            )
        return self._sketches[i]

    # -- ingest ------------------------------------------------------------

    def _coerce_values(self, values: Any) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"expected a 1-d stream, got shape {arr.shape}"
            )
        if arr.size and not np.isfinite(arr).all():
            raise ConfigurationError(_FINITE_MSG)
        return arr

    def extend_single(
        self,
        i: int,
        values: "np.ndarray | Sequence[float]",
        *,
        validated: bool = False,
    ) -> None:
        """Feed *values* (in order) to sketch *i* alone.

        The single-destination fast path: no id vector, no partition --
        identical overhead to feeding the framework directly, so single
        group / single column workloads pay nothing for the bank.

        ``validated=True`` skips the coercion/finiteness scan for
        callers that already validated this exact float64 array (the
        service validates at frame decode, before journaling -- the
        O(batch) ``isfinite`` scan must not be charged twice).
        """
        if i < 0:
            raise ConfigurationError(f"sketch ids must be >= 0, got {i}")
        arr = values if validated else self._coerce_values(values)
        if arr.size == 0:
            return
        if i >= len(self._sketches):
            self._materialize_through(i)
        if _obs.ENABLED:
            _obs.on_bank_extend(self, int(arr.size), 1)
        self._sketches[i]._ingest_numeric(arr)

    def extend(
        self,
        ids: "np.ndarray | Sequence[int]",
        values: "np.ndarray | Sequence[float]",
    ) -> None:
        """Route ``values[j]`` to sketch ``ids[j]`` for the whole chunk.

        One stable ``np.argsort`` over *ids* partitions the chunk into
        per-sketch runs (arrival order preserved within each run), then
        each run takes the destination framework's batched ingest path.
        The result is bit-identical to feeding each sketch its
        subsequence with ``extend`` -- the property suite asserts it.
        """
        values_arr = self._coerce_values(values)
        ids_arr = np.asarray(ids)
        if ids_arr.shape != values_arr.shape:
            raise ConfigurationError(
                f"ids and values must be equal-length 1-d arrays, got "
                f"{ids_arr.shape} and {values_arr.shape}"
            )
        if values_arr.size == 0:
            return
        if ids_arr.dtype.kind not in "iu":
            if ids_arr.dtype.kind == "f" and np.all(ids_arr == np.floor(ids_arr)):
                ids_arr = ids_arr.astype(np.int64)
            else:
                raise ConfigurationError(
                    f"sketch ids must be integers, got dtype {ids_arr.dtype}"
                )
        ids_arr = ids_arr.astype(np.int64, copy=False)
        lo = int(ids_arr.min())
        if lo < 0:
            raise ConfigurationError(f"sketch ids must be >= 0, got {lo}")
        hi = int(ids_arr.max())
        if hi >= len(self._sketches):
            self._materialize_through(hi)
        if lo == hi:
            # single destination: skip the partition entirely
            if _obs.ENABLED:
                _obs.on_bank_extend(self, int(values_arr.size), 1)
            self._sketches[lo]._ingest_numeric(values_arr)
            return
        n = values_arr.size
        # the partition is allocated per chunk: a scratch kept across
        # chunks would pin the largest chunk ever drained
        order = np.argsort(ids_arr, kind="stable")
        sorted_ids = ids_arr[order]
        sorted_vals = values_arr[order]
        bounds = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        stops = np.append(bounds, n)
        run_ids = sorted_ids[starts]
        self.extend_runs(run_ids, starts, stops, sorted_vals, _validated=True)

    def extend_pairs(
        self,
        pairs: "Sequence[tuple[int, np.ndarray]]",
    ) -> int:
        """Ingest many ``(sketch_id, values)`` batches as one vectorised chunk.

        The batched entry point for callers that accumulate per-destination
        micro-batches -- e.g. a server shard draining ingest frames queued
        by many connections.  Batches are concatenated in list order (so
        each sketch still sees its elements in arrival order), ids are
        expanded with one ``np.repeat``, and the whole chunk takes the
        standard :meth:`extend` partition path -- bit-identical to feeding
        every batch to its sketch one at a time.  Returns the number of
        elements ingested.
        """
        arrays: List[np.ndarray] = []
        ids: List[int] = []
        lengths: List[int] = []
        for sketch_id, values in pairs:
            arr = self._coerce_values(values)
            if arr.size == 0:
                continue
            arrays.append(arr)
            ids.append(int(sketch_id))
            lengths.append(arr.size)
        if not arrays:
            return 0
        if len(arrays) == 1:
            self.extend_single(ids[0], arrays[0])
            return lengths[0]
        values_arr = np.concatenate(arrays)
        ids_arr = np.repeat(
            np.asarray(ids, dtype=np.int64),
            np.asarray(lengths, dtype=np.int64),
        )
        self.extend(ids_arr, values_arr)
        return int(values_arr.size)

    def extend_runs(
        self,
        run_ids: "np.ndarray | Sequence[int]",
        starts: "np.ndarray | Sequence[int]",
        stops: "np.ndarray | Sequence[int]",
        values: np.ndarray,
        *,
        _validated: bool = False,
    ) -> None:
        """Ingest an already-partitioned chunk: run ``j`` is
        ``values[starts[j]:stops[j]]``, destined for sketch ``run_ids[j]``.

        The entry point for callers that computed the partition themselves
        (the GROUP BY executor partitions once and reuses the permutation
        for every aggregated column; multi-column scans are contiguous by
        construction and need no sort at all).  Runs must be in each
        sketch's arrival order; empty runs are skipped.
        """
        if not _validated:
            values = self._coerce_values(values)
            run_ids = np.asarray(run_ids, dtype=np.int64)
            if len(run_ids):
                lo = int(run_ids.min())
                if lo < 0:
                    raise ConfigurationError(
                        f"sketch ids must be >= 0, got {lo}"
                    )
                hi = int(run_ids.max())
                if hi >= len(self._sketches):
                    self._materialize_through(hi)
        sketches = self._sketches
        if _obs.ENABLED:
            _obs.on_bank_extend(self, int(len(values)), len(run_ids))
        run_list = (
            run_ids.tolist() if isinstance(run_ids, np.ndarray) else list(run_ids)
        )
        start_list = (
            starts.tolist() if isinstance(starts, np.ndarray) else list(starts)
        )
        stop_list = (
            stops.tolist() if isinstance(stops, np.ndarray) else list(stops)
        )
        for rid, s, e in zip(run_list, start_list, stop_list):
            if e > s:
                sketches[rid]._ingest_numeric(values[s:e])

    # -- queries -----------------------------------------------------------

    def counts(self) -> np.ndarray:
        """Elements ingested per sketch (``int64`` array)."""
        return np.fromiter(
            (fw.n for fw in self._sketches),
            dtype=np.int64,
            count=len(self._sketches),
        )

    @property
    def n_total(self) -> int:
        """Total elements ingested across all sketches."""
        return sum(fw.n for fw in self._sketches)

    @property
    def memory_elements(self) -> int:
        """Summed ``b * k`` footprint of every materialised sketch."""
        return sum(fw.memory_elements for fw in self._sketches)

    def quantiles(self, i: int, phis: Sequence[float]) -> List[Any]:
        """Approximate quantiles of sketch *i* (one snapshot, all phis)."""
        return self.sketch(i).quantiles(phis)

    def query(self, i: int, phi: float) -> Any:
        """Approximate ``phi``-quantile of sketch *i*."""
        return self.sketch(i).query(phi)

    def quantile(self, i: int, phi: float) -> Any:
        """Approximate ``phi``-quantile of sketch *i* (uniform alias)."""
        return self.sketch(i).quantile(phi)

    def cdf(self, i: int, value: Any) -> Any:
        """Approximate CDF of sketch *i* at *value* (scalar or sequence)."""
        return self.sketch(i).cdf(value)

    def describe(self, i: int) -> dict:
        """Summary dict for sketch *i* (see ``QuantileFramework.describe``)."""
        return self.sketch(i).describe()

    def quantiles_all(
        self, phis: Sequence[float]
    ) -> List[Optional[List[Any]]]:
        """Per-sketch quantiles for every fraction in *phis*.

        Each sketch answers all fractions off a single buffer snapshot
        (Section 4.7: extra quantiles are free); sketches that have seen
        no elements yield ``None``.
        """
        phi_list = list(phis)
        return [
            fw.quantiles(phi_list) if fw.n else None
            for fw in self._sketches
        ]

    def error_bound(self, i: int) -> float:
        """Certified Lemma 5 rank-error bound (elements) for sketch *i*."""
        return self.sketch(i).error_bound()

    def error_bounds(self) -> List[float]:
        """Certified per-sketch rank-error bounds, id order."""
        return [fw.error_bound() for fw in self._sketches]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SketchBank(eps={self.epsilon}, n={self.design_n}, "
            f"policy={self.policy!r}, sketches={len(self._sketches)})"
        )
