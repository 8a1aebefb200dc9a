"""The streaming driver tying buffers, operations and policies together.

:class:`QuantileFramework` is the runnable embodiment of the paper's
uniform framework (Section 3): ``b`` buffers of ``k`` elements, a collapse
policy deciding the schedule, NEW/COLLAPSE interleaved over a single pass
of the input, and OUTPUT answering any number of quantile queries at the
end (Section 4.7: multiple quantiles cost nothing extra).

Typical use::

    fw = QuantileFramework(b=10, k=600, policy="new")
    fw.extend(big_numpy_chunk)          # vectorised ingest
    fw.update(3.14)                     # scalar ingest
    median = fw.query(0.5)
    p10, p90 = fw.quantiles([0.1, 0.9])
    fw.error_bound()                    # certified a-posteriori rank bound

Sizing ``b`` and ``k`` for a target guarantee is the job of
:mod:`repro.core.parameters`; :meth:`QuantileFramework.from_accuracy` wires
the two together.

Querying is allowed at any point of the stream.  A query needs the not yet
buffer-aligned tail of the input to participate, so the framework builds a
temporary padded buffer for it; when all ``b`` slots are occupied the
framework instead makes room with policy collapses and places the tail as a
real buffer (this is exactly what OUTPUT at end-of-stream would do, and the
pad bookkeeping keeps all rank arithmetic exact either way).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Sequence

import numpy as np

from . import kernels
from .buffer import Buffer
from .errors import (
    CapacityExceededError,
    ConfigurationError,
    EmptySummaryError,
    StorageError,
)
from .operations import OffsetSelector, collapse, output, weighted_rank
from .policies import CollapsePolicy, make_policy
from ..obs import hooks as _obs

if TYPE_CHECKING:
    from .tree import TreeRecorder, TreeStats

__all__ = ["QuantileFramework"]

_SCALAR_FLUSH = 512  # scalars buffered before joining the numeric remainder


class QuantileFramework:
    """One-pass approximate quantile summary with ``b * k`` memory.

    Parameters
    ----------
    b, k:
        Number of buffers and buffer capacity.  The memory footprint is
        ``b * k`` stored elements (plus O(b) bookkeeping), as in the paper.
    policy:
        Collapse policy name or instance -- ``"new"`` (default, the paper's
        algorithm), ``"munro-paterson"`` or ``"alsabti-ranka-singh"``.
    offset_mode:
        ``"alternate"`` (paper behaviour, default) or ``"low"`` / ``"high"``
        to pin the even-weight collapse offset (ablation only).
    record_tree:
        Attach a :class:`~repro.core.tree.TreeRecorder` so the full collapse
        tree can be inspected/rendered afterwards.
    designed_n:
        The dataset size the configuration was sized for.  Purely
        informational unless *strict_capacity* is set.
    strict_capacity:
        Raise :class:`~repro.core.errors.CapacityExceededError` when more
        than *designed_n* elements arrive instead of degrading gracefully.
    """

    # One framework per metric in the service: slots keep the per-object
    # cost at the fields themselves (no instance dict).
    __slots__ = (
        "b",
        "k",
        "policy",
        "designed_n",
        "strict_capacity",
        "recorder",
        "_offsets",
        "_full",
        "_n",
        "_n_collapses",
        "_sum_collapse_weights",
        "_mode",
        "_remainder",
        "_pending_scalars",
        "_finished",
        "_min",
        "_max",
        "_obs_stats",
    )

    def __init__(
        self,
        b: int,
        k: int,
        *,
        policy: "str | CollapsePolicy" = "new",
        offset_mode: str = "alternate",
        record_tree: bool = False,
        designed_n: Optional[int] = None,
        strict_capacity: bool = False,
    ) -> None:
        if b < 2:
            raise ConfigurationError(f"need at least b=2 buffers, got {b}")
        if k < 1:
            raise ConfigurationError(f"buffer capacity k must be >= 1, got {k}")
        if strict_capacity and designed_n is None:
            raise ConfigurationError(
                "strict_capacity requires designed_n to be set"
            )
        self.b = b
        self.k = k
        self.policy = make_policy(policy)
        self.designed_n = designed_n
        self.strict_capacity = strict_capacity
        self._offsets = OffsetSelector(offset_mode)
        self.recorder: Optional[TreeRecorder] = None
        if record_tree:
            # analysis only: a serving process never records the tree
            from .tree import TreeRecorder

            self.recorder = TreeRecorder()
        self._full: List[Buffer] = []
        self._n = 0  # genuine elements ingested
        self._n_collapses = 0
        self._sum_collapse_weights = 0
        self._mode: Optional[str] = None  # "numeric" | "generic"
        self._remainder: Any = None  # np.ndarray or list, matching mode
        # scalars from update(), created by the first one (bulk ingest
        # never needs the list)
        self._pending_scalars: Optional[List[Any]] = None
        self._finished = False
        self._min: Any = None  # exact stream extremes (O(1) bookkeeping)
        self._max: Any = None
        #: per-sketch obs counters (repro.obs.hooks), attached on first use
        self._obs_stats: Any = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_accuracy(
        cls,
        epsilon: float,
        n: int,
        *,
        policy: "str | CollapsePolicy" = "new",
        **kwargs: Any,
    ) -> "QuantileFramework":
        """Size ``(b, k)`` for an ``epsilon``-approximate answer on ``n`` items.

        Uses the per-policy optimisers of :mod:`repro.core.parameters`
        (Sections 4.3-4.5) to minimise ``b * k`` subject to the guarantee.
        """
        from .parameters import optimal_parameters

        plan = optimal_parameters(
            epsilon, n, policy=make_policy(policy).name
        )
        kwargs.setdefault("designed_n", n)
        return cls(plan.b, plan.k, policy=policy, **kwargs)

    # -- introspection ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of genuine elements ingested so far (pending included)."""
        pending = self._pending_scalars
        return self._n + (len(pending) if pending else 0)

    @property
    def memory_elements(self) -> int:
        """The ``b * k`` element footprint of the configuration."""
        return self.b * self.k

    @property
    def n_collapses(self) -> int:
        """``C``: COLLAPSE operations performed so far."""
        return self._n_collapses

    @property
    def sum_collapse_weights(self) -> int:
        """``W``: sum of weights of all COLLAPSE outputs so far."""
        return self._sum_collapse_weights

    def error_bound(self) -> float:
        """Certified rank-error bound for answers issued *now* (Lemma 5).

        Computed from the actual run history: ``(W - C - 1)/2 + w_max``
        where ``w_max`` is the heaviest buffer OUTPUT would currently read.
        Unlike the a-priori sizing bound this is exact for the stream seen,
        so it remains meaningful even if the summary is overfilled past its
        design capacity.
        """
        self._flush_scalars()
        if self._n_collapses == 0:
            return 0.0
        w_max = max((buf.weight for buf in self._full), default=1)
        return (
            self._sum_collapse_weights - self._n_collapses - 1
        ) / 2.0 + w_max

    def tree_stats(self) -> TreeStats:
        """Tree statistics (requires ``record_tree=True``)."""
        if self.recorder is None:
            raise ConfigurationError(
                "tree statistics need record_tree=True at construction"
            )
        return self.recorder.stats(final_buffers=self._snapshot_buffers())

    # -- ingest -----------------------------------------------------------------

    def update(self, value: Any) -> None:
        """Ingest a single element."""
        pending = self._pending_scalars
        if pending is None:
            pending = self._pending_scalars = []
        pending.append(value)
        if len(pending) >= _SCALAR_FLUSH:
            self._flush_scalars()

    def extend(self, data: "Iterable[Any] | np.ndarray") -> None:
        """Ingest many elements (numpy arrays take the vectorised path)."""
        self._flush_scalars()
        if not isinstance(data, (np.ndarray, list, tuple)):
            # Materialise one-shot iterables (generators, map objects, ...)
            # exactly once; mode detection below must not consume them.
            data = list(data)
        if self._mode is None:
            self._mode = self._detect_mode(data)
        if self._mode == "numeric":
            arr = np.asarray(data, dtype=np.float64)
            if arr.ndim != 1:
                raise ConfigurationError(
                    f"expected a 1-d stream, got shape {arr.shape}"
                )
            if arr.size and not np.isfinite(arr).all():
                raise ConfigurationError(
                    "numeric streams must be finite: the framework reserves "
                    "+/-inf as padding sentinels and NaN has no rank"
                )
            self._ingest_numeric(arr)
        else:
            self._ingest_generic(list(data))

    def extend_weighted(
        self,
        values: "np.ndarray | Sequence[float]",
        counts: "np.ndarray | Sequence[int]",
        *,
        chunk_elements: int = 1 << 20,
    ) -> None:
        """Ingest ``values[i]`` repeated ``counts[i]`` times.

        The natural fit for pre-aggregated inputs (``value, frequency``
        rows).  Repeats are materialised in bounded slices of at most
        *chunk_elements*, so memory stays flat; time is proportional to
        the total count.  The guarantee is identical to feeding the
        repeats one by one -- they *are* fed, just vectorised.
        """
        vals = np.asarray(values, dtype=np.float64)
        cnts = np.asarray(counts, dtype=np.int64)
        if vals.shape != cnts.shape or vals.ndim != 1:
            raise ConfigurationError(
                f"values and counts must be equal-length 1-d arrays, got "
                f"{vals.shape} and {cnts.shape}"
            )
        if len(cnts) and int(cnts.min()) < 0:
            raise ConfigurationError("counts cannot be negative")
        if len(cnts) and int(cnts.min()) == 0:
            # Zero-count rows contribute nothing; drop them up front so the
            # chunking loop below never materialises or scans them.
            keep = cnts > 0
            vals = vals[keep]
            cnts = cnts[keep]
        if not len(vals):
            return
        start = 0
        while start < len(vals):
            stop = start
            budget = 0
            while stop < len(vals) and budget + cnts[stop] <= chunk_elements:
                budget += int(cnts[stop])
                stop += 1
            if stop == start:  # single huge count: split it
                huge = int(cnts[start])
                value = float(vals[start])
                while huge > 0:
                    take = min(huge, chunk_elements)
                    self.extend(np.full(take, value))
                    huge -= take
                start += 1
                continue
            piece = np.repeat(vals[start:stop], cnts[start:stop])
            if len(piece):
                self.extend(piece)
            start = stop

    def _detect_mode(self, data: Any) -> str:
        if isinstance(data, np.ndarray):
            return "numeric" if data.dtype.kind in "fiu" else "generic"
        probe = list(data) if not isinstance(data, (list, tuple)) else data
        if isinstance(probe, (list, tuple)) and probe:
            first = probe[0]
            if isinstance(first, (int, float, np.integer, np.floating)):
                return "numeric"
            return "generic"
        return "numeric"

    def _flush_scalars(self) -> None:
        pending = self._pending_scalars
        if not pending:
            return
        self._pending_scalars = None
        if self._mode is None:
            self._mode = self._detect_mode(pending)
        if self._mode == "numeric":
            for v in pending:
                if not isinstance(v, (int, float, np.integer, np.floating)):
                    raise ConfigurationError(
                        f"non-numeric value {v!r} in a numeric stream"
                    )
            arr = np.asarray(pending, dtype=np.float64)
            if arr.size and not np.isfinite(arr).all():
                raise ConfigurationError(
                    "numeric streams must be finite: the framework reserves "
                    "+/-inf as padding sentinels and NaN has no rank"
                )
            self._ingest_numeric(arr)
        else:
            self._ingest_generic(pending)

    def _check_capacity(self, incoming: int) -> None:
        if (
            self.strict_capacity
            and self.designed_n is not None
            and self._n + incoming > self.designed_n
        ):
            raise CapacityExceededError(
                f"summary sized for n={self.designed_n} received "
                f"{self._n + incoming} elements"
            )

    def _ingest_numeric(self, arr: np.ndarray) -> None:
        if arr.size == 0:
            return
        self._check_capacity(int(arr.size))
        self._n += int(arr.size)
        if _obs.ENABLED:
            _obs.on_ingest(self, int(arr.size), int(arr.nbytes))
        lo, hi = float(arr.min()), float(arr.max())
        self._min = lo if self._min is None else min(self._min, lo)
        self._max = hi if self._max is None else max(self._max, hi)
        k = self.k
        rem = self._remainder
        if rem is not None and len(rem):
            # Complete the staged partial buffer with just enough elements
            # instead of concatenating the whole chunk onto it.
            need = k - len(rem)
            if arr.size < need:
                self._remainder = np.concatenate([rem, arr])
                return
            self._place_values(np.concatenate([rem, arr[:need]]))
            arr = arr[need:]
        n_full = arr.size // k
        if n_full:
            # Batched NEW: sort every full buffer of the chunk in one
            # vectorised call, then place the pre-sorted rows.
            mat = kernels.sort_rows(arr, k)
            place = self._place_values
            for i in range(n_full):
                place(mat[i], presorted=True)
        self._remainder = arr[n_full * k :].copy()

    def _ingest_generic(self, items: List[Any]) -> None:
        if not items:
            return
        self._check_capacity(len(items))
        self._n += len(items)
        if _obs.ENABLED:
            _obs.on_ingest(self, len(items), 0)
        lo, hi = min(items), max(items)
        self._min = lo if self._min is None or lo < self._min else self._min
        self._max = hi if self._max is None or hi > self._max else self._max
        staged = (
            list(self._remainder) if isinstance(self._remainder, list) else []
        )
        staged.extend(items)
        k = self.k
        n_full = len(staged) // k
        for i in range(n_full):
            self._place_values(staged[i * k : (i + 1) * k])
        self._remainder = staged[n_full * k :]

    # -- NEW / COLLAPSE scheduling ----------------------------------------------

    def _place_values(self, values: Any, *, presorted: bool = False) -> None:
        """NEW: place *values* (exactly k, or fewer for the final flush).

        With ``presorted=True`` the caller guarantees a full, already
        sorted row of exactly ``k`` numeric values (the batched ingest
        path), so the buffer is built directly without re-sorting or pad
        bookkeeping.
        """
        while True:
            group = self.policy.pre_new_collapse(self._full, self.b)
            if group is None:
                break
            self._do_collapse(group)
        level = self.policy.level_for_new(self._full, self.b)
        if presorted:
            # Copy the row so buffers never pin the chunk-sized sort matrix.
            buf = Buffer(values=values.copy(), weight=1, level=level)
        else:
            buf = Buffer.from_values(values, self.k, level=level)
        self._full.append(buf)
        if self.recorder is not None:
            self.recorder.on_new(buf)
        if _obs.ENABLED:
            _obs.on_new(self, level)
        while True:
            group = self.policy.post_new_collapse(self._full, self.b)
            if not group:
                break
            self._do_collapse(group)

    def _do_collapse(self, group: Sequence[Buffer]) -> None:
        weight = sum(buf.weight for buf in group)
        offset = self._offsets.offset_for(weight)
        result = collapse(group, offset)
        group_ids = {buf.buffer_id for buf in group}
        self._full = [
            buf for buf in self._full if buf.buffer_id not in group_ids
        ]
        self._full.append(result)
        self._n_collapses += 1
        self._sum_collapse_weights += weight
        if self.recorder is not None:
            self.recorder.on_collapse(group, result, offset)
        if _obs.ENABLED:
            _obs.on_collapse(self, group, result, weight, offset)

    # -- queries -----------------------------------------------------------------

    def _snapshot_buffers(self) -> List[Buffer]:
        """Current full buffers plus (if needed) the staged tail as a buffer.

        Never mutates: the tail rides along as a temporary weight-1
        buffer even when every slot is full, so reads commute with
        serialization -- two replicas of the same stream stay
        bit-identical no matter which of them served the queries.
        Only :meth:`finish` (the terminal OUTPUT) places the tail for
        real.
        """
        self._flush_scalars()
        tail = self._remainder
        has_tail = tail is not None and len(tail) > 0
        if not has_tail:
            return list(self._full)
        level = self.policy.level_for_new(self._full, self.b)
        temp = Buffer.from_values(tail, self.k, level=level)
        return list(self._full) + [temp]

    def quantiles(self, phis: Sequence[float]) -> List[Any]:
        """Approximate ``phi``-quantiles for every fraction in *phis*.

        All quantiles are read off the same final buffers, so asking for
        many is no more expensive than asking for one (Section 4.7).
        """
        self._flush_scalars()
        if self._n == 0:
            raise EmptySummaryError("no elements have been ingested")
        bufs = self._snapshot_buffers()
        answers = output(bufs, list(phis), self._n)
        if _obs.ENABLED:
            _obs.on_output(self, len(answers))
        # the stream extremes are tracked exactly (O(1)); answer the end
        # points with them rather than the summary's approximation.  A
        # recombination over adaptive stages knows no exact extremes.
        if self._min is None:
            return answers
        for i, phi in enumerate(phis):
            if phi == 0.0:
                answers[i] = self._min
            elif phi == 1.0:
                answers[i] = self._max
        return answers

    def query(self, phi: float) -> Any:
        """Approximate ``phi``-quantile of everything ingested so far."""
        return self.quantiles([phi])[0]

    def quantile(self, phi: float) -> Any:
        """Approximate ``phi``-quantile (uniform query-surface alias)."""
        return self.quantiles([phi])[0]

    def describe(self) -> dict:
        """A summary dict: n, exact extremes, key quantiles, certified bound."""
        from .protocols import describe_dict

        return describe_dict(self)

    def min(self) -> Any:
        """The exact smallest element seen (tracked in O(1))."""
        self._flush_scalars()
        if self._n == 0:
            raise EmptySummaryError("no elements have been ingested")
        return self._min

    def max(self) -> Any:
        """The exact largest element seen (tracked in O(1))."""
        self._flush_scalars()
        if self._n == 0:
            raise EmptySummaryError("no elements have been ingested")
        return self._max

    def rank(self, value: Any) -> int:
        """Approximate rank of *value*: how many elements are <= it.

        The inverse of :meth:`query`.  By the same counting argument as
        Lemma 5, the true count is within :meth:`error_bound` of the
        returned midpoint estimate.
        """
        self._flush_scalars()
        if self._n == 0:
            raise EmptySummaryError("no elements have been ingested")
        bufs = self._snapshot_buffers()
        _below, below_eq = weighted_rank(bufs, value)
        return min(below_eq, self._n)

    def cdf(self, value: Any) -> Any:
        """Approximate fraction of elements <= *value* (see :meth:`rank`).

        Accepts a scalar (returns one float) or a sequence of values
        (returns a list of floats, one per value).
        """
        if isinstance(value, (list, tuple, np.ndarray)):
            return [self.rank(v) / self._n for v in value]
        return self.rank(value) / self._n

    def finish(self, phis: Sequence[float] = (0.5,)) -> List[Any]:
        """Terminal OUTPUT: flush the tail, record the root, answer *phis*.

        After ``finish`` the summary remains queryable and can even keep
        ingesting, but the recorded tree considers this the OUTPUT point.
        """
        self._flush_scalars()
        if self._n == 0:
            raise EmptySummaryError("no elements have been ingested")
        tail = self._remainder
        if tail is not None and len(tail) > 0:
            self._place_values(tail)
            self._remainder = tail[:0]
        self._finished = True
        if self.recorder is not None:
            self.recorder.on_output(self._full)
        if _obs.ENABLED:
            _obs.on_output(self, len(phis))
        return output(self._full, list(phis), self._n)

    # -- merging ------------------------------------------------------------------

    def absorb(self, other: "QuantileFramework") -> "QuantileFramework":
        """Merge *other*'s summary into this one (distributed building block).

        Both frameworks must share ``k`` (buffer capacity).  The other's
        staged tail is re-ingested as ordinary stream elements, its full
        buffers join this framework's buffer set, and policy collapses
        shrink the set back to ``b`` slots.  The union of the two collapse
        trees plus the new collapses is still a forest meeting Lemma 5's
        requirements, so :meth:`error_bound` stays certified.  *other* is
        left empty.
        """
        if other is self:
            raise ConfigurationError("cannot absorb a framework into itself")
        if other.k != self.k:
            raise ConfigurationError(
                f"cannot merge summaries with different k ({self.k} vs {other.k})"
            )
        if (self.recorder is None) != (other.recorder is None):
            raise ConfigurationError(
                "absorb needs record_tree set identically on both summaries "
                "(otherwise the combined tree statistics would dangle)"
            )
        other._flush_scalars()
        if self._mode is None:
            self._mode = other._mode
        if other._min is not None:
            self._min = (
                other._min
                if self._min is None or other._min < self._min
                else self._min
            )
            self._max = (
                other._max
                if self._max is None or other._max > self._max
                else self._max
            )
        tail = other._remainder
        n_tail = len(tail) if tail is not None else 0
        n_buffered = other._n - n_tail
        # Adopt the other's full buffers and statistics wholesale.
        self._n += n_buffered
        self._n_collapses += other._n_collapses
        self._sum_collapse_weights += other._sum_collapse_weights
        if self.recorder is not None and other.recorder is not None:
            self.recorder.nodes.update(other.recorder.nodes)
            self.recorder._depth.update(other.recorder._depth)
            self.recorder.sum_offsets += other.recorder.sum_offsets
            self.recorder.n_collapses += other.recorder.n_collapses
            self.recorder.sum_collapse_weights += (
                other.recorder.sum_collapse_weights
            )
        self._full.extend(other._full)
        other._full = []
        other._n = 0
        other._n_collapses = 0
        other._sum_collapse_weights = 0
        # Re-ingest the other's loose tail as ordinary elements.
        if n_tail:
            other._remainder = tail[:0]
            if isinstance(tail, np.ndarray):
                self._ingest_numeric(tail)
            else:
                self._ingest_generic(list(tail))
        # Shrink back under the b-slot budget with policy collapses.
        while len(self._full) > self.b:
            group = self.policy.pre_new_collapse(self._full, len(self._full))
            if group is None:
                group = sorted(self._full, key=lambda buf: buf.weight)[:2]
            self._do_collapse(group)
        return self

    # -- inspection of raw state (used by parallel mode and merging) -------------

    def _check_state(self) -> None:
        """Raise :class:`StorageError` unless ingest could have reached
        this numeric state -- the check that ends every paper decoder.

        At most ``b`` buffers, each at a level >= 0, sorted, its pads
        the +/-inf sentinels its counts name and the rest finite, with
        at least one genuine value (every leaf holds one, and a COLLAPSE
        spaced ``W`` apart keeps one from inputs that each hold one); a
        finite staged tail shorter than ``k``.  The stored weight
        ``sum(weight * k) + len(tail)`` is ``n`` plus the pads ever
        placed, and :meth:`finish` pads a leaf holding at least one
        genuine value with at most ``k - 1`` pads, so it lies in
        ``[n, k * n]``; with the tail OUTPUT reads as one more buffer it
        stays below ``2**63``, so its int64 weights cannot overflow.
        """
        k = self.k
        stored = 0
        for buf in self._full:
            v, low, high = buf.values, buf.n_low_pad, buf.n_high_pad
            if not (
                buf.level >= 0
                and low + high < k
                and bool(np.all(v[:-1] <= v[1:]))
                and -np.inf < v[low] <= v[k - high - 1] < np.inf
                and (not low or v[low - 1] == -np.inf)
                and (not high or v[k - high] == np.inf)
            ):
                raise StorageError(
                    "corrupt sketch: a buffer is not sorted genuine data "
                    "between its counted pads"
                )
            stored += buf.weight * k
        tail = self._remainder
        stored += len(tail)
        if not (
            len(self._full) <= self.b
            and len(tail) < k
            and bool(np.isfinite(tail).all())
            and self._n <= stored <= k * self._n
            and stored + k < 1 << 63
        ):
            raise StorageError(
                f"corrupt sketch: {len(self._full)} buffers and a tail of "
                f"{len(tail)} do not hold n={self._n} elements"
            )

    @property
    def full_buffers(self) -> List[Buffer]:
        """The current full buffers (shared references; do not mutate)."""
        return list(self._full)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileFramework(b={self.b}, k={self.k}, "
            f"policy={self.policy.name!r}, n={self._n})"
        )
