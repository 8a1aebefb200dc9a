"""Frugal-2U quantile engine: a handful of words per tracked fraction.

"Frugal Streaming for Estimating Quantiles: One (or two) memories
suffice" (Ma, Muthukrishnan & Sandler; see PAPERS.md) tracks one
quantile of a stream with two registers: the running estimate ``m`` and
an adaptive ``step``.  Each element nudges the estimate towards the
tracked fraction with a probabilistic comparison; the step size grows
while the estimate keeps moving in one direction and collapses back to
1 on reversals.  No buffers, no merges -- just O(1) state -- which is
what makes *huge* per-user metric cardinality affordable: at the
default two tracked fractions a :class:`FrugalBank` spends 58 bytes per
metric, against ~16 KiB for the paper's framework at ``eps=0.01``.

The trade-offs, stated up front:

* **no certified bound** -- Frugal-2U converges to the true quantile in
  expectation but ships no a-posteriori rank guarantee, so
  :meth:`FrugalSketch.error_bound` returns ``inf`` (the honest answer;
  the engine-selection table in docs/api.md shows measured accuracy);
* **not mergeable** -- two estimate/step pairs cannot be combined;
  :func:`repro.core.serialize.merge_serialized` refuses frugal payloads;
* untracked fractions are answered by monotone interpolation between
  the tracked estimates, anchored at the exact (tracked) extremes.

Determinism
-----------

Every probabilistic decision consumes a pure hash of ``(stream seed,
per-sketch element index)`` (:func:`repro.core.kernels.splitmix64_u01`)
instead of a stateful RNG.  State after ingesting a stream is therefore
a function of the stream *content* only -- independent of batch
boundaries, of bank-vs-direct feeding, and of journal replay chunking --
which is what lets the service recover frugal metrics bit-identically
after a crash.

Vectorised bank
---------------

:class:`FrugalBank` stores the state of *all* its sketches in flat
numpy arrays (``(n_phis, n_sketches)`` float64 planes) and applies a
whole partitioned ingest chunk with the branchless rounds kernel
(:func:`repro.core.kernels.frugal2u_update`): round ``r`` updates the
``r``-th element of every active run at once, so 100k metrics ingest at
array speed instead of per-object Python dispatch.
"""

from __future__ import annotations

import io
import struct
from typing import Any, BinaryIO, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .errors import (
    CapacityExceededError,
    ConfigurationError,
    EmptySummaryError,
    StorageError,
)
from .protocols import DESCRIBE_PHIS, describe_dict
from .serialize import _Reader, _StreamReader
from ..obs import hooks as _obs

__all__ = ["FrugalBank", "FrugalSketch", "FRUGAL_MAGIC"]

FRUGAL_MAGIC = b"FRGSKT01"
FRUGAL_FORMAT_VERSION = 1

# after the magic: version, n_phis, seed, n, min, max
_HEADER = struct.Struct("<HHxxxxQQdd")
# per tracked fraction: q, m, step, sign
_PHI_RECORD = struct.Struct("<dddb")

#: default tracked fractions for banks -- the p50/p99 shape of per-user
#: latency metrics, 58 bytes of state per sketch
DEFAULT_BANK_PHIS = (0.5, 0.99)

_FINITE_MSG = (
    "numeric streams must be finite: the framework reserves "
    "+/-inf as padding sentinels and NaN has no rank"
)


def _validate_phis(phis: Sequence[float]) -> np.ndarray:
    arr = np.asarray(sorted(set(float(p) for p in phis)), dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("need at least one tracked fraction")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ConfigurationError(
            f"tracked fractions must be strictly inside (0, 1), got {list(phis)}"
        )
    return arr


class FrugalBank:
    """N Frugal-2U sketches in flat arrays, filled by one vectorised kernel.

    The frugal counterpart of :class:`~repro.core.bank.SketchBank`: same
    ingest surface (``extend`` / ``extend_single`` / ``extend_pairs`` /
    ``extend_runs``), same lazy materialisation by dense integer id, but
    per-sketch state is three scalars per tracked fraction plus a
    counter and the exact extremes -- no buffers at all.

    Parameters
    ----------
    phis:
        Tracked quantile fractions, shared by every sketch in the bank
        (default ``(0.5, 0.99)``).  Other fractions are answered by
        monotone interpolation.
    n_sketches:
        Sketches to materialise eagerly.
    max_sketches:
        Optional hard cap on the number of sketches.
    seed:
        Base of the deterministic per-element randomness, shared by the
        whole bank (one stream per tracked fraction).
    """

    def __init__(
        self,
        phis: Sequence[float] = DEFAULT_BANK_PHIS,
        *,
        n_sketches: int = 0,
        max_sketches: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if n_sketches < 0:
            raise ConfigurationError(
                f"n_sketches must be >= 0, got {n_sketches}"
            )
        if max_sketches is not None and max_sketches < 1:
            raise ConfigurationError(
                f"max_sketches must be >= 1, got {max_sketches}"
            )
        self._qs = _validate_phis(phis)
        self.seed = int(seed)
        self.max_sketches = max_sketches
        self._bases = np.asarray(
            [kernels.stream_seed(self.seed, p) for p in range(len(self._qs))],
            dtype=np.uint64,
        )
        self._count = 0
        cap = max(n_sketches, 1)
        nphis = len(self._qs)
        self._m = np.zeros((nphis, cap), dtype=np.float64)
        self._step = np.ones((nphis, cap), dtype=np.float64)
        self._sign = np.ones((nphis, cap), dtype=np.int8)
        self._n = np.zeros(cap, dtype=np.int64)
        self._min = np.full(cap, np.inf, dtype=np.float64)
        self._max = np.full(cap, -np.inf, dtype=np.float64)
        if n_sketches:
            self._count = n_sketches

    # -- sketch management -------------------------------------------------

    @property
    def phis(self) -> Tuple[float, ...]:
        """The tracked fractions (sorted, deduplicated)."""
        return tuple(float(q) for q in self._qs)

    @property
    def n_sketches(self) -> int:
        return self._count

    def __len__(self) -> int:
        return self._count

    def _materialize_through(self, max_id: int) -> None:
        if self.max_sketches is not None and max_id >= self.max_sketches:
            raise CapacityExceededError(
                f"bank capped at {self.max_sketches} sketches; "
                f"sketch id {max_id} would exceed it"
            )
        if max_id < self._count:
            return
        cap = self._m.shape[1]
        if max_id >= cap:
            new_cap = max(max_id + 1, 2 * cap)
            nphis = len(self._qs)

            def grow2(arr: np.ndarray, fill: float) -> np.ndarray:
                out = np.full((nphis, new_cap), fill, dtype=arr.dtype)
                out[:, : self._count] = arr[:, : self._count]
                return out

            def grow1(arr: np.ndarray, fill: float) -> np.ndarray:
                out = np.full(new_cap, fill, dtype=arr.dtype)
                out[: self._count] = arr[: self._count]
                return out

            self._m = grow2(self._m, 0.0)
            self._step = grow2(self._step, 1.0)
            self._sign = grow2(self._sign, 1)
            self._n = grow1(self._n, 0)
            self._min = grow1(self._min, np.inf)
            self._max = grow1(self._max, -np.inf)
        self._count = max_id + 1

    def add_sketch(self) -> int:
        """Materialise one more sketch; returns its id."""
        new_id = self._count
        self._materialize_through(new_id)
        return new_id

    def new_sketch(self) -> "FrugalSketch":
        """Materialise one more sketch and return a live view of its row.

        A fresh row holds the same state as a fresh one-row sketch, so
        this is ``adopt(FrugalSketch(self.phis, seed=self.seed))``
        without building a private bank and copying it in.
        """
        sketch = FrugalSketch.__new__(FrugalSketch)
        sketch._bank = self
        sketch._row = self.add_sketch()
        return sketch

    def adopt(self, sketch: "FrugalSketch") -> int:
        """Move an externally built :class:`FrugalSketch` into the bank.

        The sketch's state is copied into the next bank row and the
        sketch becomes a live view onto it (queries and ``extend`` on
        the sketch read and write the bank row), so callers keep their
        handles while ingest is batched bank-wide -- the frugal analogue
        of :meth:`SketchBank.adopt`.  Requires matching tracked
        fractions and seed, or the deterministic update streams would
        diverge from the sketch's pre-adoption history.
        """
        if not isinstance(sketch, FrugalSketch):
            raise ConfigurationError(
                f"adopt() needs a FrugalSketch, got {type(sketch).__name__}"
            )
        src = sketch._bank
        if src is self:
            return sketch._row
        if tuple(src.phis) != tuple(self.phis):
            raise ConfigurationError(
                f"cannot adopt: sketch tracks {src.phis}, bank {self.phis}"
            )
        if src.seed != self.seed:
            raise ConfigurationError(
                f"cannot adopt: sketch seed {src.seed} != bank seed {self.seed}"
            )
        row = self.add_sketch()
        j = sketch._row
        self._m[:, row] = src._m[:, j]
        self._step[:, row] = src._step[:, j]
        self._sign[:, row] = src._sign[:, j]
        self._n[row] = src._n[j]
        self._min[row] = src._min[j]
        self._max[row] = src._max[j]
        sketch._bank = self
        sketch._row = row
        return row

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

    def _apply_runs(
        self,
        run_ids: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        values: np.ndarray,
    ) -> None:
        if _obs.ENABLED:
            _obs.on_bank_extend(self, int(len(values)), len(run_ids))
        adjusted = kernels.frugal2u_update(
            self._qs,
            self._m,
            self._step,
            self._sign,
            self._n,
            self._min,
            self._max,
            values,
            run_ids,
            starts,
            stops,
            self._bases,
        )
        if _obs.ENABLED:
            _obs.on_engine_event("frugal", "step_adjustments", adjusted)

    def extend_single(
        self,
        i: int,
        values: "np.ndarray | Sequence[float]",
        *,
        validated: bool = False,
    ) -> None:
        """Feed *values* (in order) to sketch *i* alone."""
        if i < 0:
            raise ConfigurationError(f"sketch ids must be >= 0, got {i}")
        arr = values if validated else self._coerce_values(values)
        if arr.size == 0:
            return
        if i >= self._count:
            self._materialize_through(i)
        self._apply_runs(
            np.asarray([i], dtype=np.int64),
            np.asarray([0], dtype=np.int64),
            np.asarray([arr.size], dtype=np.int64),
            np.ascontiguousarray(arr, dtype=np.float64),
        )

    def extend(
        self,
        ids: "np.ndarray | Sequence[int]",
        values: "np.ndarray | Sequence[float]",
    ) -> None:
        """Route ``values[j]`` to sketch ``ids[j]`` for the whole chunk.

        One stable argsort partitions the chunk into per-sketch runs
        (arrival order preserved within each run) and one kernel call
        applies every run -- bit-identical to feeding each sketch its
        subsequence with :meth:`extend_single`.
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
        if hi >= self._count:
            self._materialize_through(hi)
        if lo == hi:
            self.extend_single(lo, values_arr, validated=True)
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
        self._apply_runs(run_ids, starts, stops, sorted_vals)

    def extend_pairs(
        self,
        pairs: "Sequence[tuple[int, np.ndarray]]",
    ) -> int:
        """Ingest many ``(sketch_id, values)`` batches as one kernel chunk.

        Batches naming the same sketch are kept in list order, so each
        sketch still sees its elements in arrival order.  Returns the
        number of elements ingested.
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
            self.extend_single(ids[0], arrays[0], validated=True)
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
        """Ingest an already-partitioned chunk (see ``SketchBank.extend_runs``).

        Runs must be in each sketch's arrival order.  Duplicate run ids
        (several runs for one sketch) are folded through the pair path so
        the kernel always sees distinct ids.
        """
        run_ids = np.asarray(run_ids, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        if not _validated:
            values = self._coerce_values(values)
            if len(run_ids):
                lo = int(run_ids.min())
                if lo < 0:
                    raise ConfigurationError(
                        f"sketch ids must be >= 0, got {lo}"
                    )
                hi = int(run_ids.max())
                if hi >= self._count:
                    self._materialize_through(hi)
        keep = stops > starts
        if not np.all(keep):
            run_ids, starts, stops = run_ids[keep], starts[keep], stops[keep]
        if len(run_ids) == 0:
            return
        if len(np.unique(run_ids)) != len(run_ids):
            self.extend_pairs(
                [
                    (int(r), values[int(s) : int(e)])
                    for r, s, e in zip(run_ids, starts, stops)
                ]
            )
            return
        self._apply_runs(run_ids, starts, stops, values)

    # -- queries -----------------------------------------------------------

    def counts(self) -> np.ndarray:
        """Elements ingested per sketch (``int64`` array)."""
        return self._n[: self._count].copy()

    @property
    def n_total(self) -> int:
        """Total elements ingested across all sketches."""
        return int(self._n[: self._count].sum())

    @property
    def memory_bytes(self) -> int:
        """Exact per-sketch state bytes held for the materialised sketches.

        Counts the live state (estimates, steps, signs, counters,
        extremes) -- the number the bench's bytes-per-metric gate
        measures -- not the amortised over-allocation of the growth
        arrays.
        """
        n = self._count
        per_row = (
            self._m.itemsize * len(self._qs)
            + self._step.itemsize * len(self._qs)
            + self._sign.itemsize * len(self._qs)
            + self._n.itemsize
            + self._min.itemsize
            + self._max.itemsize
        )
        return per_row * n

    @property
    def memory_elements(self) -> int:
        """State footprint in float64-equivalents (``memory_bytes / 8``)."""
        return -(-self.memory_bytes // 8)

    def _check_id(self, i: int) -> int:
        if not 0 <= i < self._count:
            raise ConfigurationError(
                f"no sketch {i}; bank holds {self._count}"
            )
        return i

    def n_of(self, i: int) -> int:
        """Elements ingested by sketch *i*."""
        return int(self._n[self._check_id(i)])

    def _anchors(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Monotone (phi, value) interpolation anchors for sketch *i*.

        Tracked estimates are clipped to the exact extremes and made
        non-decreasing in phi order (transient inversions between
        independently tracked fractions must not produce a non-monotone
        quantile function).
        """
        if self._n[i] == 0:
            raise EmptySummaryError("no elements have been ingested")
        lo = self._min[i]
        hi = self._max[i]
        est = np.clip(self._m[:, i], lo, hi)
        est = np.maximum.accumulate(est)
        xp = np.concatenate(([0.0], self._qs, [1.0]))
        fp = np.concatenate(([lo], est, [hi]))
        return xp, fp

    def quantiles(self, i: int, phis: Sequence[float]) -> List[float]:
        """Estimated quantiles of sketch *i* (tracked or interpolated)."""
        i = self._check_id(i)
        phi_arr = np.asarray(list(phis), dtype=np.float64)
        if phi_arr.size and (
            np.any(phi_arr < 0.0) or np.any(phi_arr > 1.0)
        ):
            raise ConfigurationError(
                f"quantile fractions must be in [0, 1], got {list(phis)}"
            )
        xp, fp = self._anchors(i)
        return [float(v) for v in np.interp(phi_arr, xp, fp)]

    def quantile(self, i: int, phi: float) -> float:
        """Estimated ``phi``-quantile of sketch *i*."""
        return self.quantiles(i, [phi])[0]

    def cdf(self, i: int, value: Any) -> Any:
        """Estimated CDF of sketch *i* at *value* (scalar or sequence)."""
        i = self._check_id(i)
        xp, fp = self._anchors(i)
        if isinstance(value, (list, tuple, np.ndarray)):
            vals = np.asarray(value, dtype=np.float64)
            return [float(v) for v in np.interp(vals, fp, xp)]
        return float(np.interp(float(value), fp, xp))

    def rank(self, i: int, value: Any) -> int:
        """Estimated rank of *value* in sketch *i*'s stream."""
        i = self._check_id(i)
        xp, fp = self._anchors(i)
        frac = float(np.interp(float(value), fp, xp))
        return min(int(round(frac * int(self._n[i]))), int(self._n[i]))

    def error_bound(self, i: int) -> float:
        """``inf``: Frugal-2U carries no certified rank bound."""
        self._check_id(i)
        return float("inf")

    def error_bounds(self) -> List[float]:
        return [float("inf")] * self._count

    def quantiles_all(
        self, phis: Sequence[float]
    ) -> List[Optional[List[float]]]:
        """Per-sketch quantiles for every fraction in *phis* (None if empty)."""
        phi_list = list(phis)
        return [
            self.quantiles(i, phi_list) if self._n[i] else None
            for i in range(self._count)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrugalBank(phis={self.phis}, sketches={self._count}, "
            f"seed={self.seed})"
        )


class FrugalSketch:
    """A single Frugal-2U summary: the per-metric face of the engine.

    Internally a one-row :class:`FrugalBank` (so the single-sketch and
    bank ingest paths share one kernel and are bit-identical by
    construction); :meth:`FrugalBank.adopt` re-points the sketch at a
    shared bank row without changing its behaviour, and
    :meth:`FrugalBank.new_sketch` creates one directly on a bank row.

    Answers the full :class:`~repro.core.protocols.SketchProtocol`
    quartet.  ``error_bound()`` is ``inf`` -- this engine trades the
    certified guarantee for O(1) state; pick the paper or KLL engine
    when a bound is required.
    """

    __slots__ = ("_bank", "_row")

    def __init__(
        self,
        phis: Sequence[float] = DESCRIBE_PHIS,
        *,
        seed: int = 0,
    ) -> None:
        self._bank = FrugalBank(phis, n_sketches=1, seed=seed)
        self._row = 0

    # -- ingest ------------------------------------------------------------

    def extend(self, values: Any) -> None:
        """Ingest *values* (any iterable of finite numbers), in order."""
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = np.fromiter(
                (float(v) for v in values), dtype=np.float64
            )
        self._bank.extend_single(self._row, values)

    def insert(self, value: float) -> None:
        """Ingest one element."""
        self._bank.extend_single(self._row, np.asarray([value], dtype=np.float64))

    # -- queries -----------------------------------------------------------

    @property
    def phis(self) -> Tuple[float, ...]:
        """The tracked fractions."""
        return self._bank.phis

    @property
    def seed(self) -> int:
        return self._bank.seed

    @property
    def n(self) -> int:
        """Elements ingested so far."""
        return self._bank.n_of(self._row)

    @property
    def memory_elements(self) -> int:
        """State footprint in float64-equivalents (a handful of words)."""
        per_row_bytes = self._bank.memory_bytes // max(self._bank.n_sketches, 1)
        return -(-per_row_bytes // 8)

    def quantile(self, phi: float) -> float:
        """Estimated ``phi``-quantile (tracked directly or interpolated)."""
        return self._bank.quantile(self._row, phi)

    def quantiles(self, phis: Sequence[float]) -> List[float]:
        """Estimated quantiles for every fraction in *phis*."""
        return self._bank.quantiles(self._row, phis)

    def query(self, phi: float) -> float:
        """Alias of :meth:`quantile` (the pre-facade spelling)."""
        return self.quantile(phi)

    def cdf(self, value: Any) -> Any:
        """Estimated CDF at a scalar (float) or sequence (list of floats)."""
        return self._bank.cdf(self._row, value)

    def rank(self, value: Any) -> int:
        """Estimated rank of *value* (elements <= it)."""
        return self._bank.rank(self._row, value)

    def describe(self) -> Dict[str, Any]:
        """Summary dict: n, exact extremes, key quantiles, ``inf`` bound."""
        return describe_dict(self)

    def min(self) -> float:
        """The exact smallest element seen."""
        if self.n == 0:
            raise EmptySummaryError("no elements have been ingested")
        return float(self._bank._min[self._row])

    def max(self) -> float:
        """The exact largest element seen."""
        if self.n == 0:
            raise EmptySummaryError("no elements have been ingested")
        return float(self._bank._max[self._row])

    def error_bound(self) -> float:
        """``inf``: Frugal-2U carries no certified rank bound."""
        return float("inf")

    # -- serialisation -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the ``FRGSKT01`` wire format (see docs/formats.md)."""
        bank, row = self._bank, self._row
        out = io.BytesIO()
        n = int(bank._n[row])
        out.write(FRUGAL_MAGIC)
        out.write(
            _HEADER.pack(
                FRUGAL_FORMAT_VERSION,
                len(bank._qs),
                bank.seed,
                n,
                float(bank._min[row]) if n else float("nan"),
                float(bank._max[row]) if n else float("nan"),
            )
        )
        for p in range(len(bank._qs)):
            out.write(
                _PHI_RECORD.pack(
                    float(bank._qs[p]),
                    float(bank._m[p, row]),
                    float(bank._step[p, row]),
                    int(bank._sign[p, row]),
                )
            )
        return out.getvalue()

    @classmethod
    def read_from(cls, fh: BinaryIO) -> "FrugalSketch":
        """Read one serialised sketch from *fh* (self-delimiting)."""
        from .engines import read_sketch

        return read_sketch(_StreamReader(fh), FRUGAL_MAGIC)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FrugalSketch":
        """Deserialise from bytes produced by :meth:`to_bytes`."""
        from .engines import load_sketch

        return load_sketch(raw, FRUGAL_MAGIC)

    @classmethod
    def read(cls, r: _Reader) -> "FrugalSketch":
        """Decode a ``FRGSKT01`` payload from *r*, just past its magic.

        The state is checked before it lands in the bank's arrays: fewer
        than ``2**63`` elements (the int64 counter), and every estimate
        and step finite with a sign of +/-1, as the update rule keeps
        them.
        """
        version, n_phis, seed, n, minv, maxv = _HEADER.unpack(
            r.take(_HEADER.size, "frugal header")
        )
        if version != FRUGAL_FORMAT_VERSION:
            raise StorageError(
                f"unsupported frugal format version {version}"
            )
        if n_phis < 1:
            raise StorageError("corrupt frugal sketch: no tracked fractions")
        records = np.array(
            [
                _PHI_RECORD.unpack(r.take(_PHI_RECORD.size, "frugal record"))
                for _ in range(n_phis)
            ]
        )
        qs, ms, steps, signs = records.T
        if not (
            n < 1 << 63
            and np.isfinite(ms).all()
            and np.isfinite(steps).all()
            and np.isin(signs, (-1, 1)).all()
        ):
            raise StorageError("corrupt frugal sketch: estimator state")
        sk = cls(qs, seed=seed)
        bank = sk._bank
        if len(bank._qs) != n_phis or not np.array_equal(bank._qs, qs):
            raise StorageError(
                "corrupt frugal sketch: tracked fractions not sorted/unique"
            )
        bank._m[:, 0] = ms
        bank._step[:, 0] = steps
        bank._sign[:, 0] = signs
        bank._n[0] = n
        bank._min[0] = np.inf if np.isnan(minv) else minv
        bank._max[0] = -np.inf if np.isnan(maxv) else maxv
        return sk

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrugalSketch(phis={self.phis}, n={self.n}, seed={self.seed})"
        )
