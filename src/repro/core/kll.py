"""KLL quantile engine: compactor hierarchy with a certified rank bound.

"Optimal Quantile Approximation in Streams" (Karnin, Lang & Liberty; see
PAPERS.md) replaces the MRL b/k-buffer framework with a hierarchy of
*compactors*: level ``l`` holds items of weight ``2**l``; when a level
overflows its capacity it sorts its items and promotes every second one
(random parity) to the level above.  Capacities decay geometrically with
depth below the top level (``k * c**(H - l)``, ``c = 2/3``), which is
what gives KLL strictly better space than MRL at the same guarantee --
the bench shoot-out (BENCH_engines.json) shows it beating the paper
framework's ``b*k`` footprint at equal ``eps``.

Certified a-posteriori bound
----------------------------

Each compaction at level ``l`` shifts the rank of any fixed value by
``+w``, ``-w`` or ``0`` (``w = 2**l``) with a fair random sign, so the
total rank error is a sum of independent bounded zero-mean terms.  The
sketch tracks ``S2 = sum(m_l * 4**l)`` (``m_l`` = compactions at level
``l``) and :meth:`KLLSketch.error_bound` reports the Hoeffding bound

    ``t = sqrt(2 * S2 * ln(2 / delta))``

which the true rank error exceeds with probability at most ``delta``
(per fixed query).  Unlike MRL's Lemma 5 this is probabilistic, not
worst-case -- the trade KLL makes for its space advantage; ``delta`` is
a constructor knob.  ``k`` is sized from ``(eps, delta)`` so the bound
lands at ``eps * n`` (the closed form below), and the bench checks the
observed error sits inside the certified bound.

Determinism and mergeability
----------------------------

Compaction parities are bits of a counter-indexed hash (the same
splitmix64 streams the Frugal engine uses), so the whole compaction
schedule is a pure function of the stream *content* -- independent of
chunk boundaries.  That makes service journal replay bit-identical and
the ``absorb`` merge deterministic: merging two serialised summaries on
any worker yields byte-identical results, which the cluster fan-in
relies on.
"""

from __future__ import annotations

import functools
import io
import math
import struct
from typing import Any, BinaryIO, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .errors import ConfigurationError, EmptySummaryError, StorageError
from .protocols import describe_dict
from .serialize import _Reader, _StreamReader
from ..obs import hooks as _obs

__all__ = ["KLLSketch", "KLL_MAGIC", "k_for_eps"]

KLL_MAGIC = b"KLLSKT01"
KLL_FORMAT_VERSION = 1

# after the magic: version, k, min_capacity, n_levels, n, n_compactions,
# seed, eps, delta, c, min, max
_HEADER = struct.Struct("<HIHHQQQddddd")
# per level: item count, compaction count
_LEVEL_HEADER = struct.Struct("<IQ")

#: capacity decay per level below the top (the KLL paper's constant)
_DEFAULT_C = 2.0 / 3.0
_MIN_CAPACITY = 8

_FINITE_MSG = (
    "numeric streams must be finite: the framework reserves "
    "+/-inf as padding sentinels and NaN has no rank"
)

#: the one empty level every sketch starts from and every emptied or new
#: level points at: read-only, so no sketch can write into another's
_EMPTY_LEVEL = np.empty(0, dtype=np.float64)
_EMPTY_LEVEL.flags.writeable = False


def _even_ceil(x: float) -> int:
    return 2 * int(math.ceil(x / 2.0))


@functools.lru_cache(maxsize=256)
def k_for_eps(eps: float, delta: float = 0.01) -> int:
    """Smallest even compactor width whose certified bound lands at eps*n.

    From the closed form of the Hoeffding bound over the compaction
    schedule: with capacities ``k * c**(H-l)`` the error variance proxy
    is ``S2 ~= 4 * n**2 / k**2`` (independent of n as a fraction), so

        ``bound / n ~= (2 * sqrt(2 * ln(2/delta))) / k``

    and the smallest adequate ``k`` is that expression over ``eps``,
    rounded up to even.  The bench verifies the prediction a-posteriori.
    """
    if not 0 < eps < 1:
        raise ConfigurationError(f"eps must be in (0, 1), got {eps}")
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
    k = _even_ceil(2.0 * math.sqrt(2.0 * math.log(2.0 / delta)) / eps)
    return max(k, _MIN_CAPACITY)


@functools.lru_cache(maxsize=256)
def _parity_base(seed: int) -> int:
    """Base of the compaction-parity hash stream (one int per seed, shared
    by every sketch with that seed)."""
    return kernels.stream_seed(seed, 0)


class KLLSketch:
    """One-pass quantile summary with compactors and a probabilistic bound.

    Answers the uniform :class:`~repro.core.protocols.SketchProtocol`
    quartet.  Mergeable via :meth:`absorb`; serialises to the
    ``KLLSKT01`` wire format (see docs/formats.md).

    Parameters
    ----------
    eps:
        Target rank-accuracy fraction; ``k`` is derived from ``(eps,
        delta)`` unless given explicitly.
    k:
        Explicit top-compactor width (even), overriding *eps*.
    delta:
        Failure probability of the certified bound (per fixed query).
    seed:
        Base of the deterministic compaction-parity hash stream.
    """

    # One sketch per metric in the service: slots keep the per-object
    # cost at the fields themselves.
    __slots__ = (
        "eps",
        "k",
        "delta",
        "seed",
        "_parity_base",
        "_levels",
        "_compactions",
        "_n",
        "_n_compactions",
        "_s2",
        "_min",
        "_max",
        "_obs_stats",
        # ad-hoc instance attributes still work (the snapshot tests patch
        # to_bytes on one live sketch); CPython makes the dict only when
        # one is set, so it costs 32 B, not a dict
        "__dict__",
    )

    #: capacity decay per level below the top, and the capacity floor
    c = _DEFAULT_C
    min_capacity = _MIN_CAPACITY

    def __init__(
        self,
        eps: float = 0.01,
        *,
        k: Optional[int] = None,
        delta: float = 0.01,
        seed: int = 0,
    ) -> None:
        if k is None:
            k = k_for_eps(eps, delta)
        else:
            k = int(k)
            if k < 2 or k % 2:
                raise ConfigurationError(
                    f"k must be an even integer >= 2, got {k}"
                )
        if not 0 < delta < 1:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        self.eps = float(eps)
        self.k = k
        self.delta = float(delta)
        self.seed = int(seed)
        self._parity_base = _parity_base(self.seed)
        #: per-level items in arrival order (level l items weigh 2**l)
        self._levels: List[np.ndarray] = [_EMPTY_LEVEL]
        #: per-level compaction counts (the m_l of the bound)
        self._compactions: List[int] = [0]
        self._n = 0
        self._n_compactions = 0
        self._s2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        #: per-sketch obs counters (repro.obs.hooks), attached on first use
        self._obs_stats: Any = None

    # -- capacities --------------------------------------------------------

    def _capacity(self, level: int) -> int:
        """Capacity of *level* relative to the current top level."""
        top = len(self._levels) - 1
        return max(
            self.min_capacity, _even_ceil(self.k * self.c ** (top - level))
        )

    @property
    def n(self) -> int:
        """Genuine elements ingested so far."""
        return self._n

    @property
    def n_levels(self) -> int:
        return len(self._levels)

    @property
    def memory_elements(self) -> int:
        """Summed level capacities -- the design footprint, comparable to
        the paper framework's ``b * k``."""
        return sum(self._capacity(l) for l in range(len(self._levels)))

    @property
    def stored_elements(self) -> int:
        """Items currently held (always <= :attr:`memory_elements`)."""
        return sum(len(lvl) for lvl in self._levels)

    # -- ingest ------------------------------------------------------------

    def extend(self, values: Any) -> None:
        """Ingest *values* (any iterable of finite numbers), in order."""
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = np.fromiter(
                (float(v) for v in values), dtype=np.float64
            )
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"expected a 1-d stream, got shape {arr.shape}"
            )
        if arr.size == 0:
            return
        if not np.isfinite(arr).all():
            raise ConfigurationError(_FINITE_MSG)
        lo = float(arr.min())
        hi = float(arr.max())
        self._min = lo if self._min is None else min(self._min, lo)
        self._max = hi if self._max is None else max(self._max, hi)
        self._n += arr.size
        if _obs.ENABLED:
            _obs.on_ingest(self, int(arr.size), int(arr.nbytes))
        level0 = self._levels[0]
        buf = arr if len(level0) == 0 else np.concatenate([level0, arr])
        self._levels[0] = buf
        self._settle()
        self._own_level0(arr)

    def _own_level0(self, ingested: Optional[np.ndarray] = None) -> None:
        """Engines copy what they keep: the residue left at level 0 may be
        the caller's array or a view into it (the server hands over
        zero-copy views of whole socket reads) or into a compacted block,
        so keep a private copy of just the residue -- never alias or pin
        ingest memory.  An empty residue is the shared empty level."""
        rest = self._levels[0]
        if not len(rest):
            self._levels[0] = _EMPTY_LEVEL
        elif rest is ingested or rest.base is not None:
            self._levels[0] = rest.copy()

    def insert(self, value: float) -> None:
        """Ingest one element."""
        self.extend(np.asarray([value], dtype=np.float64))

    # -- compaction --------------------------------------------------------
    #
    # The settle rule -- "while any level holds at least its capacity,
    # compact the HIGHEST such level; level 0 surrenders its oldest
    # cap(0) items, higher levels compact wholesale (keeping the newest
    # item back when the count is odd)" -- makes the schedule a pure
    # function of arrival counts.  Feeding elements one at a time or in
    # arbitrary chunks visits the exact same sequence of compactions:
    # level-0 blocks are consumed in arrival order and every upward
    # cascade (including capacity shrinks caused by a new top level)
    # completes before the next block, exactly as it would have with
    # single-element arrivals.  The batch-invariance property tests rest
    # on this.

    def _overfull(self) -> int:
        """Highest level at/over capacity, or -1."""
        for level in range(len(self._levels) - 1, -1, -1):
            if len(self._levels[level]) >= self._capacity(level):
                return level
        return -1

    def _settle(self) -> None:
        compacted = 0
        while True:
            level = self._overfull()
            if level < 0:
                break
            self._compact(level)
            compacted += 1
        if compacted and _obs.ENABLED:
            _obs.on_engine_event("kll", "compactions", compacted)

    def _compact(self, level: int) -> None:
        items = self._levels[level]
        if level == 0:
            cap = self._capacity(0)
            block = items[:cap]
            rest = items[cap:]
        else:
            if len(items) % 2:
                # odd count: the newest item stays behind (no error); a
                # copy, so the level does not pin the compacted array
                block = items[:-1]
                rest = items[-1:].copy()
            else:
                block = items
                rest = _EMPTY_LEVEL
        self._levels[level] = rest
        block = np.sort(block)
        parity = (
            kernels.splitmix64_u01_scalar(
                self._parity_base, self._n_compactions
            )
            >= 0.5
        )
        promoted = block[1::2] if parity else block[0::2]
        self._n_compactions += 1
        self._compactions[level] += 1
        self._s2 += 4.0**level
        if level + 1 == len(self._levels):
            self._levels.append(_EMPTY_LEVEL)
            self._compactions.append(0)
        nxt = self._levels[level + 1]
        self._levels[level + 1] = (
            promoted.copy() if len(nxt) == 0 else np.concatenate([nxt, promoted])
        )

    # -- queries -----------------------------------------------------------

    def _merged(self) -> Tuple[np.ndarray, np.ndarray]:
        """All stored items value-sorted, with cumulative weights."""
        if self._n == 0:
            raise EmptySummaryError("no elements have been ingested")
        vals = np.concatenate(self._levels)
        weights = np.concatenate(
            [
                np.full(len(lvl), 1 << l, dtype=np.int64)
                for l, lvl in enumerate(self._levels)
            ]
        )
        order = np.argsort(vals, kind="stable")
        return vals[order], np.cumsum(weights[order])

    def quantiles(self, phis: Sequence[float]) -> List[float]:
        """Approximate quantiles for every fraction in *phis*.

        One merge answers all fractions; ``phi`` 0 and 1 return the
        exactly tracked extremes.
        """
        phi_list = [float(p) for p in phis]
        for phi in phi_list:
            if not 0.0 <= phi <= 1.0:
                raise ConfigurationError(
                    f"quantile fractions must be in [0, 1], got {phi}"
                )
        sv, cw = self._merged()
        if _obs.ENABLED:
            _obs.on_output(self, len(phi_list))
        out: List[float] = []
        total = int(cw[-1])
        for phi in phi_list:
            if phi <= 0.0:
                out.append(float(self._min))
            elif phi >= 1.0:
                out.append(float(self._max))
            else:
                target = min(max(int(math.ceil(phi * total)), 1), total)
                idx = int(np.searchsorted(cw, target, side="left"))
                out.append(float(sv[idx]))
        return out

    def quantile(self, phi: float) -> float:
        """Approximate ``phi``-quantile."""
        return self.quantiles([phi])[0]

    def query(self, phi: float) -> float:
        """Alias of :meth:`quantile` (the pre-facade spelling)."""
        return self.quantile(phi)

    def rank(self, value: Any) -> int:
        """Approximate rank of *value*: how many elements are <= it."""
        sv, cw = self._merged()
        idx = int(np.searchsorted(sv, float(value), side="right"))
        below_eq = int(cw[idx - 1]) if idx else 0
        return min(below_eq, self._n)

    def cdf(self, value: Any) -> Any:
        """Approximate fraction of elements <= *value* (see :meth:`rank`)."""
        if isinstance(value, (list, tuple, np.ndarray)):
            return [self.rank(v) / self._n for v in value]
        return self.rank(value) / self._n

    def describe(self) -> Dict[str, Any]:
        """Summary dict: n, exact extremes, key quantiles, certified bound."""
        return describe_dict(self)

    def min(self) -> float:
        """The exact smallest element seen."""
        if self._n == 0:
            raise EmptySummaryError("no elements have been ingested")
        return float(self._min)

    def max(self) -> float:
        """The exact largest element seen."""
        if self._n == 0:
            raise EmptySummaryError("no elements have been ingested")
        return float(self._max)

    def error_bound(self) -> float:
        """Certified a-posteriori rank-error bound (absolute elements).

        Hoeffding over the realised compaction schedule: holds for any
        fixed rank query with probability at least ``1 - delta``.  Zero
        while no compaction has happened (the summary is still exact).
        """
        if self._s2 == 0.0:
            return 0.0
        return math.sqrt(2.0 * self._s2 * math.log(2.0 / self.delta))

    # -- merge -------------------------------------------------------------

    def absorb(self, other: "KLLSketch") -> "KLLSketch":
        """Merge *other* into this summary (the §4.9-style fan-in).

        Levels concatenate pairwise (self's items first, preserving each
        side's arrival order), the error accounting adds, and the result
        settles under the combined capacities.  Requires equal ``k`` --
        the summaries must answer the same guarantee.  Deterministic:
        the merged compaction parities continue this summary's hash
        stream at the summed compaction counter.
        """
        if not isinstance(other, KLLSketch):
            raise ConfigurationError(
                f"can only absorb another KLLSketch, got {type(other).__name__}"
            )
        if other.k != self.k:
            raise ConfigurationError(
                f"cannot merge KLL summaries with different k "
                f"({self.k} != {other.k})"
            )
        if other._n == 0:
            return self
        while len(self._levels) < len(other._levels):
            self._levels.append(_EMPTY_LEVEL)
            self._compactions.append(0)
        for l, lvl in enumerate(other._levels):
            if len(lvl):
                mine = self._levels[l]
                self._levels[l] = (
                    lvl.copy() if len(mine) == 0 else np.concatenate([mine, lvl])
                )
            self._compactions[l] += other._compactions[l]
        self._n += other._n
        self._n_compactions += other._n_compactions
        self._s2 += other._s2
        if self._min is None:
            self._min, self._max = other._min, other._max
        else:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
        self._settle()
        self._own_level0()
        return self

    # -- serialisation -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the ``KLLSKT01`` wire format (see docs/formats.md)."""
        out = io.BytesIO()
        out.write(KLL_MAGIC)
        out.write(
            _HEADER.pack(
                KLL_FORMAT_VERSION,
                self.k,
                self.min_capacity,
                len(self._levels),
                self._n,
                self._n_compactions,
                self.seed,
                self.eps,
                self.delta,
                self.c,
                self._min if self._min is not None else float("nan"),
                self._max if self._max is not None else float("nan"),
            )
        )
        for lvl, m_l in zip(self._levels, self._compactions):
            out.write(_LEVEL_HEADER.pack(len(lvl), m_l))
            out.write(np.ascontiguousarray(lvl, dtype="<f8").tobytes())
        return out.getvalue()

    @classmethod
    def read_from(cls, fh: BinaryIO) -> "KLLSketch":
        """Read one serialised summary from *fh* (self-delimiting)."""
        from .engines import read_sketch

        return read_sketch(_StreamReader(fh), KLL_MAGIC)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "KLLSketch":
        """Deserialise from bytes produced by :meth:`to_bytes`."""
        from .engines import load_sketch

        return load_sketch(raw, KLL_MAGIC)

    @classmethod
    def read(cls, r: _Reader) -> "KLLSketch":
        """Decode a ``KLLSKT01`` payload from *r*, just past its magic."""
        (
            version,
            k,
            min_cap,
            n_levels,
            n,
            n_compactions,
            seed,
            eps,
            delta,
            c,
            minv,
            maxv,
        ) = _HEADER.unpack(r.take(_HEADER.size, "kll header"))
        if version != KLL_FORMAT_VERSION:
            raise StorageError(f"unsupported KLL format version {version}")
        if n_levels < 1:
            raise StorageError("corrupt KLL sketch: no levels")
        sk = cls(eps=eps, k=k, delta=delta, seed=seed)
        if min_cap != sk.min_capacity or c != sk.c:
            raise StorageError(
                "corrupt KLL sketch: unsupported capacity schedule"
            )
        sk._n = n
        sk._n_compactions = n_compactions
        sk._min = None if math.isnan(minv) else minv
        sk._max = None if math.isnan(maxv) else maxv
        sk._levels = []
        sk._compactions = []
        for _ in range(n_levels):
            count, m_l = _LEVEL_HEADER.unpack(
                r.take(_LEVEL_HEADER.size, "kll level header")
            )
            sk._levels.append(
                r.f64_array(count, "kll level payload")
                if count
                else _EMPTY_LEVEL
            )
            sk._compactions.append(m_l)
        sk._s2 = sum(m_l * 4.0**l for l, m_l in enumerate(sk._compactions))
        sk._check_state()
        return sk

    def _check_state(self) -> None:
        """Raise :class:`StorageError` unless ingest could have reached
        this state -- the check that ends the decoder.

        A compaction turns an even block of level ``l`` into half as
        many items of level ``l + 1``, and ``absorb`` adds, so the level
        weights sum to n exactly (Karnin--Lang--Liberty's compactor
        invariant); settling leaves every level below its capacity and
        the top level, unless it is the only one, nonempty; every
        compaction is counted once per level; and the exact extremes
        are finite, and known exactly when n > 0.
        """
        levels = self._levels
        if not (
            sum(len(lvl) << l for l, lvl in enumerate(levels))
            == self._n
            < 1 << 63
            and sum(self._compactions) == self._n_compactions
            and (len(levels) == 1 or len(levels[-1]))
            and (
                self._min is self._max is None
                if self._n == 0
                else None not in (self._min, self._max)
                and -math.inf < self._min <= self._max < math.inf
            )
            and all(
                len(lvl) < self._capacity(l) and np.isfinite(lvl).all()
                for l, lvl in enumerate(levels)
            )
        ):
            raise StorageError(
                f"corrupt KLL sketch: {len(levels)} levels do not hold "
                f"n={self._n} finite items within capacity"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KLLSketch(eps={self.eps}, k={self.k}, n={self._n}, "
            f"levels={len(self._levels)})"
        )
