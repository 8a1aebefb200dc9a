"""The sharded sketch registry behind the service.

Metrics are named ``namespace/metric`` strings, each owning either a
fixed-N :class:`~repro.core.framework.QuantileFramework` (sized by
``optimal_parameters`` exactly like :class:`~repro.core.sketch.QuantileSketch`'s
deterministic path) or an
:class:`~repro.core.adaptive.AdaptiveQuantileSketch` for streams of
unknown length.  Names hash onto a fixed number of *shards* (stable
CRC32, so a metric lands on the same shard across restarts and shard
counts can change without moving data -- the hash only picks a batching
domain, never where answers come from).

Each shard owns a :class:`~repro.core.bank.SketchBank` into which every
fixed metric's framework is adopted.  Ingest batches are *enqueued* per
shard and *applied* in one drain: pending batches are grouped per metric
(arrival order kept), each fixed metric's group is concatenated into one
run through :meth:`~repro.core.bank.SketchBank.extend_single`, frugal
metrics share one :meth:`~repro.core.frugal.FrugalBank.extend_pairs`
kernel pass, and adaptive and windowed metrics take their batches
directly.  Because every sketch sees exactly its own subsequence in
arrival order, the drain is equivalent to replaying the journal one
record at a time -- the property crash recovery relies on.

The registry is synchronous and transport-free; the server's reactor is a
thin shell over it, and tests drive it directly.
"""

from __future__ import annotations

import time
import zlib
from array import array
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.bank import SketchBank
from ..core.errors import ConfigurationError, EmptySummaryError
from ..core.framework import QuantileFramework
from ..core.parameters import optimal_parameters
from ..core.policies import make_policy
from .protocol import MetricConfig

if TYPE_CHECKING:
    # the other engines load with their first metric, so a server that
    # hosts only paper metrics never imports them
    from ..core.adaptive import AdaptiveQuantileSketch
    from ..core.frugal import FrugalBank, FrugalSketch
    from ..core.kll import KLLSketch

    Sketch = Union[
        QuantileFramework, AdaptiveQuantileSketch, KLLSketch, FrugalSketch
    ]

__all__ = [
    "MetricEntry",
    "SketchRegistry",
    "DedupWindow",
    "DEFAULT_DESIGN_N",
    "DEFAULT_DEDUP_CAPACITY",
]

#: bound on remembered idempotency tokens (FIFO eviction).  At typical
#: retry horizons (seconds) this is orders of magnitude more than a
#: client fleet can have in flight; the bound only exists so a
#: long-running server cannot grow without limit.
DEFAULT_DEDUP_CAPACITY = 65536

#: ring slots a fresh dedup window starts with; the ring doubles from
#: here up to its capacity as tokens arrive
_DEDUP_INITIAL_SLOTS = 64

#: the response shapes the server records, as (field names, field
#: types); a shape's code in the dedup window is its index + 1, and code
#: 0 means the response is kept whole in the window's side dict
_SHAPES: Tuple[Tuple[Tuple[str, ...], Tuple[type, ...]], ...] = (
    (("seq", "count"), (int, int)),
    (("created",), (bool,)),
    (("added",), (bool,)),
    (("removed",), (bool,)),
    (("replaced", "seq"), (bool, int)),
)
#: field names -> (shape code, first field type, second field type); a
#: one-field shape's absent second field packs as the int 0
_SHAPE_CODES = {
    names: (code, types[0], types[-1] if len(types) > 1 else int)
    for code, (names, types) in enumerate(_SHAPES, 1)
}

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_U64_MASK = (1 << 64) - 1
#: multiplicative (Fibonacci) hashing constant, 2**64 / golden ratio
_FIBONACCI = 0x9E3779B97F4A7C15

#: design capacity for fixed metrics created without ``n`` (mirrors
#: :data:`repro.core.sketch.DEFAULT_DESIGN_N`)
DEFAULT_DESIGN_N = 2**30

#: initial stage capacity for adaptive metrics created without ``n``
_DEFAULT_ADAPTIVE_CAPACITY = 4096

_FINITE_MSG = (
    "numeric streams must be finite: the framework reserves "
    "+/-inf as padding sentinels and NaN has no rank"
)


class MetricEntry:
    """One named metric: configuration + live sketch + shard placement."""

    __slots__ = ("name", "config", "shard", "bank_id", "sketch")

    def __init__(
        self,
        name: str,
        config: MetricConfig,
        shard: int,
        sketch: Sketch,
        bank_id: Optional[int],
    ) -> None:
        self.name = name
        self.config = config
        self.shard = shard
        self.sketch = sketch
        self.bank_id = bank_id

    @property
    def windowed(self) -> bool:
        """Whether ingest must carry event time (window or decay config)."""
        return self.config.windowed

    @property
    def count(self) -> int:
        """Elements ingested (applied) so far."""
        return self.sketch.n

    @property
    def memory_elements(self) -> int:
        return self.sketch.memory_elements

    def collapse_count(self) -> int:
        if self.windowed:
            return 0
        engine = self.config.engine
        if engine == "kll":
            return self.sketch._n_compactions
        if engine != "paper":
            return 0
        if self.config.kind == "fixed":
            return self.sketch.n_collapses
        return sum(s.n_collapses for s in self.sketch._closed) + (
            self.sketch._active.n_collapses
        )


class _Shard:
    """One batching domain: the engine banks plus the queue draining into
    them.

    Paper-engine fixed metrics are adopted into ``bank`` (one
    ``extend_single`` run per metric per drain); frugal metrics live on
    rows of ``fbank`` (flat-array Frugal-2U state -- tens of bytes per
    metric, one vectorised kernel pass per drain): CREATE takes
    a fresh row, restores adopt their rebuilt sketch into one.  Both
    banks are bit-identical to per-sketch feeding, which is what keeps
    journal replay exact.  ``fbank`` is made with the shard's first
    frugal metric.
    """

    __slots__ = ("bank", "_fbank", "pending", "n_applied", "n_batches_applied")

    def __init__(self) -> None:
        # the shared-config plan is never used (every sketch is adopted),
        # so the bank's own epsilon/n are placeholders
        self.bank = SketchBank(0.01)
        self._fbank: Optional[FrugalBank] = None
        # (entry, values, event_time); event_time is None for the
        # all-time metrics, a float for windowed/decayed ones
        self.pending: List[
            Tuple[MetricEntry, np.ndarray, Optional[float]]
        ] = []
        self.n_applied = 0
        self.n_batches_applied = 0

    @property
    def fbank(self) -> "FrugalBank":
        if self._fbank is None:
            from ..core.frugal import DEFAULT_BANK_PHIS, FrugalBank

            self._fbank = FrugalBank(DEFAULT_BANK_PHIS, seed=0)
        return self._fbank


class DedupWindow:
    """Bounded token -> response map: exactly-once for retried mutations.

    Every mutating request (CREATE/INGEST/SNAPSHOT/RESTORE/WATCH/UNWATCH)
    may carry a client-generated 64-bit idempotency token.  The first
    time a token is seen, the mutation is applied and its response
    recorded here; a retry with the same token -- the client lost the ack
    to a reset, stall or crash -- replays the *recorded* response without
    touching the sketches, so a batch is never double-counted.

    The window is journal-backed: tokens ride in the journal records
    (format v2), and recovery re-records them, so dedup survives a server
    crash between apply and ack.  Tokens older than the last snapshot
    rotation fall out of the journal; together with the FIFO capacity
    bound this makes the guarantee a *window* -- ample for retry
    horizons of seconds against snapshot intervals of tens of seconds.

    A busy server keeps the window full, so it is stored in flat typed
    arrays, about 33 bytes per token rather than a Python object per
    entry:

    * a FIFO *ring* of slots, one column each for the token (``u64``,
      0 = free slot), two ``int64`` response fields and a one-byte
      response-shape code drawn from :data:`_SHAPES` (the shapes the
      server records; bool fields come back as bools);
    * an open-addressing *index* (linear probing, load <= 1/2) from
      token to ring slot, holding ``slot + 1`` so that 0 marks an empty
      position;
    * a side dict, keyed by ring slot, for any other response --
      SNAPSHOT's ``path``, non-dict values, ints outside int64.

    The ring starts small and doubles up to ``capacity`` (a node that
    sees a few thousand tokens never pays for 65 536).  Growth keeps
    every slot number and rebuilds the index from the token column, so
    it never builds a Python object per entry.
    ``get`` builds a fresh dict with the original field order.
    Re-recording a live token moves it to the back of the FIFO: its old
    slot becomes a hole, which eviction skips and which the ring closes,
    once it is full of holes, with one vectorised compaction.  The
    server only records tokens it just missed, so that happens at most
    on journal replay of a duplicated token.
    """

    __slots__ = (
        "capacity", "hits", "_tokens", "_first", "_second", "_codes",
        "_side", "_index", "_shift", "_head", "_used", "_live",
    )

    def __init__(self, capacity: int = DEFAULT_DEDUP_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"dedup window needs capacity >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        size = min(_DEDUP_INITIAL_SLOTS, capacity)
        self._tokens = _zeros("Q", size)
        self._first = _zeros("q", size)
        self._second = _zeros("q", size)
        self._codes = _zeros("B", size)
        #: ring slot -> response, for responses of no known shape
        self._side: Dict[int, object] = {}
        #: ring slot of the oldest position
        self._head = 0
        #: ring positions from the head on, holes included
        self._used = 0
        #: tokens in the window
        self._live = 0
        self._reindex()

    def __len__(self) -> int:
        return self._live

    def __contains__(self, token: int) -> bool:
        return self._probe(token) >= 0

    @property
    def nbytes(self) -> int:
        """Bytes held by the ring columns and the index."""
        return sum(
            col.itemsize * len(col)
            for col in (
                self._tokens, self._first, self._second, self._codes,
                self._index,
            )
        )

    def get(self, token: int) -> Optional[Dict[str, object]]:
        """The recorded response for *token*, or None if unseen/evicted."""
        slot = self._probe(token)
        if slot < 0:
            return None
        self.hits += 1
        code = self._codes[slot]
        if code == 0:
            stored = self._side[slot]
            return dict(stored) if type(stored) is dict else stored
        names, types = _SHAPES[code - 1]
        first = types[0](self._first[slot])
        if len(names) == 1:
            return {names[0]: first}
        return {names[0]: first, names[1]: types[1](self._second[slot])}

    def record(self, token: int, response: Dict[str, object]) -> None:
        """Remember *response* for *token* (token 0 means "no token")."""
        if token == 0:
            return
        if not 0 < token <= _U64_MASK:
            raise ValueError(f"idempotency token {token} is not a u64")
        found = self._probe(token)
        # a miss ends on the empty index position the token would take,
        # valid as long as nothing below moves index entries
        position = ~found
        if found >= 0:
            self._drop(found)  # re-recorded: goes to the back
        elif self._live == self.capacity:
            self._evict_oldest()
            position = -1
        size = len(self._tokens)
        if self._used == size:
            if size < self.capacity:
                self._grow()
            else:
                self._compact()
            size = len(self._tokens)
            position = -1
        slot = (self._head + self._used) % size
        self._used += 1
        self._live += 1
        self._tokens[slot] = token
        packed = _pack_response(response)
        if packed is None:
            self._codes[slot] = 0
            self._side[slot] = (
                dict(response) if type(response) is dict else response
            )
        else:
            self._codes[slot], self._first[slot], self._second[slot] = packed
        if position >= 0:
            self._index[position] = slot + 1
        else:
            self._insert(slot)

    # -- ring --------------------------------------------------------------

    def _drop(self, slot: int) -> None:
        """Forget the token in *slot*, leaving a hole."""
        self._unindex(slot)
        self._tokens[slot] = 0
        self._side.pop(slot, None)
        self._live -= 1

    def _evict_oldest(self) -> None:
        """Drop the oldest token, past any holes re-records left."""
        tokens = self._tokens
        size = len(tokens)
        head = self._head
        while not tokens[head]:
            head = (head + 1) % size
            self._used -= 1
        self._drop(head)
        self._head = (head + 1) % size
        self._used -= 1

    def _grow(self) -> None:
        """Double the ring, up to ``capacity``, keeping every slot.

        Only a ring smaller than ``capacity`` grows, and such a ring has
        never evicted, so its head is slot 0 and the new slots go after
        the newest one.
        """
        size = len(self._tokens)
        new_size = min(2 * size, self.capacity)
        for name in ("_tokens", "_first", "_second", "_codes"):
            old = getattr(self, name)
            col = _zeros(old.typecode, new_size)
            col[:size] = old
            setattr(self, name, col)
        self._reindex()

    def _compact(self) -> None:
        """Close the holes of a full ring: live slots move, oldest first,
        to slots 0.. and the index is rebuilt."""
        size = len(self._tokens)
        order = (self._head + np.arange(self._used)) % size
        live = order[_column(self._tokens)[order] != 0]
        for col in (self._tokens, self._first, self._second, self._codes):
            view = _column(col)
            packed = view[live]
            view[:] = 0
            view[: live.size] = packed
        moved = np.empty(size, dtype=np.intp)
        moved[live] = np.arange(live.size)
        self._side = {int(moved[s]): v for s, v in self._side.items()}
        self._head = 0
        self._used = int(live.size)
        self._reindex()

    # -- index -------------------------------------------------------------

    def _reindex(self) -> None:
        """Rebuild the index for the ring's live slots at load <= 1/2.

        One insert per live token, straight from the ring columns: no
        per-entry objects and no temporaries beyond the new index.
        """
        bits = (2 * len(self._tokens) - 1).bit_length()
        self._shift = 64 - bits
        self._index = _zeros("I", 1 << bits)
        tokens = self._tokens
        for slot in range(len(tokens)):
            if tokens[slot]:
                self._insert(slot)

    def _probe(self, token: int) -> int:
        """The ring slot holding *token*; on a miss, ``~position`` of the
        empty index position that ended the probe (always negative)."""
        index, tokens = self._index, self._tokens
        mask = len(index) - 1
        i = ((token * _FIBONACCI) & _U64_MASK) >> self._shift
        while True:
            entry = index[i]
            if not entry:
                return ~i
            if tokens[entry - 1] == token:
                return entry - 1
            i = (i + 1) & mask

    def _insert(self, slot: int) -> None:
        index = self._index
        mask = len(index) - 1
        i = ((self._tokens[slot] * _FIBONACCI) & _U64_MASK) >> self._shift
        while index[i]:
            i = (i + 1) & mask
        index[i] = slot + 1

    def _unindex(self, slot: int) -> None:
        """Remove *slot*'s index entry by backward-shift deletion: later
        entries of the probe run move into the gap unless their home
        position lies between the gap and where they sit."""
        index, tokens, shift = self._index, self._tokens, self._shift
        mask = len(index) - 1
        i = ((tokens[slot] * _FIBONACCI) & _U64_MASK) >> shift
        while index[i] != slot + 1:
            i = (i + 1) & mask
        j = i
        while True:
            j = (j + 1) & mask
            entry = index[j]
            if entry == 0:
                break
            home = ((tokens[entry - 1] * _FIBONACCI) & _U64_MASK) >> shift
            if (j - home) & mask >= (j - i) & mask:
                index[i] = entry
                i = j
        index[i] = 0


def _zeros(typecode: str, n: int) -> array:
    """A zeroed typed array of exactly *n* items (no over-allocation)."""
    return array(typecode, (0,)) * n


#: numpy views onto the dedup window's typed arrays, by array typecode
_NP_TYPES = {"Q": np.ulonglong, "q": np.longlong, "B": np.ubyte, "I": np.uintc}


def _column(col: array) -> np.ndarray:
    """A writable numpy view of *col* (do not keep it: a viewed array
    cannot be replaced in place)."""
    return np.frombuffer(col, dtype=_NP_TYPES[col.typecode])


def _pack_response(
    response: object,
) -> Optional[Tuple[int, int, int]]:
    """``(shape code, first, second)`` for a response of a shape in
    :data:`_SHAPES` whose fields have exactly the listed types and fit
    in int64 (a one-field shape packs 0 as its second field), else
    None."""
    if type(response) is not dict:
        return None
    shape = _SHAPE_CODES.get(tuple(response))
    if shape is None:
        return None
    code, first_type, second_type = shape
    first, second = (*response.values(), 0)[:2]
    if (
        type(first) is first_type
        and type(second) is second_type
        and _I64_MIN <= first <= _I64_MAX
        and _I64_MIN <= second <= _I64_MAX
    ):
        return code, first, second
    return None


def shard_of(name: str, n_shards: int) -> int:
    """Stable shard assignment (CRC32 of the UTF-8 name)."""
    return zlib.crc32(name.encode("utf-8")) % n_shards


class SketchRegistry:
    """Named sketches, sharded for batched ingest."""

    def __init__(
        self,
        n_shards: int = 4,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"need >= 1 shard, got {n_shards}")
        self.n_shards = n_shards
        self._shards = [_Shard() for _ in range(n_shards)]
        self._metrics: Dict[str, MetricEntry] = {}
        #: one object per distinct config: a fleet of metrics made alike
        #: shares a handful of configs (and the sketches their fields)
        self._configs: Dict[MetricConfig, MetricConfig] = {}
        #: timestamp source for windowed metrics (injectable for tests
        #: and the server's synthetic-clock mode)
        self.clock: Callable[[], float] = clock or time.time
        #: idempotency-token window (journal-backed via the server)
        self.dedup = DedupWindow()

    # -- metric management -------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return list(self._metrics)

    def entries(self) -> List[MetricEntry]:
        return list(self._metrics.values())

    def get(self, name: str) -> MetricEntry:
        entry = self._metrics.get(name)
        if entry is None:
            raise ConfigurationError(f"unknown metric {name!r}")
        return entry

    def _build_sketch(self, shard_idx: int, config: MetricConfig) -> Sketch:
        epsilon, n, policy = config.epsilon, config.n, config.policy
        if config.windowed:
            from ..windows import ExpDecaySketch, WindowedSketch

            if config.window_s:
                return WindowedSketch(
                    epsilon,
                    window=config.window_s,
                    slide=config.slide_s,
                    engine=config.engine,
                    policy=policy,
                    n=n,
                    clock=self.clock,
                )
            return ExpDecaySketch(
                epsilon,
                half_life=config.decay_s,
                engine=config.engine,
                policy=policy,
                n=n,
                clock=self.clock,
            )
        if config.engine == "kll":
            from ..core.kll import KLLSketch

            return KLLSketch(eps=epsilon, seed=0)
        if config.engine == "frugal":
            # born on a row of its shard's bank: nothing to copy in later
            return self._shards[shard_idx].fbank.new_sketch()
        if config.kind == "fixed":
            design_n = DEFAULT_DESIGN_N if n is None else n
            plan = optimal_parameters(epsilon, design_n, policy=policy)
            fw = QuantileFramework(
                plan.b, plan.k, policy=policy, designed_n=design_n
            )
            fw._mode = "numeric"  # the service is numeric-only
            return fw
        from ..core.adaptive import AdaptiveQuantileSketch

        return AdaptiveQuantileSketch(
            epsilon,
            initial_capacity=_DEFAULT_ADAPTIVE_CAPACITY if n is None else n,
            policy=policy,
        )

    def create(
        self, name: str, config: MetricConfig
    ) -> Tuple[MetricEntry, bool]:
        """Create (or idempotently re-open) a metric.

        Returns ``(entry, created)``.  Re-creating with an equal
        configuration is a no-op (clients race to CREATE on connect);
        re-creating with a different one raises
        :class:`~repro.core.errors.ConfigurationError`.

        ``config.engine`` picks the sketch machinery: ``"paper"``
        honours ``kind``/``n``/``policy``; ``"kll"`` sizes a compactor
        sketch from ``epsilon`` alone; ``"frugal"`` tracks the default
        bank fractions in a few words of state.
        """
        if not name or "\n" in name:
            raise ConfigurationError(f"invalid metric name {name!r}")
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.config != config:
                raise ConfigurationError(
                    f"metric {name!r} already exists with configuration "
                    f"{existing.config}, requested {config}"
                )
            return existing, False
        # intern before building, so the sketch's fields come from the
        # kept config and not from a copy about to be dropped
        config = self._configs.setdefault(config, config)
        sketch = self._build_sketch(shard_of(name, self.n_shards), config)
        return self._register(name, config, sketch), True

    def install_serialized(
        self, name: str, config: MetricConfig, payload: bytes
    ) -> bool:
        """Install a metric's complete state from its engine wire payload.

        The replace-or-create half of the cluster re-sync protocol (the
        ``RESTORE`` opcode and its journal record): the payload -- as
        produced by :meth:`fetch_serialized` on the donor -- becomes the
        metric's sketch wholesale, under *config*'s head and engine.  An
        existing metric of the same name is *replaced* (its old bank row
        is orphaned until the next restart re-adopts a clean registry --
        bounded by the handful of restores a sync performs, and tens of
        kilobytes each).  Returns ``True`` when an existing metric was
        replaced, ``False`` when the name was new here.

        The payload must be a sketch of the metric *config* declares --
        same engine and kind and, for an adaptive one, the same epsilon
        and policy -- or the donor is corrupt and nothing is installed.
        The window or decay comes from the payload, which is
        self-describing.
        """
        from ..core.adaptive import AdaptiveQuantileSketch
        from ..core.engines import engine_of_sketch, loads_any

        if not name or "\n" in name:
            raise ConfigurationError(f"invalid metric name {name!r}")
        sketch = loads_any(payload)
        actual = engine_of_sketch(sketch)
        kind = "fixed"
        timing = {"window_s": 0.0, "slide_s": 0.0, "decay_s": 0.0}
        if actual in ("windowed", "expdecay"):
            # the ring carries its inner engine and window/decay config,
            # so the RESTORE wire (which has neither) stays unchanged
            if actual == "windowed":
                timing.update(window_s=sketch.window_s, slide_s=sketch.slide_s)
            else:
                timing.update(decay_s=sketch.half_life_s)
            sketch._clock = self.clock
            actual = sketch.engine
        elif isinstance(sketch, AdaptiveQuantileSketch):
            kind = "adaptive"
            if (sketch.epsilon, sketch.policy) != (
                config.epsilon, make_policy(config.policy).name
            ):
                raise ConfigurationError(
                    f"restore of {name!r} declares epsilon "
                    f"{config.epsilon} and policy {config.policy!r} but the "
                    f"payload has {sketch.epsilon} and {sketch.policy!r}; "
                    "refusing a corrupt install"
                )
        if (actual, kind) != (config.engine, config.kind):
            raise ConfigurationError(
                f"restore of {name!r} declares {config.kind} "
                f"{config.engine!r} but the payload is {kind} {actual!r}; "
                "refusing a corrupt install"
            )
        config = replace(config, **timing)
        replaced = self._metrics.pop(name, None) is not None
        self._register(name, config, sketch)
        return replaced

    def register_restored(
        self, name: str, config: MetricConfig, sketch: Sketch
    ) -> MetricEntry:
        """Attach a sketch rebuilt by the snapshot codec (recovery path)."""
        if name in self._metrics:
            raise ConfigurationError(f"metric {name!r} restored twice")
        if config.windowed:
            sketch._clock = self.clock
        return self._register(name, config, sketch)

    def _register(
        self, name: str, config: MetricConfig, sketch: Sketch
    ) -> MetricEntry:
        config = self._configs.setdefault(config, config)
        shard_idx = shard_of(name, self.n_shards)
        bank_id: Optional[int] = None
        if config.windowed:
            # windowed rings manage their own buckets; no bank adoption
            pass
        elif config.engine == "frugal":
            bank_id = self._shards[shard_idx].fbank.adopt(sketch)
        elif config.engine == "paper" and config.kind == "fixed":
            assert isinstance(sketch, QuantileFramework)
            bank_id = self._shards[shard_idx].bank.adopt(sketch)
        entry = MetricEntry(name, config, shard_idx, sketch, bank_id)
        self._metrics[name] = entry
        return entry

    # -- ingest ------------------------------------------------------------

    @staticmethod
    def coerce_batch(values: "np.ndarray | list") -> np.ndarray:
        """Validate one ingest batch before it is journaled or queued."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"expected a 1-d batch, got shape {arr.shape}"
            )
        if arr.size and not np.isfinite(arr).all():
            raise ConfigurationError(_FINITE_MSG)
        return arr

    def enqueue(
        self, name: str, values: np.ndarray, *, validated: bool = False
    ) -> MetricEntry:
        """Queue a batch on the metric's shard (apply later).

        ``validated=True`` skips re-coercion for callers that already
        ran :meth:`coerce_batch` on this exact array (the server does,
        before journaling) -- the finiteness scan is O(batch) and showed
        up as a double charge on the ingest hot path.
        """
        entry = self.get(name)
        if entry.windowed:
            raise ConfigurationError(
                f"metric {name!r} is windowed; ingest must carry event "
                "time (use enqueue_at/ingest_at)"
            )
        arr = values if validated else self.coerce_batch(values)
        if arr.size:
            self._shards[entry.shard].pending.append((entry, arr, None))
        return entry

    def enqueue_at(
        self,
        name: str,
        values: np.ndarray,
        t: float,
        *,
        validated: bool = False,
    ) -> MetricEntry:
        """Queue a timestamped batch for a windowed/decayed metric.

        *t* is event time in seconds.  The (values, t) pair is what gets
        journaled, so replay reproduces the ring bit-identically no
        matter when it runs.
        """
        entry = self.get(name)
        if not entry.windowed:
            raise ConfigurationError(
                f"metric {name!r} is not windowed; use enqueue/ingest"
            )
        arr = values if validated else self.coerce_batch(values)
        if arr.size:
            self._shards[entry.shard].pending.append((entry, arr, float(t)))
        return entry

    def ingest(self, name: str, values: np.ndarray) -> MetricEntry:
        """Enqueue and immediately apply (the synchronous/replay path)."""
        entry = self.enqueue(name, values)
        self.apply_shard(entry.shard)
        return entry

    def ingest_at(
        self, name: str, values: np.ndarray, t: float
    ) -> MetricEntry:
        """Timestamped enqueue-and-apply (windowed replay path)."""
        entry = self.enqueue_at(name, values, t)
        self.apply_shard(entry.shard)
        return entry

    def pending_batches(self) -> int:
        return sum(len(s.pending) for s in self._shards)

    def apply_shard(self, shard_idx: int) -> int:
        """Drain one shard's queue through the bank; returns elements applied.

        Queued batches are grouped per metric (arrival order preserved
        within each metric) and fed as one concatenated run through the
        bank's single-sketch fast path -- no cross-metric stable
        partition, so a shard drain costs the same per element as direct
        in-process ingest.  Each sketch still sees exactly its own
        subsequence in arrival order, so the result is bit-identical to
        applying every batch alone, in queue order (the PR-2 bank
        property).
        """
        shard = self._shards[shard_idx]
        if not shard.pending:
            return 0
        pending, shard.pending = shard.pending, []
        applied = 0
        groups: Dict[int, Tuple[MetricEntry, List[np.ndarray]]] = {}
        for entry, arr, t in pending:
            applied += arr.size
            if t is not None:
                # windowed batches go to their own ring, one by one in
                # arrival order -- each carries its own event time, so
                # they must not be concatenated across timestamps
                entry.sketch.extend_at(arr, t)
                continue
            group = groups.get(id(entry))
            if group is None:
                groups[id(entry)] = (entry, [arr])
            else:
                group[1].append(arr)
        frugal_pairs: List[Tuple[int, np.ndarray]] = []
        for entry, arrays in groups.values():
            values = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
            if entry.config.engine == "frugal":
                # every frugal metric on the shard shares one flat-array
                # bank; collect the runs and make a single kernel pass
                assert entry.bank_id is not None
                frugal_pairs.append((entry.bank_id, values))
            elif entry.bank_id is not None:
                # queued arrays passed coerce_batch before they were
                # journaled/acked; don't re-scan them at apply time
                shard.bank.extend_single(entry.bank_id, values, validated=True)
            else:
                entry.sketch.extend(values)
        if frugal_pairs:
            shard.fbank.extend_pairs(frugal_pairs)
        shard.n_applied += applied
        shard.n_batches_applied += len(pending)
        return applied

    def apply_all(self) -> int:
        return sum(self.apply_shard(i) for i in range(self.n_shards))

    # -- queries (callers must apply the shard first for freshness) --------

    def quantiles(
        self, name: str, phis: List[float]
    ) -> Tuple[List[float], float, int]:
        """``(values, certified Lemma 5 bound in elements, n)`` for *name*."""
        entry = self.get(name)
        sketch = entry.sketch
        if sketch.n == 0:
            raise EmptySummaryError(f"metric {name!r} has no data yet")
        values = [float(v) for v in sketch.quantiles(phis)]
        return values, float(sketch.error_bound()), sketch.n

    def cdf(self, name: str, value: float) -> Tuple[int, float, float, int]:
        """``(rank, fraction, certified bound, n)`` for the inverse query."""
        entry = self.get(name)
        sketch = entry.sketch
        if sketch.n == 0:
            raise EmptySummaryError(f"metric {name!r} has no data yet")
        rank = int(sketch.rank(value))
        return rank, rank / sketch.n, float(sketch.error_bound()), sketch.n

    def fetch_serialized(self, name: str) -> bytes:
        """The metric's summary in its engine's wire format.

        The payload starts with the engine's 8-byte magic, so receivers
        dispatch with :func:`repro.core.engines.loads_any`.  This is the
        shipping half of §4.9 fan-in -- collect payloads from several
        servers and fold them with
        :func:`repro.core.serialize.merge_serialized` (mergeable engines
        only; frugal and adaptive payloads load and query individually).
        """
        from ..core.engines import dumps_any

        return dumps_any(self.get(name).sketch)

    # -- introspection -----------------------------------------------------

    def describe_metrics(self) -> List[Dict[str, object]]:
        return [
            {
                "name": e.name,
                "kind": e.config.kind,
                "engine": e.config.engine,
                "n": e.count,
                "memory_elements": e.memory_elements,
                "shard": e.shard,
                "window_s": e.config.window_s,
                "slide_s": e.config.slide_s,
                "decay_s": e.config.decay_s,
            }
            for e in self._metrics.values()
        ]

    def engine_counts(self) -> Dict[str, int]:
        """Metric count per engine (only engines actually in use)."""
        out: Dict[str, int] = {}
        for e in self._metrics.values():
            out[e.config.engine] = out.get(e.config.engine, 0) + 1
        return out

    def shard_stats(self) -> List[Dict[str, object]]:
        from ..obs import hooks as obs_hooks

        out = []
        for i, shard in enumerate(self._shards):
            entries = [e for e in self._metrics.values() if e.shard == i]
            stats: Dict[str, object] = {
                "shard": i,
                "metrics": len(entries),
                "elements_applied": shard.n_applied,
                "batches_applied": shard.n_batches_applied,
                "pending_batches": len(shard.pending),
                "collapse_count": sum(
                    e.collapse_count() for e in entries
                ),
                "memory_elements": sum(
                    e.memory_elements for e in entries
                ),
            }
            levels: Dict[int, int] = {}
            for e in entries:
                obs_stats = obs_hooks.collected_stats(e.sketch)
                if obs_stats is not None and obs_stats.collapses_by_level:
                    for lvl, cnt in obs_stats.collapses_by_level.items():
                        levels[lvl] = levels.get(lvl, 0) + cnt
            if levels:
                stats["collapses_by_level"] = {
                    str(k): v for k, v in sorted(levels.items())
                }
            out.append(stats)
        return out

    @property
    def total_elements(self) -> int:
        return sum(e.count for e in self._metrics.values())
