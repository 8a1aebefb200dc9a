"""Windowed and time-decayed quantile sketches.

Everything else in the library summarises *all* data it has ever seen;
real monitoring asks "p99 over the last 5 minutes".  This module grows
two time-aware wrappers out of the paper's own mergeability (§4.9: the
root buffers of several summaries concatenate under one OUTPUT with a
certified bound):

* :class:`WindowedSketch` -- a ring of per-bucket sketches.  Ingest
  lands in the bucket covering its timestamp; a query merges the live
  bucket objects with :func:`repro.core.engines.merge_summaries`, the
  dispatch :func:`repro.core.serialize.merge_serialized` runs on their
  payloads, so the windowed answer *is* the offline §4.9 merge of those
  buckets, bit-for-bit, including ``error_bound()``.  For paper buckets
  that bound is §4.9's concat bound -- Lemma 5 over the buckets' forest
  -- not the bound of an ``absorb`` fold.  ``slide == window`` gives
  tumbling windows (one bucket); ``slide < window`` gives sliding
  windows (``window / slide`` buckets).
* :class:`ExpDecaySketch` -- exponential time-decay.  A ring of
  generation buckets, each a full sketch; queries weight generation
  ``g`` by ``2 ** (-age_g / half_life)`` and invert the weighted rank
  function, so old data fades smoothly instead of falling off a cliff.

Both are engine-agnostic (``engine="paper" | "kll" | "frugal"`` picks
the per-bucket machinery via :mod:`repro.core.engines`), speak the full
:class:`~repro.core.protocols.SketchProtocol` quartet plus ``rank``,
serialise to self-describing wire formats (magic ``WINSKT01`` /
``EXDSKT01``, registered in the engine registry so ``loads_any`` and
cluster fan-in dispatch on them), and merge bucket-wise via ``absorb``.

Time semantics are **event time**: every batch carries a timestamp
(``extend_at``; plain ``extend`` stamps the injected ``clock``, default
``time.time``).  Liveness is decided by the *watermark* -- the newest
bucket index ever written -- never by the wall clock, so queries are
pure functions of the ingested (values, timestamp) pairs: replaying a
journal of timestamped batches reproduces the ring bit-identically, and
queries never mutate state (expired buckets are only physically cleared
when their ring slot is reused by a newer bucket).

Frugal windows must be tumbling: Frugal-2U summaries are not mergeable,
so a sliding window (which must merge several live buckets per query)
is refused at construction.  Frugal *decay* works -- decay queries sum
per-bucket ranks and never merge -- but its ``error_bound()`` stays
``inf``, so a WATCH rule over it can only ever fire ``possible``.
"""

from __future__ import annotations

import math
import struct
import time
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core.errors import ConfigurationError, EmptySummaryError, StorageError
from .core.protocols import ENGINE_BY_ID, ENGINE_IDS, describe_dict
from .core.serialize import _Reader, _StreamReader

__all__ = [
    "WindowedSketch",
    "ExpDecaySketch",
    "parse_duration",
    "window_config",
    "WINDOW_MAGIC",
    "DECAY_MAGIC",
]

WINDOW_MAGIC = b"WINSKT01"
DECAY_MAGIC = b"EXDSKT01"

_WIRE_VERSION = 1

#: per-bucket design capacity for paper-engine buckets created without n
DEFAULT_BUCKET_DESIGN_N = 1 << 30

#: most buckets a window ring may hold (window / slide).  A ring
#: allocates its slot lists up front, so this bounds what one CREATE or
#: one decoded payload can make the process allocate: 1 MiB of slots.
MAX_RING_BUCKETS = 1 << 16

#: narrowest bucket a ring may have, in seconds: the 1 ms of the
#: smallest unit :func:`parse_duration` names.  A narrower bucket has
#: an index no real timestamp can reach, so every ingest would fail.
MIN_BUCKET_S = 0.001

#: decay resolution: generations per half-life, and how small a weight a
#: generation may decay to before it falls off the ring entirely
DECAY_GENERATIONS_PER_HALF_LIFE = 4
DECAY_MIN_WEIGHT_LOG2 = 10  # keep generations down to weight 2**-10

_DURATION_UNITS = {
    "ms": 0.001,
    "s": 1.0,
    "m": 60.0,
    "h": 3600.0,
    "d": 86400.0,
}

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def parse_duration(spec: "str | float | int") -> float:
    """Seconds from a duration spec: ``300``, ``"300"``, ``"5m"``, ``"1.5h"``.

    Unit suffixes: ``ms``, ``s``, ``m``, ``h``, ``d``.  A bare number is
    seconds.  The result must be strictly positive and finite.
    """
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        seconds = float(spec)
    elif isinstance(spec, str):
        text = spec.strip().lower()
        unit = 1.0
        for suffix, scale in sorted(
            _DURATION_UNITS.items(), key=lambda kv: -len(kv[0])
        ):
            if text.endswith(suffix):
                text = text[: -len(suffix)]
                unit = scale
                break
        try:
            seconds = float(text) * unit
        except ValueError:
            raise ConfigurationError(
                f"cannot parse duration {spec!r}: use seconds or a "
                "number with an ms/s/m/h/d suffix (e.g. '5m')"
            ) from None
    else:
        raise ConfigurationError(
            f"cannot parse duration {spec!r}: expected a number or string"
        )
    if not math.isfinite(seconds) or seconds <= 0:
        raise ConfigurationError(
            f"duration must be a positive finite number of seconds, "
            f"got {spec!r}"
        )
    return seconds


def window_config(
    window: "str | float | None",
    slide: "str | float | None",
    decay: "str | float | None",
) -> Tuple[float, float, float]:
    """Validate the facade's time kwargs into ``(window_s, slide_s, decay_s)``.

    The one parsing/validation path behind every surface that accepts
    ``window=``/``slide=``/``decay=`` (``repro.Sketch``, ``repro.hist``,
    ``connect().create``, ``repro client create``), so they agree on
    duration spellings and reject the same nonsense the same way:
    ``window`` and ``decay`` are mutually exclusive, ``slide`` requires
    ``window``.  Zeros mean "not windowed".
    """
    if window is not None and decay is not None:
        raise ConfigurationError(
            "window= and decay= are mutually exclusive: a metric is "
            "either windowed or exponentially decayed"
        )
    if slide is not None and window is None:
        raise ConfigurationError("slide= requires window=")
    window_s = parse_duration(window) if window is not None else 0.0
    slide_s = parse_duration(slide) if slide is not None else 0.0
    decay_s = parse_duration(decay) if decay is not None else 0.0
    return window_s, slide_s, decay_s


def check_bucket_width(bucket_s: float) -> None:
    """Refuse a ring bucket narrower than :data:`MIN_BUCKET_S`: the
    slide (or the window, tumbling) of a window, a quarter of a decay's
    half-life."""
    if not bucket_s >= MIN_BUCKET_S:
        raise ConfigurationError(
            f"bucket width {bucket_s:g}s is below the {MIN_BUCKET_S:g}s "
            "floor (slide, or half-life / "
            f"{DECAY_GENERATIONS_PER_HALF_LIFE} for decay)"
        )


class _TimeBucketedSketch:
    """Shared machinery: the ring of per-bucket engine sketches.

    Subclasses fix the magic tag, interpret the two config floats
    (``p1``/``p2``) and define query semantics over the live buckets.
    """

    MAGIC = b""

    def __init__(
        self,
        eps: float,
        bucket_s: float,
        n_buckets: int,
        *,
        engine: str = "paper",
        policy: str = "new",
        n: Optional[int] = None,
        seed: int = 0,
        phis: Optional[Sequence[float]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if engine not in ENGINE_IDS:
            raise ConfigurationError(
                f"unknown sketch engine {engine!r}; choose one of "
                f"{tuple(ENGINE_IDS)}"
            )
        if not (0 < eps < 1):
            raise ConfigurationError(f"need 0 < eps < 1, got {eps}")
        if n_buckets < 1:
            raise ConfigurationError(f"need >= 1 bucket, got {n_buckets}")
        check_bucket_width(bucket_s)
        self.eps = float(eps)
        self.engine = engine
        self.policy = policy
        self.design_n = None if n is None else int(n)
        self.seed = int(seed)
        self.bucket_s = float(bucket_s)
        self.n_buckets = int(n_buckets)
        self._clock: Callable[[], float] = clock or time.time
        if engine == "frugal":
            from .core.frugal import DEFAULT_BANK_PHIS

            self.phis: Tuple[float, ...] = tuple(
                float(p) for p in (phis if phis is not None else DEFAULT_BANK_PHIS)
            )
        else:
            self.phis = tuple(float(p) for p in (phis or ()))
        self._factory = self._build_factory()
        from .core.engines import ENGINES

        self._spec = ENGINES[engine]
        self._indices: List[int] = [-1] * self.n_buckets
        self._sketches: List[Any] = [None] * self.n_buckets
        self._max_index = -1
        self._total = 0
        self._dropped = 0
        self._version = 0
        self._cache: Optional[Tuple[int, Any]] = None

    # -- construction ------------------------------------------------------

    def _build_factory(self) -> Callable[[], Any]:
        if self.engine == "kll":
            from .core.kll import KLLSketch

            eps, seed = self.eps, self.seed
            return lambda: KLLSketch(eps=eps, seed=seed)
        if self.engine == "frugal":
            from .core.frugal import FrugalSketch

            phis, seed = self.phis, self.seed
            return lambda: FrugalSketch(phis=phis, seed=seed)
        from .core.framework import QuantileFramework
        from .core.parameters import optimal_parameters

        design_n = (
            DEFAULT_BUCKET_DESIGN_N if self.design_n is None else self.design_n
        )
        plan = optimal_parameters(self.eps, design_n, policy=self.policy)
        policy = self.policy

        def make() -> QuantileFramework:
            fw = QuantileFramework(
                plan.b, plan.k, policy=policy, designed_n=design_n
            )
            fw._mode = "numeric"  # time-bucketed streams are numeric-only
            return fw

        return make

    def _config_key(self) -> Tuple:
        return (
            type(self).__name__,
            self.engine,
            self.eps,
            self.design_n,
            self.policy,
            self.seed,
            self.phis,
            self.bucket_s,
            self.n_buckets,
            self._p1(),
            self._p2(),
        )

    # subclasses map their duration config onto two wire floats
    def _p1(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _p2(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- ingest ------------------------------------------------------------

    def extend(self, values: Any) -> None:
        """Ingest *values* stamped with the injected clock's current time."""
        self.extend_at(values, self._clock())

    def extend_at(self, values: Any, t: float) -> None:
        """Ingest *values* as having occurred at event time *t* (seconds).

        Deterministic in ``(values, t)``: replaying the same timestamped
        batches in the same order reproduces the ring bit-identically.
        Batches older than the ring's span (watermark minus ``n_buckets``
        buckets) are dropped and counted in ``dropped``.
        """
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"expected a 1-d batch, got shape {arr.shape}"
            )
        if arr.size == 0:
            return
        where = t / self.bucket_s
        if not math.isfinite(where):
            raise ConfigurationError(
                f"event time {t} has no bucket index at {self.bucket_s}s "
                "buckets"
            )
        idx = int(math.floor(where))
        if idx <= self._max_index - self.n_buckets:
            self._dropped += arr.size
            return
        slot = idx % self.n_buckets
        if self._indices[slot] != idx:
            # the slot holds an expired bucket (or nothing): reuse it
            self._indices[slot] = idx
            self._sketches[slot] = self._factory()
        self._sketches[slot].extend(arr)
        if idx > self._max_index:
            self._max_index = idx
        self._total += arr.size
        self._version += 1
        self._cache = None

    # -- ring introspection ------------------------------------------------

    def _pairs(self) -> List[Tuple[int, Any]]:
        """Every allocated bucket as ``(index, sketch)``, oldest first."""
        return sorted(
            (idx, sk)
            for idx, sk in zip(self._indices, self._sketches)
            if idx >= 0
        )

    def _live(self) -> List[Tuple[int, Any]]:
        """Buckets inside the ring span of the watermark, oldest first."""
        horizon = self._max_index - self.n_buckets
        return [(idx, sk) for idx, sk in self._pairs() if idx > horizon]

    @property
    def watermark_index(self) -> int:
        """Newest bucket index ever written (-1 before any data)."""
        return self._max_index

    @property
    def total(self) -> int:
        """Elements ever ingested (including since-expired buckets)."""
        return self._total

    @property
    def dropped(self) -> int:
        """Elements dropped for arriving older than the ring's span."""
        return self._dropped

    @property
    def memory_elements(self) -> int:
        return sum(sk.memory_elements for _, sk in self._pairs())

    # -- merge -------------------------------------------------------------

    def absorb(self, other: "_TimeBucketedSketch") -> "_TimeBucketedSketch":
        """Fold *other*'s buckets into this ring, bucket index by index.

        Same-grid merge: both rings must share the full configuration
        (engine, eps, policy, durations).  Buckets present on both sides
        merge via the inner engine's ``absorb`` (certified bounds add);
        buckets only *other* has are copied in; buckets older than the
        merged watermark's span expire as usual.  This is what makes the
        cluster's §4.9 fan-in work on windowed payloads.
        """
        if self._config_key() != other._config_key():
            raise ConfigurationError(
                f"cannot absorb a time-bucketed sketch with a different "
                f"configuration: {self._config_key()} vs "
                f"{other._config_key()}"
            )
        from .core.engines import loads_any

        for idx, sk in other._pairs():
            payload = self._spec.dumps(sk)
            slot = idx % self.n_buckets
            if self._indices[slot] == idx:
                if not self._spec.mergeable:
                    raise ConfigurationError(
                        f"{self.engine!r} buckets are not mergeable; "
                        "rings can only fold when their buckets are "
                        "disjoint"
                    )
                # absorb a fresh copy: the engine's absorb may consume
                # its argument, and *other* must stay intact
                self._sketches[slot].absorb(loads_any(payload))
            elif self._indices[slot] < idx:
                self._indices[slot] = idx
                self._sketches[slot] = loads_any(payload)
            # else: the slot holds a newer bucket; *other*'s is expired
            if idx > self._max_index:
                self._max_index = idx
        self._total += other._total
        self._dropped += other._dropped
        self._version += 1
        self._cache = None
        return self

    # -- serialisation -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Self-describing wire format (magic | config | ring buckets)."""
        out = [
            self.MAGIC,
            _U16.pack(_WIRE_VERSION),
            bytes([ENGINE_IDS[self.engine]]),
            _F64.pack(self.eps),
            _U64.pack(0 if self.design_n is None else self.design_n),
        ]
        policy_raw = self.policy.encode("utf-8")
        out.append(_U16.pack(len(policy_raw)))
        out.append(policy_raw)
        out.append(_U32.pack(self.seed))
        out.append(_U16.pack(len(self.phis)))
        for p in self.phis:
            out.append(_F64.pack(p))
        out.append(_F64.pack(self._p1()))
        out.append(_F64.pack(self._p2()))
        out.append(_U64.pack(self._total))
        out.append(_U64.pack(self._dropped))
        out.append(_U32.pack(self.n_buckets))
        for slot in range(self.n_buckets):
            idx = self._indices[slot]
            out.append(_I64.pack(idx))
            if idx < 0:
                out.append(_U32.pack(0))
            else:
                payload = self._spec.dumps(self._sketches[slot])
                out.append(_U32.pack(len(payload)))
                out.append(payload)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "_TimeBucketedSketch":
        """Deserialise from bytes produced by :meth:`to_bytes`."""
        from .core.engines import load_sketch

        return load_sketch(raw, cls.MAGIC)

    @classmethod
    def read_from(cls, fh: BinaryIO) -> "_TimeBucketedSketch":
        """Read one serialised ring from a stream (self-delimiting)."""
        from .core.engines import read_sketch

        return read_sketch(_StreamReader(fh), cls.MAGIC)

    @classmethod
    def read(cls, r: _Reader) -> "_TimeBucketedSketch":
        """Decode a ring payload from *r*, just past its magic: the
        configuration, then per slot a bucket index and an inner
        payload, decoded from exactly its ``size`` bytes.

        Ends with the ring's state check: a bucket sits in the slot its
        index maps to (so no index repeats), has the configuration the
        ring builds its buckets with, and the buckets hold at most the
        ``total`` elements ever ingested.
        """
        from .core.engines import load_sketch

        version = r.u16("version")
        if version != _WIRE_VERSION:
            raise StorageError(
                f"unsupported {cls.__name__} wire version {version}"
            )
        engine_id = r.u8("engine")
        if engine_id not in ENGINE_BY_ID:
            raise StorageError(f"unknown inner engine id {engine_id}")
        eps = r.f64("eps")
        design_n = r.u64("design n")
        config = dict(
            engine=ENGINE_BY_ID[engine_id],
            n=None if design_n == 0 else design_n,
            policy=r.string("policy"),
            seed=r.u32("seed"),
            phis=tuple(r.f64("phi") for _ in range(r.u16("phi count")))
            or None,
        )
        p1, p2 = r.f64("p1"), r.f64("p2")
        sk = cls._from_config(eps, p1, p2, config)
        total, dropped = r.u64("total"), r.u64("dropped")
        n_buckets = r.u32("bucket count")
        if (p1, p2, n_buckets) != (sk._p1(), sk._p2(), sk.n_buckets):
            raise StorageError(
                f"ring of {n_buckets} buckets over ({p1}, {p2}) does not "
                f"fit a {sk.n_buckets}-bucket configuration"
            )
        shape = sk._shape(sk._factory())
        for slot in range(n_buckets):
            (idx,) = _I64.unpack(r.take(8, "bucket index"))
            size = r.u32("bucket payload size")
            if idx < 0:
                if idx != -1 or size:
                    raise StorageError(f"corrupt empty slot {slot}")
                continue
            bucket = load_sketch(
                r.take(size, "bucket payload"), sk._spec.magic
            )
            if idx % n_buckets != slot or sk._shape(bucket) != shape:
                raise StorageError(
                    f"corrupt {cls.__name__}: bucket {idx} in slot {slot}"
                )
            sk._indices[slot] = idx
            sk._sketches[slot] = bucket
            sk._max_index = max(sk._max_index, idx)
        if sum(bucket.n for _, bucket in sk._pairs()) > total:
            raise StorageError(
                f"corrupt {cls.__name__}: buckets hold more than the "
                f"{total} elements ingested"
            )
        sk._total, sk._dropped = total, dropped
        return sk

    @classmethod
    def _from_config(
        cls, eps: float, p1: float, p2: float, config: Dict[str, Any]
    ) -> "_TimeBucketedSketch":
        raise NotImplementedError  # pragma: no cover - abstract

    def _shape(self, bucket: Any) -> Tuple:
        """The configuration this ring's factory fixes for a bucket."""
        if self.engine == "kll":
            return (bucket.k, bucket.delta, bucket.seed)
        if self.engine == "frugal":
            return (bucket.phis, bucket.seed)
        return (bucket.b, bucket.k, bucket.policy.name)

    # -- shared query plumbing --------------------------------------------

    def _merged(self) -> Any:
        """One sketch summarising the live buckets (§4.9 merge, cached).

        :func:`repro.core.engines.merge_summaries` over the live bucket
        objects -- the dispatch ``merge_serialized`` runs on their
        payloads -- so the result, values *and* certified bound, is
        bit-identical to an offline merge of those payloads.  Queries
        never mutate the ring; the cache keys on the ingest version
        counter, and may share bucket buffers until the next ingest
        drops it.
        """
        if self._cache is not None and self._cache[0] == self._version:
            return self._cache[1]
        live = self._live()
        if not live or all(sk.n == 0 for _, sk in live):
            raise EmptySummaryError(
                "no data in the current window; ingest first"
            )
        from .core.engines import merge_summaries

        merged = merge_summaries([sk for _, sk in live])
        self._cache = (self._version, merged)
        return merged


class WindowedSketch(_TimeBucketedSketch):
    """Tumbling/sliding-window quantiles over a ring of bucket sketches.

    Parameters
    ----------
    eps:
        Per-bucket rank accuracy; the merged window keeps a certified
        bound: §4.9's concat bound for paper buckets, the summed
        Hoeffding accounting for KLL.
    window:
        Window span -- seconds or a duration string (``"5m"``).
    slide:
        Bucket width; must divide ``window`` evenly.  Defaults to
        ``window`` (a tumbling window, one bucket).
    engine, policy, n, seed, phis:
        Inner-engine knobs, same meanings as the facade's.
    clock:
        Timestamp source for plain ``extend`` (default ``time.time``);
        inject a fake for deterministic tests.
    """

    MAGIC = WINDOW_MAGIC

    def __init__(
        self,
        eps: float = 0.01,
        *,
        window: "str | float",
        slide: "str | float | None" = None,
        engine: str = "paper",
        policy: str = "new",
        n: Optional[int] = None,
        seed: int = 0,
        phis: Optional[Sequence[float]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        window_s = parse_duration(window)
        slide_s = parse_duration(slide) if slide is not None else window_s
        if slide_s > window_s:
            raise ConfigurationError(
                f"slide ({slide_s}s) cannot exceed window ({window_s}s)"
            )
        ratio = window_s / slide_s
        if not ratio <= MAX_RING_BUCKETS:
            raise ConfigurationError(
                f"window/slide = {ratio:g} buckets exceeds the ring's "
                f"{MAX_RING_BUCKETS}"
            )
        n_buckets = int(round(ratio))
        if abs(ratio - n_buckets) > 1e-9:
            raise ConfigurationError(
                f"slide ({slide_s}s) must divide window ({window_s}s) "
                "evenly"
            )
        if engine == "frugal" and n_buckets > 1:
            raise ConfigurationError(
                "frugal summaries are not mergeable, so frugal windows "
                "must be tumbling (slide == window)"
            )
        self.window_s = window_s
        self.slide_s = slide_s
        super().__init__(
            eps,
            slide_s,
            n_buckets,
            engine=engine,
            policy=policy,
            n=n,
            seed=seed,
            phis=phis,
            clock=clock,
        )

    def _p1(self) -> float:
        return self.window_s

    def _p2(self) -> float:
        return self.slide_s

    @classmethod
    def _from_config(
        cls, eps: float, p1: float, p2: float, config: Dict[str, Any]
    ) -> "WindowedSketch":
        return cls(eps, window=p1, slide=p2, **config)

    # -- queries (all delegate to the merged live window) ------------------

    @property
    def n(self) -> int:
        """Elements inside the current window."""
        return sum(sk.n for _, sk in self._live())

    def quantile(self, phi: float) -> Any:
        return self._merged().quantile(phi)

    def quantiles(self, phis: Sequence[float]) -> List[Any]:
        return self._merged().quantiles(phis)

    def rank(self, value: Any) -> int:
        return self._merged().rank(value)

    def cdf(self, value: Any) -> Any:
        return self._merged().cdf(value)

    def error_bound(self) -> float:
        """The merged window's certified bound -- identical to the §4.9
        offline merge of the live bucket payloads."""
        return float(self._merged().error_bound())

    def describe(self) -> Dict[str, Any]:
        return describe_dict(self)


class ExpDecaySketch(_TimeBucketedSketch):
    """Exponentially time-decayed quantiles.

    Keeps a ring of *generation* buckets of width ``half_life / 4``;
    at query time generation ``g`` (aged ``a_g`` seconds relative to the
    watermark) carries weight ``2 ** (-a_g / half_life)``.  Generations
    older than ``2**-10`` of full weight fall off the ring.  Queries
    invert the weighted rank function ``R(v) = sum_g w_g * rank_g(v)``:

    * ``quantile(phi)`` -- the smallest value with ``R(v) >= phi * W``
      (``W`` the weighted total), found by bisection;
    * ``cdf(v)`` -- ``R(v) / W``;
    * ``error_bound()`` -- ``sum_g w_g * bound_g``, a certified bound on
      the weighted rank error (each bucket's rank is off by at most its
      own bound, and the weighted sum of bounded errors is bounded by
      the weighted sum of bounds).

    ``n`` reports the *effective* (weighted) count ``round(W)`` so rank
    arithmetic -- the service CDF, WATCH definite/possible decisions --
    stays consistent; the raw ingest count is :attr:`raw_n`.
    """

    MAGIC = DECAY_MAGIC

    def __init__(
        self,
        eps: float = 0.01,
        *,
        half_life: "str | float",
        engine: str = "paper",
        policy: str = "new",
        n: Optional[int] = None,
        seed: int = 0,
        phis: Optional[Sequence[float]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        half_life_s = parse_duration(half_life)
        self.half_life_s = half_life_s
        per_half_life = DECAY_GENERATIONS_PER_HALF_LIFE
        n_buckets = DECAY_MIN_WEIGHT_LOG2 * per_half_life + 1
        super().__init__(
            eps,
            half_life_s / per_half_life,
            n_buckets,
            engine=engine,
            policy=policy,
            n=n,
            seed=seed,
            phis=phis,
            clock=clock,
        )

    def _p1(self) -> float:
        return self.half_life_s

    def _p2(self) -> float:
        return 0.0

    @classmethod
    def _from_config(
        cls, eps: float, p1: float, p2: float, config: Dict[str, Any]
    ) -> "ExpDecaySketch":
        return cls(eps, half_life=p1, **config)

    # -- weighted-rank plumbing -------------------------------------------

    def _weighted(self) -> List[Tuple[float, Any]]:
        """Live ``(weight, sketch)`` pairs, oldest first."""
        per_half_life = DECAY_GENERATIONS_PER_HALF_LIFE
        return [
            (2.0 ** (-(self._max_index - idx) / per_half_life), sk)
            for idx, sk in self._live()
            if sk.n > 0
        ]

    def _weighted_total(self) -> float:
        return sum(w * sk.n for w, sk in self._weighted())

    def _weighted_rank(self, value: float) -> float:
        return sum(w * sk.rank(value) for w, sk in self._weighted())

    @property
    def n(self) -> int:
        """Effective (exponentially weighted) element count."""
        return int(round(self._weighted_total()))

    @property
    def raw_n(self) -> int:
        """Raw elements inside the live generations (no decay weights)."""
        return sum(sk.n for _, sk in self._live())

    def rank(self, value: Any) -> int:
        """Weighted rank: decayed count of elements ``<= value``."""
        if not self._weighted():
            raise EmptySummaryError("no data in any live generation")
        return int(round(self._weighted_rank(float(value))))

    def quantile(self, phi: float) -> float:
        pairs = self._weighted()
        if not pairs:
            raise EmptySummaryError("no data in any live generation")
        if not (0.0 <= phi <= 1.0):
            raise ConfigurationError(f"phi must be in [0, 1], got {phi}")
        lo = min(float(sk.quantile(0.0)) for _, sk in pairs)
        hi = max(float(sk.quantile(1.0)) for _, sk in pairs)
        if phi == 1.0:
            # the exact maximum, as phi 0 gives the exact minimum: the
            # weighted rank already reaches W at the largest *stored*
            # value, so bisection would stop below the stream's maximum
            return hi
        target = phi * self._weighted_total()
        if lo == hi or self._weighted_rank(lo) >= target:
            return lo
        # bisect down to adjacent floats for the smallest value whose
        # weighted rank reaches the target: with a step-function rank
        # that is a stored value, not a float just above one
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if self._weighted_rank(mid) >= target:
                hi = mid
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
        return hi

    def quantiles(self, phis: Sequence[float]) -> List[float]:
        return [self.quantile(p) for p in phis]

    def cdf(self, value: Any) -> Any:
        if isinstance(value, (list, tuple, np.ndarray)):
            return [self.cdf(v) for v in value]
        total = self._weighted_total()
        if total <= 0:
            raise EmptySummaryError("no data in any live generation")
        return min(1.0, self._weighted_rank(float(value)) / total)

    def error_bound(self) -> float:
        """Certified bound on the *weighted* rank (inf for frugal)."""
        pairs = self._weighted()
        if not pairs:
            return 0.0
        return float(sum(w * sk.error_bound() for w, sk in pairs))

    def describe(self) -> Dict[str, Any]:
        return describe_dict(self)
