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


def _read_exact(fh: BinaryIO, size: int, what: str) -> bytes:
    # loop: raw streams may legally return short reads
    chunks = []
    remaining = size
    while remaining:
        chunk = fh.read(remaining)
        if not chunk:
            raise StorageError(
                f"truncated sketch: expected {size} bytes of {what}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _Cursor:
    """Bounds-checked reader over one serialised payload."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, size: int, what: str) -> bytes:
        end = self.pos + size
        if end > len(self.buf):
            raise StorageError(
                f"truncated sketch: expected {size} bytes of {what}"
            )
        raw = self.buf[self.pos : end]
        self.pos = end
        return raw

    def unpack(self, st: struct.Struct, what: str):
        return st.unpack(self.take(st.size, what))

    def string(self, what: str) -> str:
        (n,) = self.unpack(_U16, what)
        return self.take(n, what).decode("utf-8")


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
        if not math.isfinite(t):
            raise ConfigurationError(f"event time must be finite, got {t}")
        idx = int(math.floor(t / self.bucket_s))
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
                self._sketches[slot].absorb(self._spec.loads(payload))
            elif self._indices[slot] < idx:
                self._indices[slot] = idx
                self._sketches[slot] = self._spec.loads(payload)
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
    def _parse_config(cls, c: _Cursor) -> Dict[str, Any]:
        magic = c.take(8, "magic")
        if magic != cls.MAGIC:
            raise StorageError(
                f"bad magic {magic!r}: not a serialised {cls.__name__}"
            )
        (version,) = c.unpack(_U16, "version")
        if version != _WIRE_VERSION:
            raise StorageError(
                f"unsupported {cls.__name__} wire version {version}"
            )
        engine_id = c.take(1, "engine")[0]
        if engine_id not in ENGINE_BY_ID:
            raise StorageError(f"unknown inner engine id {engine_id}")
        (eps,) = c.unpack(_F64, "eps")
        (design_n,) = c.unpack(_U64, "design n")
        policy = c.string("policy")
        (seed,) = c.unpack(_U32, "seed")
        (n_phis,) = c.unpack(_U16, "phi count")
        phis = tuple(c.unpack(_F64, "phi")[0] for _ in range(n_phis))
        (p1,) = c.unpack(_F64, "p1")
        (p2,) = c.unpack(_F64, "p2")
        return {
            "engine": ENGINE_BY_ID[engine_id],
            "eps": eps,
            "n": None if design_n == 0 else design_n,
            "policy": policy,
            "seed": seed,
            "phis": phis or None,
            "p1": p1,
            "p2": p2,
        }

    def _load_ring(self, c: _Cursor) -> None:
        (total,) = c.unpack(_U64, "total")
        (dropped,) = c.unpack(_U64, "dropped")
        (n_buckets,) = c.unpack(_U32, "bucket count")
        if n_buckets != self.n_buckets:
            raise StorageError(
                f"ring of {n_buckets} buckets does not fit a "
                f"{self.n_buckets}-bucket configuration"
            )
        for slot in range(n_buckets):
            (idx,) = c.unpack(_I64, "bucket index")
            (size,) = c.unpack(_U32, "bucket payload size")
            if idx < 0:
                if size:
                    raise StorageError("empty bucket with a payload")
                continue
            payload = c.take(size, "bucket payload")
            self._indices[slot] = idx
            self._sketches[slot] = self._spec.loads(bytes(payload))
            if idx > self._max_index:
                self._max_index = idx
        self._total = total
        self._dropped = dropped
        self._version += 1
        self._cache = None

    @classmethod
    def from_bytes(cls, raw: bytes) -> "_TimeBucketedSketch":
        c = _Cursor(bytes(raw))
        cfg = cls._parse_config(c)
        sk = cls._from_config(cfg)
        sk._load_ring(c)
        if c.pos != len(c.buf):
            raise StorageError(
                f"trailing bytes after serialised {cls.__name__}"
            )
        return sk

    @classmethod
    def read_from(cls, fh: BinaryIO) -> "_TimeBucketedSketch":
        """Read one serialised ring from a stream (self-delimiting)."""
        head = bytearray(_read_exact(fh, 8 + 2 + 1 + 8 + 8, "ring header"))
        (policy_len,) = _U16.unpack(_read_exact(fh, 2, "policy length"))
        head += _U16.pack(policy_len)
        head += _read_exact(fh, policy_len + 4, "policy/seed")
        (n_phis,) = _U16.unpack(_read_exact(fh, 2, "phi count"))
        head += _U16.pack(n_phis)
        head += _read_exact(fh, 8 * n_phis + 8 + 8 + 8 + 8, "config/counters")
        (n_buckets,) = _U32.unpack(_read_exact(fh, 4, "bucket count"))
        head += _U32.pack(n_buckets)
        for _ in range(n_buckets):
            bucket_head = _read_exact(fh, 12, "bucket header")
            head += bucket_head
            (size,) = _U32.unpack(bucket_head[8:12])
            if size:
                head += _read_exact(fh, size, "bucket payload")
        return cls.from_bytes(bytes(head))

    @classmethod
    def _from_config(cls, cfg: Dict[str, Any]) -> "_TimeBucketedSketch":
        raise NotImplementedError  # pragma: no cover - abstract

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
    def _from_config(cls, cfg: Dict[str, Any]) -> "WindowedSketch":
        return cls(
            cfg["eps"],
            window=cfg["p1"],
            slide=cfg["p2"],
            engine=cfg["engine"],
            policy=cfg["policy"],
            n=cfg["n"],
            seed=cfg["seed"],
            phis=cfg["phis"],
        )

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
    def _from_config(cls, cfg: Dict[str, Any]) -> "ExpDecaySketch":
        return cls(
            cfg["eps"],
            half_life=cfg["p1"],
            engine=cfg["engine"],
            policy=cfg["policy"],
            n=cfg["n"],
            seed=cfg["seed"],
            phis=cfg["phis"],
        )

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
        if lo == hi:
            return lo
        target = phi * self._weighted_total()
        # bisect for the smallest value whose weighted rank reaches the
        # target; 64 halvings exhaust float64 resolution
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if self._weighted_rank(mid) >= target:
                hi = mid
            else:
                lo = mid
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
