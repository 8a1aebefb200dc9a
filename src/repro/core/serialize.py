"""Serialisation of quantile summaries.

A summary that took a full pass over a billion-row table to build is worth
keeping: real deployments persist sketches next to the data (statistics
catalogs), ship them between nodes (the §4.9 parallel mode), or merge
yesterday's sketch with today's.  This module provides a compact, versioned
binary format for :class:`~repro.core.framework.QuantileFramework` (and a
thin wrapper for :class:`~repro.core.sketch.QuantileSketch`):

* fixed little-endian header: magic, version, configuration (b, k, policy,
  offset mode and its alternation state), counters (n, C, W);
* one record per full buffer: weight, level, pad counts, k float64 values;
* the staged remainder (not yet buffer-aligned input), if any.

Only numeric summaries serialise -- generic-object summaries would need
pickling, which this library deliberately avoids (loading pickles from
disk is an arbitrary-code-execution hazard; a statistics catalog must be
safe to read).

Round-trip guarantee: ``loads(dumps(fw))`` answers every quantile query
identically to ``fw`` and reports the same certified error bound.
"""

from __future__ import annotations

import io
import json
import struct
from typing import Any, BinaryIO, Callable, Iterable

import numpy as np

from .buffer import Buffer
from .errors import ConfigurationError, StorageError
from .framework import QuantileFramework

__all__ = [
    "dumps",
    "loads",
    "dump",
    "load",
    "load_from",
    "merge_serialized",
    "FORMAT_VERSION",
]

_MAGIC = b"MRLSKT01"
FORMAT_VERSION = 1

# after the magic: version, b, k, policy_id, offset_mode_id, even_toggle,
# n, n_collapses, sum_collapse_weights, n_buffers, remainder_len, min, max
_HEADER = struct.Struct("<HIIBBBxQQQIQdd")
# weight, level, n_low_pad, n_high_pad
_BUFFER_HEADER = struct.Struct("<QiII")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

#: largest single ``read`` a :class:`_StreamReader` issues
_READ_CHUNK = 1 << 20

_POLICY_IDS = {"new": 0, "munro-paterson": 1, "alsabti-ranka-singh": 2}
_POLICY_NAMES = {v: k for k, v in _POLICY_IDS.items()}
_OFFSET_IDS = {"alternate": 0, "low": 1, "high": 2}
_OFFSET_NAMES = {v: k for k, v in _OFFSET_IDS.items()}


def dump(fw: QuantileFramework, fh: BinaryIO) -> None:
    """Write *fw* to the binary file object *fh*."""
    fw._flush_scalars()
    if fw._mode == "generic":
        raise ConfigurationError(
            "only numeric summaries serialise; generic-object buffers "
            "would require unsafe pickling"
        )
    if fw.policy.name not in _POLICY_IDS:
        raise ConfigurationError(
            f"cannot serialise custom policy {fw.policy.name!r}"
        )
    if any(len(buf.values) != fw.k for buf in fw._full):
        raise ConfigurationError(
            "a recombination of summaries with different k does not "
            "serialise: the format stores k values per buffer"
        )
    remainder = fw._remainder
    rem = (
        np.asarray(remainder, dtype="<f8")
        if remainder is not None and len(remainder)
        else np.empty(0, dtype="<f8")
    )
    fh.write(_MAGIC)
    fh.write(
        _HEADER.pack(
            FORMAT_VERSION,
            fw.b,
            fw.k,
            _POLICY_IDS[fw.policy.name],
            _OFFSET_IDS[fw._offsets.mode],
            1 if fw._offsets._next_even_is_high else 0,
            fw._n,
            fw._n_collapses,
            fw._sum_collapse_weights,
            len(fw._full),
            len(rem),
            fw._min if fw._min is not None else float("nan"),
            fw._max if fw._max is not None else float("nan"),
        )
    )
    for buf in fw._full:
        if not buf.is_numeric:
            raise ConfigurationError(
                "only numeric summaries serialise; generic-object buffers "
                "would require unsafe pickling"
            )
        fh.write(
            _BUFFER_HEADER.pack(
                buf.weight, buf.level, buf.n_low_pad, buf.n_high_pad
            )
        )
        fh.write(np.ascontiguousarray(buf.values, dtype="<f8").tobytes())
    fh.write(rem.tobytes())


def dumps(fw: QuantileFramework) -> bytes:
    """Serialise *fw* to bytes."""
    out = io.BytesIO()
    dump(fw, out)
    return out.getvalue()


class _Reader:
    """Cursor over one encoded record with bounds-checked reads: the
    reader of wire frames, journal records, snapshots and every sketch
    payload, raising only :class:`StorageError` on short input.

    Accepts any C-contiguous buffer (``bytes``, ``bytearray``,
    ``memoryview``); slices it returns are views of the same type, so a
    caller holding a zero-copy receive buffer never pays a copy here.
    """

    __slots__ = ("buf", "pos")

    def __init__(self, buf: "bytes | bytearray | memoryview") -> None:
        self.buf = buf
        self.pos = 0

    def take(self, size: int, what: str) -> "bytes | bytearray | memoryview":
        end = self.pos + size
        if end > len(self.buf):
            raise StorageError(
                f"truncated record: expected {size} bytes of {what}"
            )
        raw = self.buf[self.pos : end]
        self.pos = end
        return raw

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return _U16.unpack(self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(8, what))[0]

    def f64(self, what: str) -> float:
        return _F64.unpack(self.take(8, what))[0]

    def string(self, what: str) -> str:
        n = self.u16(what)
        try:
            return bytes(self.take(n, what)).decode("utf-8")
        except UnicodeDecodeError:
            raise StorageError(f"{what} is not valid UTF-8") from None

    def f64_array(self, count: int, what: str) -> np.ndarray:
        return np.frombuffer(self.take(8 * count, what), dtype="<f8").copy()

    def f64_array_view(self, count: int, what: str) -> np.ndarray:
        """Like :meth:`f64_array` but zero-copy: a read-only view into the
        frame buffer.  The returned array keeps the *whole* buffer alive
        -- for the server, an entire socket read -- so its lifetime is a
        memory cost, not just a validity question: hold it only until
        the batch is applied, and copy anything kept longer."""
        size = 8 * count
        end = self.pos + size
        if end > len(self.buf):
            raise StorageError(
                f"truncated record: expected {size} bytes of {what}"
            )
        arr = np.frombuffer(
            self.buf, dtype="<f8", count=count, offset=self.pos
        )
        self.pos = end
        return arr

    def json_value(self, expected: type, what: str) -> Any:
        """A u32-length-prefixed UTF-8 JSON document whose top level is
        an *expected* (``dict`` or ``list``)."""
        raw = bytes(self.take(self.u32(f"{what} size"), f"{what} json"))
        try:
            value = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError):
            raise StorageError(f"{what} is not valid UTF-8 JSON") from None
        if not isinstance(value, expected):
            raise StorageError(
                f"{what} must be a JSON {expected.__name__}, "
                f"got {type(value).__name__}"
            )
        return value

    def done(self, what: str) -> None:
        if self.pos != len(self.buf):
            raise StorageError(
                f"malformed {what}: {len(self.buf) - self.pos} trailing bytes"
            )


class _StreamReader(_Reader):
    """A :class:`_Reader` that pulls each field off a file object as it
    is read (sockets and pipes included), for self-delimiting formats.

    Short reads are retried, and each ``read`` asks for at most
    :data:`_READ_CHUNK` bytes, so a hostile length costs memory on the
    order of the bytes that are really there.
    """

    __slots__ = ("fh",)

    def __init__(self, fh: BinaryIO) -> None:
        super().__init__(b"")
        self.fh = fh

    def take(self, size: int, what: str) -> bytes:
        chunks = []
        remaining = size
        while remaining:
            piece = self.fh.read(min(remaining, _READ_CHUNK))
            if not piece:
                raise StorageError(
                    f"truncated sketch: expected {size} bytes of {what}"
                )
            chunks.append(piece)
            remaining -= len(piece)
        self.pos += size
        return b"".join(chunks)


def load(fh: BinaryIO) -> QuantileFramework:
    """Read a summary previously written by :func:`dump`.

    Expects *fh* to contain exactly one serialised summary and raises
    :class:`StorageError` on trailing bytes.  For streams that carry
    further data after the summary (sockets, framed protocols), use
    :func:`load_from`, which stops at the format's own end marker.
    """
    fw = load_from(fh)
    trailing = fh.read(1)
    if trailing:
        raise StorageError("corrupt sketch: trailing bytes after payload")
    return fw


def load_from(fh: BinaryIO) -> QuantileFramework:
    """Read one summary from *fh*, leaving the stream position just past it.

    Works on non-seekable file objects (sockets, pipes, ``sys.stdin.buffer``)
    because the format is self-delimiting: the header carries every length,
    short reads are retried, and no trailing probe is issued -- the §4.9
    exchange mode (summaries shipped between nodes over a connection)
    deserialises straight off the wire.
    """
    from .engines import read_sketch

    return read_sketch(_StreamReader(fh), _MAGIC)


def loads(raw: bytes) -> QuantileFramework:
    """Deserialise a summary from bytes."""
    from .engines import load_sketch

    return load_sketch(raw, _MAGIC)


def decode(read: Callable[..., Any], r: _Reader, *args: Any) -> Any:
    """Run the format decoder *read* over *r*: the one place where a
    constructor's :class:`ConfigurationError` -- the configuration a
    payload names is invalid -- becomes :class:`StorageError`, so no
    decoder restates a constructor's checks."""
    try:
        return read(r, *args)
    except ConfigurationError as exc:
        raise StorageError(f"corrupt sketch: {exc}") from None


def read_framework(r: _Reader) -> QuantileFramework:
    """Decode an ``MRLSKT01`` payload from *r*, just past its magic."""
    (
        version,
        b,
        k,
        policy_id,
        offset_id,
        even_toggle,
        n,
        n_collapses,
        sum_weights,
        n_buffers,
        remainder_len,
        min_value,
        max_value,
    ) = _HEADER.unpack(r.take(_HEADER.size, "header"))
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported sketch format version {version}")
    if (
        policy_id not in _POLICY_NAMES
        or offset_id not in _OFFSET_NAMES
        or even_toggle > 1
    ):
        raise StorageError(
            "corrupt sketch header (unknown policy/offset/toggle)"
        )
    fw = QuantileFramework(
        b, k, policy=_POLICY_NAMES[policy_id],
        offset_mode=_OFFSET_NAMES[offset_id],
    )
    fw._offsets._next_even_is_high = bool(even_toggle)
    fw._n = n
    fw._n_collapses = n_collapses
    fw._sum_collapse_weights = sum_weights
    fw._mode = "numeric"
    fw._min = None if np.isnan(min_value) else min_value
    fw._max = None if np.isnan(max_value) else max_value
    for _ in range(n_buffers):
        weight, level, n_low, n_high = _BUFFER_HEADER.unpack(
            r.take(_BUFFER_HEADER.size, "buffer header")
        )
        fw._full.append(
            Buffer(
                values=r.f64_array(k, "buffer payload"),
                weight=weight,
                level=level,
                n_low_pad=n_low,
                n_high_pad=n_high,
            )
        )
    fw._remainder = r.f64_array(remainder_len, "remainder")
    fw._check_state()
    return fw


def merge_serialized(payloads: "Iterable[bytes]"):
    """Merge serialised summaries into one sketch (shard fan-in).

    This is the receiving half of the §4.9 exchange: every shard ships its
    summary in its engine's wire format (exactly what the process backend
    of :class:`~repro.core.parallel.ParallelQuantileEngine` and the
    service's ``FETCH`` command emit), and the coordinator loads them and
    combines them with :func:`repro.core.engines.merge_summaries`.  Paper
    summaries recombine: their root buffers (each staged tail as a padded
    buffer) concatenate under one OUTPUT, and the merged
    ``error_bound()`` is Lemma 5 over that forest -- §4.9's concat bound,
    with no COLLAPSE beyond the shards' own.  KLL summaries fold with
    ``absorb`` and their Hoeffding accounting adds.  Either way the
    merged bound is certified.

    Engine handling: the payloads' magic tags must all name the *same*
    engine -- mixing raises a typed
    :class:`~repro.core.errors.EngineMismatchError` rather than
    attempting a garbled fold.  A non-mergeable format (frugal, adaptive
    paper) accepts exactly one payload (a plain load); two or more raise
    :class:`ConfigurationError`.  Same-engine merges are deterministic:
    payloads combine in iteration order, so every coordinator produces
    byte-identical results.
    """
    from .engines import loads_any, merge_summaries, spec_of
    from .errors import EngineMismatchError

    summaries = []
    first = None
    for raw in payloads:
        spec = spec_of(raw)
        if first is None:
            first = spec
        elif spec.name != first.name:
            raise EngineMismatchError(
                f"cannot merge summaries from different engines: "
                f"{first.name!r} vs {spec.name!r}"
            )
        elif not (first.mergeable and spec.mergeable):
            raise ConfigurationError(
                f"{first.name!r} summaries in {first.magic.decode()} are "
                "not mergeable; fetch and query them individually"
            )
        summaries.append(loads_any(raw))
    if first is None:
        raise ConfigurationError("merge_serialized needs at least one payload")
    return merge_summaries(summaries)
