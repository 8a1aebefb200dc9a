"""Atomic registry snapshots.

A snapshot captures every metric's *exact* sketch state at one journal
sequence number.  Fixed-N metrics embed their framework in the existing
:mod:`repro.core.serialize` wire format verbatim (the round-trip
guarantee there -- identical answers, identical certified bounds, and
identical behaviour under further ingest -- is what makes recovery
bit-identical).  Adaptive metrics add a thin stage container: each
closed stage's surviving buffers and Lemma 5 statistics, the live stage
again in the core wire format, plus the roll-schedule counters.

File layout (little-endian)::

    header:  magic "MRLSNAP1" | u16 version | u16 pad | u32 n_metrics
             | u64 seq
    per metric:
        name (u16 len + utf8) | config block, full placement (head,
        engine byte and window block; docs/formats.md, "Metric config
        block")
        windowed (wmode != 0):
                  u32 len | ring wire payload (WINSKT01/EXDSKT01)
        paper fixed:  u32 len | core-serialize payload
        paper adaptive:
                  u64 initial_capacity | u64 capacity | u64 active_n
                  | u32 n_closed
                  per closed stage:
                      u64 n | u64 n_collapses | u64 sum_collapse_weights
                      | u32 n_buffers
                      per buffer: u64 weight | i32 level | u32 n_low_pad
                                  | u32 n_high_pad | u32 n_values
                                  | n_values * f64
                  u32 len | core-serialize payload (live stage)
        kll/frugal:   u32 len | engine wire payload (KLLSKT01/FRGSKT01)
    rules:
        u32 n_rules
        per rule: rule_id (u16 len + utf8) | metric (u16 len + utf8)
                  | f64 phi | u8 op | f64 threshold
                  | u64 definite_total | u64 possible_total
    trailer: u32 crc32 over everything before it

Version 2 added the per-metric engine byte; version 3 the window/decay
config block and the WATCH rules section (rule configs plus how often
each fired, so alert counters survive a crash).  Only version 3 reads:
version-1 and version-2 files are refused, naming their version.

Writes are atomic (temp file + ``os.replace`` + directory fsync): a
crash mid-write leaves the previous snapshot untouched, and the CRC
trailer rejects a partially-flushed file.  The writer streams: fields
gather in a small staging buffer that spills to the temp file with a
running CRC32, so writing a snapshot costs memory on the order of one
metric's payload, not the whole image.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import BinaryIO, List, Optional

import numpy as np

from ..core import serialize
from ..core.adaptive import AdaptiveQuantileSketch, _ClosedStage
from ..core.buffer import Buffer
from ..core.errors import StorageError
from ..core.framework import QuantileFramework
from ..core.frugal import FrugalSketch
from ..core.kll import KLLSketch
from .protocol import (
    CONFIG_FULL,
    _RULE_OP_NAMES,
    _RULE_OPS,
    _lookup,
    _pack_str,
    _Reader,
    pack_config,
    read_config,
)
from .registry import SketchRegistry

__all__ = ["write_snapshot", "read_snapshot", "SNAPSHOT_VERSION"]

_MAGIC = b"MRLSNAP1"
SNAPSHOT_VERSION = 3

_HEADER = struct.Struct("<8sHHIQ")
_STAGE_HEADER = struct.Struct("<QQQI")
_BUFFER_HEADER = struct.Struct("<QiIII")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _dump_framework(fw: QuantileFramework) -> bytes:
    payload = serialize.dumps(fw)
    return _U32.pack(len(payload)) + payload


def _dump_adaptive(sk: AdaptiveQuantileSketch) -> bytes:
    out = io.BytesIO()
    out.write(_U64.pack(sk.initial_capacity))
    out.write(_U64.pack(sk._capacity))
    out.write(_U64.pack(sk._active_n))
    out.write(_U32.pack(len(sk._closed)))
    for stage in sk._closed:
        out.write(
            _STAGE_HEADER.pack(
                stage.n,
                stage.n_collapses,
                stage.sum_collapse_weights,
                len(stage.buffers),
            )
        )
        for buf in stage.buffers:
            values = np.ascontiguousarray(buf.values, dtype="<f8")
            out.write(
                _BUFFER_HEADER.pack(
                    buf.weight,
                    buf.level,
                    buf.n_low_pad,
                    buf.n_high_pad,
                    values.size,
                )
            )
            out.write(values.tobytes())
    out.write(_dump_framework(sk._active))
    return out.getvalue()


#: the staging buffer spills to the file once it holds this much; big
#: enough that ``write``/``crc32`` run per few hundred metrics, not per
#: field, small enough that a snapshot never holds its whole image
_SPILL_BYTES = 256 * 1024


class _CrcSpill(io.BytesIO):
    """Staging buffer that streams into *fh* with a running CRC32.

    Fields are written into the buffer (C-speed ``BytesIO.write``);
    :meth:`spill` moves its contents to the file once they reach
    :data:`_SPILL_BYTES`, so peak memory is one spill plus the largest
    single metric payload -- not the image, twice over.
    """

    def __init__(self, fh: BinaryIO) -> None:
        super().__init__()
        self._fh = fh
        self.crc = 0
        self.nbytes = 0

    def spill(self) -> None:
        """Move the staged bytes to the file once there are enough."""
        if self.tell() >= _SPILL_BYTES:
            self._drain()

    def _drain(self) -> None:
        with self.getbuffer() as view:
            self._fh.write(view)
            self.crc = zlib.crc32(view, self.crc)
            self.nbytes += len(view)
        self.seek(0)
        self.truncate()

    def finish(self) -> int:
        """Spill the rest, append the CRC trailer; returns file size."""
        self._drain()
        self._fh.write(_U32.pack(self.crc & 0xFFFFFFFF))
        return self.nbytes + _U32.size


def _write_image(
    fh: BinaryIO,
    registry: SketchRegistry,
    seq: int,
    rules: Optional[object],
) -> int:
    """Stream the snapshot image into *fh*; returns the bytes written."""
    entries = registry.entries()
    body = _CrcSpill(fh)
    body.write(_HEADER.pack(_MAGIC, SNAPSHOT_VERSION, 0, len(entries), seq))
    for entry in entries:
        body.write(_pack_str(entry.name))
        body.write(pack_config(entry.config, CONFIG_FULL))
        if entry.windowed or entry.config.engine in ("kll", "frugal"):
            payload = entry.sketch.to_bytes()
            body.write(_U32.pack(len(payload)))
            body.write(payload)
        elif isinstance(entry.sketch, QuantileFramework):
            body.write(_dump_framework(entry.sketch))
        else:
            body.write(_dump_adaptive(entry.sketch))
        body.spill()
    rule_list = rules.rules() if rules is not None else []
    body.write(_U32.pack(len(rule_list)))
    for rule in rule_list:
        state = rules.state_of(rule.rule_id)
        body.write(_pack_str(rule.rule_id))
        body.write(_pack_str(rule.metric))
        body.write(_F64.pack(rule.phi))
        body.write(bytes([_RULE_OPS[rule.op]]))
        body.write(_F64.pack(rule.threshold))
        body.write(_U64.pack(state.definite_total))
        body.write(_U64.pack(state.possible_total))
    return body.finish()


def write_snapshot(
    path: str,
    registry: SketchRegistry,
    seq: int,
    rules: Optional[object] = None,
) -> int:
    """Atomically persist *registry* at journal sequence *seq* to *path*.

    The caller must have applied all pending shard queues first (the
    server's snapshot command drains before capturing), otherwise queued
    batches would be silently dropped from the image.  *rules* is the
    server's :class:`~repro.service.rules.RuleSet` (or ``None`` for an
    empty rules section).  Returns the snapshot's size in bytes.

    The image streams into ``<path>.tmp`` in pieces; if anything fails
    on the way, the temp file is closed and removed and *path* is left
    as it was.
    """
    if registry.pending_batches():
        raise StorageError(
            "snapshot requested with unapplied ingest batches; "
            "drain the shards first"
        )
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            nbytes = _write_image(fh, registry, seq, rules)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return nbytes


def _unpack(r: _Reader, st: struct.Struct, what: str) -> tuple:
    return st.unpack(r.take(st.size, what))


def _load_payload(r: _Reader, what: str) -> bytes:
    return r.take(r.u32(f"{what} size"), what)


def _load_adaptive(
    r: _Reader, epsilon: float, policy: str
) -> AdaptiveQuantileSketch:
    initial_capacity = r.u64("initial capacity")
    capacity = r.u64("capacity")
    active_n = r.u64("active n")
    n_closed = r.u32("closed stage count")
    closed: List[_ClosedStage] = []
    for _ in range(n_closed):
        n, n_collapses, sum_weights, n_buffers = _unpack(
            r, _STAGE_HEADER, "stage header"
        )
        buffers = []
        for _ in range(n_buffers):
            weight, level, n_low, n_high, n_values = _unpack(
                r, _BUFFER_HEADER, "stage buffer header"
            )
            values = np.frombuffer(
                r.take(8 * n_values, "stage buffer values"), dtype="<f8"
            ).copy()
            if n_low + n_high > n_values:
                raise StorageError(
                    "corrupt snapshot: pad counts exceed buffer size"
                )
            buffers.append(
                Buffer(
                    values=values,
                    weight=weight,
                    level=level,
                    n_low_pad=n_low,
                    n_high_pad=n_high,
                )
            )
        closed.append(
            _ClosedStage.from_state(buffers, n, n_collapses, sum_weights)
        )
    active = serialize.loads(_load_payload(r, "active stage payload"))
    return AdaptiveQuantileSketch._restore(
        epsilon=epsilon,
        initial_capacity=initial_capacity,
        policy=policy,
        closed=closed,
        capacity=capacity,
        active=active,
        active_n=active_n,
    )


def read_snapshot(
    path: str,
    registry: SketchRegistry,
    rules: Optional[object] = None,
) -> int:
    """Restore every metric in the snapshot at *path* into *registry*.

    Returns the journal sequence number the snapshot was taken at.  The
    registry must be freshly constructed (no metrics); restored sketches
    are re-adopted into its shard banks exactly as live creation would.
    Passing a fresh :class:`~repro.service.rules.RuleSet` as *rules*
    restores the WATCH rules and their alert counters.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size + 4:
        raise StorageError(f"{path}: too short to be a snapshot")
    crc_stored = _U32.unpack(raw[-4:])[0]
    if (zlib.crc32(raw[:-4]) & 0xFFFFFFFF) != crc_stored:
        raise StorageError(f"{path}: snapshot CRC mismatch")
    r = _Reader(raw[:-4])
    magic, version, _pad, n_metrics, seq = _unpack(r, _HEADER, "header")
    if magic != _MAGIC:
        raise StorageError(f"{path}: bad magic {magic!r}: not a snapshot")
    if version != SNAPSHOT_VERSION:
        raise StorageError(
            f"{path}: unsupported snapshot version {version} (this build "
            f"reads version {SNAPSHOT_VERSION} only)"
        )
    for _ in range(n_metrics):
        name = r.string("metric name")
        config = read_config(r, CONFIG_FULL)
        sketch: object
        if config.windowed:
            from ..core.engines import loads_any

            sketch = loads_any(_load_payload(r, "ring payload"))
        elif config.engine == "kll":
            sketch = KLLSketch.from_bytes(_load_payload(r, "kll payload"))
        elif config.engine == "frugal":
            sketch = FrugalSketch.from_bytes(
                _load_payload(r, "frugal payload")
            )
        elif config.kind == "fixed":
            sketch = serialize.loads(_load_payload(r, "framework payload"))
        else:
            sketch = _load_adaptive(r, config.epsilon, config.policy)
        registry.register_restored(name, config, sketch)
    for _ in range(r.u32("rule count")):
        rule_id = r.string("rule id")
        metric = r.string("rule metric")
        phi = r.f64("rule phi")
        op = _lookup(_RULE_OP_NAMES, r.u8("rule operator"), "rule operator")
        threshold = r.f64("rule threshold")
        definite_total = r.u64("definite total")
        possible_total = r.u64("possible total")
        if rules is not None:
            rules.add(rule_id, metric, phi, op, threshold)
            rules.restore_counters(rule_id, definite_total, possible_total)
    if r.pos != len(r.buf):
        raise StorageError(f"{path}: trailing bytes after snapshot payload")
    return seq
