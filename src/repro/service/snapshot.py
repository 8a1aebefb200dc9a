"""Atomic registry snapshots.

A snapshot captures every metric's *exact* sketch state at one journal
sequence number.  Every metric except an adaptive one embeds its
engine's wire payload verbatim (:func:`repro.core.engines.dumps_any`;
the round-trip guarantee there -- identical answers, identical
certified bounds, and identical behaviour under further ingest -- is
what makes recovery bit-identical).  An adaptive metric stores the
stage container of its ``ADPSKT01`` payload: the same bytes without
the magic and epsilon, which its config block already carries.

File layout (little-endian)::

    header:  magic "MRLSNAP1" | u16 version | u16 pad | u32 n_metrics
             | u64 seq
    per metric:
        name (u16 len + utf8) | config block, full placement (head,
        engine byte and window block; docs/formats.md, "Metric config
        block")
        paper adaptive: stage container (docs/formats.md, "ADPSKT01")
        every other:    u32 len | engine wire payload (MRLSKT01,
                        KLLSKT01, FRGSKT01, WINSKT01 or EXDSKT01)
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
from typing import BinaryIO, Optional

from ..core.errors import StorageError
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
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


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
    if entries:  # an idle server, holding no metric, never loads the codec
        from ..core.engines import dumps_any
    body = _CrcSpill(fh)
    body.write(_HEADER.pack(_MAGIC, SNAPSHOT_VERSION, 0, len(entries), seq))
    for entry in entries:
        body.write(_pack_str(entry.name))
        body.write(pack_config(entry.config, CONFIG_FULL))
        if entry.config.kind == "adaptive":
            entry.sketch.write_stages(body)
        else:
            payload = dumps_any(entry.sketch)
            body.write(_U32.pack(len(payload)))
            body.write(payload)
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
    # one copy of the file: the body, every sub-reader over an entry and
    # the CRC all read views of it
    body = memoryview(raw)[:-4]
    crc_stored = _U32.unpack(raw[-4:])[0]
    if (zlib.crc32(body) & 0xFFFFFFFF) != crc_stored:
        raise StorageError(f"{path}: snapshot CRC mismatch")
    r = _Reader(body)
    magic, version, _pad, n_metrics, seq = _HEADER.unpack(
        r.take(_HEADER.size, "header")
    )
    if magic != _MAGIC:
        raise StorageError(f"{path}: bad magic {magic!r}: not a snapshot")
    if version != SNAPSHOT_VERSION:
        raise StorageError(
            f"{path}: unsupported snapshot version {version} (this build "
            f"reads version {SNAPSHOT_VERSION} only)"
        )
    if n_metrics:
        from ..core.adaptive import AdaptiveQuantileSketch
        from ..core.engines import loads_any
        from ..core.serialize import decode
    for _ in range(n_metrics):
        name = r.string("metric name")
        config = read_config(r, CONFIG_FULL)
        if config.kind == "adaptive":
            sketch = decode(
                AdaptiveQuantileSketch.read_stages, r, config.epsilon
            )
        else:
            sketch = loads_any(r.take(r.u32("payload size"), "payload"))
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
