"""Append-only ingest journal with torn-tail detection.

Write-ahead discipline: the server appends a record for every accepted
mutation (metric CREATE, ingest batch) *before* applying it to the
in-memory sketches, and flushes the file so the bytes survive a process
kill (``SIGKILL`` keeps OS page-cache writes; only power loss needs the
optional ``fsync`` mode).  Recovery replays the journal on top of the
latest snapshot; because the registry's batched bank ingest is
bit-identical to feeding each sketch its subsequence one record at a
time (the PR-2 SketchBank property), replay reproduces the pre-crash
summaries exactly.

File layout (little-endian)::

    header:  magic "MRLJRN01" | u16 version | 6 pad bytes | u64 start_seq
    record:  u32 crc32 | u32 body_len | body
    body:    u64 seq | u8 type | u64 token | type-specific payload

    type 1 = CREATE:    name (u16 len + utf8) | config block, trailing
                        placement (engine byte and window block optional)
    type 2 = INGEST:    name (u16 len + utf8) | u32 count | count * f64
    type 3 = RESTORE:   name (u16 len + utf8) | config block, head
                        placement | u32 payload_len | payload
    type 4 = INGEST_AT: name (u16 len + utf8) | f64 event_time
                        | u32 count | count * f64
    type 5 = WATCH:     rule_id (u16 len + utf8) | metric (u16 len +
                        utf8) | f64 phi | u8 op | f64 threshold
    type 6 = UNWATCH:   rule_id (u16 len + utf8)

The config block is :func:`repro.service.protocol.pack_config`'s, the
same bytes the CREATE and RESTORE frames carry (docs/formats.md, "Metric
config block").

An INGEST_AT record carries the batch's *event time*: windowed/decayed
metrics bucket by timestamp, so the journal pins the time each batch was
stamped with at ingest -- replay reproduces the ring bit-identically no
matter when recovery runs.  WATCH/UNWATCH make the rule set itself
replayable state, exactly like metric CREATEs.

A RESTORE record carries the complete serialised engine payload a
re-sync installed (see the cluster recovery protocol): on replay it
*replaces* the metric's sketch wholesale, so stale pre-crash INGEST
records earlier in the journal are subsumed, and tail INGESTs after it
re-apply on top -- the replayed state is bit-identical to the synced
one.

``token`` is the client-supplied idempotency token the mutation arrived
with (0 when the client sent none).  Recovery replays it into the
registry's dedup window, so a client retrying a batch whose ack was
lost to a crash is still deduplicated after restart -- version 2 of the
format added this field.

``crc32`` covers the body.  A crash can only tear the *last* record
(appends are sequential), so the reader stops at the first record whose
header is short, whose body is short, or whose CRC mismatches -- and
reports the byte offset of the valid prefix, which the server truncates
to on recovery.  Corruption *before* the tail (bit rot, manual edits) is
distinguishable because valid records follow the broken one; the reader
treats any mid-file damage the same way but surfaces it via
``JournalScan.damaged`` so operators can tell torn tails from rot.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.errors import StorageError
from .protocol import (
    CONFIG_HEAD,
    CONFIG_TRAILING,
    MetricConfig,
    _RULE_OP_NAMES,
    _RULE_OPS,
    _lookup,
    _pack_str,
    _Reader,
    pack_config,
    read_config,
)

__all__ = [
    "IngestJournal",
    "JournalRecord",
    "JournalScan",
    "read_journal",
    "CREATE_RECORD",
    "INGEST_RECORD",
    "RESTORE_RECORD",
    "INGEST_AT_RECORD",
    "WATCH_RECORD",
    "UNWATCH_RECORD",
]

_MAGIC = b"MRLJRN01"
_VERSION = 2
_FILE_HEADER = struct.Struct("<8sH6xQ")
_RECORD_HEADER = struct.Struct("<II")
_SEQ_TYPE = struct.Struct("<QBQ")  # seq | record type | idempotency token
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

CREATE_RECORD = 1
INGEST_RECORD = 2
RESTORE_RECORD = 3
INGEST_AT_RECORD = 4
WATCH_RECORD = 5
UNWATCH_RECORD = 6

#: guard against a corrupt length field allocating unbounded memory
_MAX_RECORD_BYTES = 256 * 1024 * 1024


@dataclass
class JournalRecord:
    """One replayable mutation."""

    seq: int
    type: int
    name: str
    #: CREATE/RESTORE configuration (RESTORE: head and engine only; the
    #: payload describes any window)
    config: Optional[MetricConfig] = None
    # INGEST field
    values: Optional[np.ndarray] = None
    # RESTORE field: the full serialised engine payload installed
    payload: bytes = b""
    #: idempotency token the mutation carried (0 = none)
    token: int = 0
    #: INGEST_AT event time (seconds)
    t: float = 0.0
    # WATCH rule fields (``name`` carries the rule id)
    metric: str = ""
    phi: float = 0.0
    rule_op: str = ">"
    threshold: float = 0.0


@dataclass
class JournalScan:
    """Result of reading a journal file."""

    start_seq: int  #: sequence number the journal begins after
    records: List[JournalRecord]
    valid_bytes: int  #: offset of the last fully-valid record's end
    damaged: bool  #: True when bytes beyond ``valid_bytes`` existed


def _ingest_body_parts(
    prefix: bytes, name: str, values: np.ndarray
) -> "List[bytes | memoryview]":
    """INGEST record body as buffer parts -- no batch copy.

    The values array is contributed as a raw memoryview; CRC and file
    write both consume it in place, so journaling a batch costs zero
    copies beyond the kernel write itself (the zero-copy receive path
    hands the server read-only views, and they flow straight through).
    """
    arr = np.ascontiguousarray(values, dtype="<f8")
    return [
        prefix + _pack_str(name) + _U32.pack(arr.size),
        arr.data.cast("B"),
    ]


def _decode_body(body: bytes) -> JournalRecord:
    r = _Reader(body)
    seq = r.u64("seq")
    rtype = r.u8("record type")
    token = r.u64("idempotency token")
    if rtype == CREATE_RECORD:
        name = r.string("metric name")
        rec = JournalRecord(
            seq=seq,
            type=rtype,
            name=name,
            token=token,
            config=read_config(r, CONFIG_TRAILING),
        )
    elif rtype == INGEST_RECORD:
        name = r.string("metric name")
        count = r.u32("value count")
        values = r.f64_array(count, "values")
        rec = JournalRecord(
            seq=seq, type=rtype, name=name, values=values, token=token
        )
    elif rtype == INGEST_AT_RECORD:
        name = r.string("metric name")
        t = r.f64("event time")
        count = r.u32("value count")
        values = r.f64_array(count, "values")
        rec = JournalRecord(
            seq=seq, type=rtype, name=name, values=values, token=token, t=t
        )
    elif rtype == WATCH_RECORD:
        name = r.string("rule id")
        metric = r.string("metric name")
        phi = r.f64("phi")
        rule_op = _lookup(
            _RULE_OP_NAMES, r.u8("rule operator"), "rule operator"
        )
        threshold = r.f64("threshold")
        rec = JournalRecord(
            seq=seq,
            type=rtype,
            name=name,
            token=token,
            metric=metric,
            phi=phi,
            rule_op=rule_op,
            threshold=threshold,
        )
    elif rtype == UNWATCH_RECORD:
        name = r.string("rule id")
        rec = JournalRecord(seq=seq, type=rtype, name=name, token=token)
    elif rtype == RESTORE_RECORD:
        name = r.string("metric name")
        config = read_config(r, CONFIG_HEAD)
        size = r.u32("payload size")
        payload = bytes(r.take(size, "restore payload"))
        rec = JournalRecord(
            seq=seq,
            type=rtype,
            name=name,
            config=config,
            payload=payload,
            token=token,
        )
    else:
        raise StorageError(f"unknown journal record type {rtype}")
    r.done("journal record")
    return rec


class IngestJournal:
    """Writer handle for one journal file.

    Parameters
    ----------
    path:
        Journal file location.  An existing file is scanned, its torn
        tail (if any) truncated away, and appends continue after the
        highest surviving sequence number.
    start_seq:
        When creating a fresh file: the snapshot sequence number this
        journal follows (records in this file carry ``seq > start_seq``).
    fsync:
        ``False`` (default) flushes after every append -- durable against
        process kills.  ``True`` additionally ``os.fsync``\\ s -- durable
        against power loss, at a large per-batch cost.
    """

    def __init__(
        self, path: str, *, start_seq: int = 0, fsync: bool = False
    ) -> None:
        self.path = path
        self.fsync = fsync
        if os.path.exists(path):
            scan = read_journal(path)
            if scan.damaged:
                # drop the torn tail so appends extend a valid prefix
                with open(path, "r+b") as fh:
                    fh.truncate(scan.valid_bytes)
            self.start_seq = scan.start_seq
            self._seq = max(
                [scan.start_seq] + [rec.seq for rec in scan.records]
            )
            self._fh = open(path, "ab")
        else:
            self.start_seq = start_seq
            self._seq = start_seq
            self._fh = open(path, "wb")
            self._fh.write(_FILE_HEADER.pack(_MAGIC, _VERSION, start_seq))
            self._sync()

    # -- writing -----------------------------------------------------------

    @property
    def seq(self) -> int:
        """Highest sequence number written (== applied on a live server)."""
        return self._seq

    def _append(self, body: bytes) -> None:
        self._append_parts([body])

    def _append_parts(self, parts: "List[bytes | memoryview]") -> None:
        """Append one record given as buffer parts.

        The CRC is accumulated incrementally across the parts and each
        part is written directly, so large ingest payloads are never
        joined into an intermediate bytes object.
        """
        crc = 0
        body_len = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
            body_len += len(part)
        self._fh.write(_RECORD_HEADER.pack(crc & 0xFFFFFFFF, body_len))
        for part in parts:
            self._fh.write(part)
        self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def append_create(
        self, name: str, config: MetricConfig, token: int = 0
    ) -> int:
        """Record a metric creation; returns its sequence number."""
        self._seq += 1
        self._append(
            _SEQ_TYPE.pack(self._seq, CREATE_RECORD, token)
            + _pack_str(name)
            + pack_config(config, CONFIG_TRAILING)
        )
        return self._seq

    def append_ingest(
        self, name: str, values: np.ndarray, token: int = 0
    ) -> int:
        """Record an ingest batch; returns its sequence number."""
        self._seq += 1
        prefix = _SEQ_TYPE.pack(self._seq, INGEST_RECORD, token)
        self._append_parts(_ingest_body_parts(prefix, name, values))
        return self._seq

    def append_ingest_at(
        self, name: str, values: np.ndarray, t: float, token: int = 0
    ) -> int:
        """Record a timestamped (windowed) ingest batch.

        The event time rides in the record, so replay feeds the ring the
        exact (values, t) pair the live server did.
        """
        self._seq += 1
        prefix = _SEQ_TYPE.pack(self._seq, INGEST_AT_RECORD, token)
        arr = np.ascontiguousarray(values, dtype="<f8")
        self._append_parts(
            [
                prefix
                + _pack_str(name)
                + _F64.pack(float(t))
                + _U32.pack(arr.size),
                arr.data.cast("B"),
            ]
        )
        return self._seq

    def append_watch(
        self,
        rule_id: str,
        metric: str,
        phi: float,
        op: str,
        threshold: float,
        token: int = 0,
    ) -> int:
        """Record a WATCH rule registration."""
        self._seq += 1
        body = (
            _SEQ_TYPE.pack(self._seq, WATCH_RECORD, token)
            + _pack_str(rule_id)
            + _pack_str(metric)
            + _F64.pack(phi)
            + bytes([_RULE_OPS[op]])
            + _F64.pack(threshold)
        )
        self._append(body)
        return self._seq

    def append_unwatch(self, rule_id: str, token: int = 0) -> int:
        """Record a WATCH rule removal."""
        self._seq += 1
        body = _SEQ_TYPE.pack(
            self._seq, UNWATCH_RECORD, token
        ) + _pack_str(rule_id)
        self._append(body)
        return self._seq

    def append_restore(
        self,
        name: str,
        config: MetricConfig,
        payload: bytes,
        token: int = 0,
    ) -> int:
        """Record a full-state install (re-sync); returns its sequence."""
        self._seq += 1
        self._append_parts(
            [
                _SEQ_TYPE.pack(self._seq, RESTORE_RECORD, token)
                + _pack_str(name)
                + pack_config(config, CONFIG_HEAD)
                + _U32.pack(len(payload)),
                payload,
            ]
        )
        return self._seq

    # -- lifecycle ---------------------------------------------------------

    def rotate(self, start_seq: int) -> None:
        """Atomically replace the journal with an empty one after a snapshot.

        The new file records ``start_seq`` (the snapshot's applied
        sequence); a crash between the snapshot rename and this rotation
        is safe because replay skips records with ``seq <= start_seq``.
        """
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(_FILE_HEADER.pack(_MAGIC, _VERSION, start_seq))
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self.start_seq = start_seq
        self._seq = max(self._seq, start_seq)
        self._fh = open(self.path, "ab")

    def close(self) -> None:
        if not self._fh.closed:
            self._sync()
            self._fh.close()

    def __enter__(self) -> "IngestJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_journal(path: str) -> JournalScan:
    """Scan *path*, returning every fully-valid record in order.

    Never raises on torn/corrupt tails -- that is the expected post-crash
    state; the scan stops at the first invalid byte and reports how much
    of the file was sound.  A missing or garbled *file header* does
    raise: that is not a crash artefact but a wrong file.
    """
    with open(path, "rb") as fh:
        header = fh.read(_FILE_HEADER.size)
        if len(header) < _FILE_HEADER.size:
            raise StorageError(f"{path}: too short to be a journal")
        magic, version, start_seq = _FILE_HEADER.unpack(header)
        if magic != _MAGIC:
            raise StorageError(f"{path}: bad magic {magic!r}: not a journal")
        if version != _VERSION:
            raise StorageError(f"{path}: unsupported journal version {version}")
        records: List[JournalRecord] = []
        valid = _FILE_HEADER.size
        damaged = False
        expected_seq = start_seq
        while True:
            raw = fh.read(_RECORD_HEADER.size)
            if not raw:
                break  # clean end
            if len(raw) < _RECORD_HEADER.size:
                damaged = True
                break
            crc, body_len = _RECORD_HEADER.unpack(raw)
            if body_len > _MAX_RECORD_BYTES:
                damaged = True
                break
            body = fh.read(body_len)
            if len(body) < body_len or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
                damaged = True
                break
            try:
                rec = _decode_body(body)
            except StorageError:
                damaged = True
                break
            if rec.seq != expected_seq + 1:
                # sequence gap: treat everything from here as unusable
                damaged = True
                break
            expected_seq = rec.seq
            records.append(rec)
            valid = fh.tell()
    return JournalScan(
        start_seq=start_seq,
        records=records,
        valid_bytes=valid,
        damaged=damaged,
    )
