"""The service wire protocol: length-prefixed binary frames.

Every message -- request or response -- travels as one *frame*::

    u32 length | payload (length bytes)

with a request payload of ``u8 opcode | body`` and a response payload of
``u8 status | body`` (status 0 = OK, 1 = error with a UTF-8 message).
All integers are little-endian; value arrays are raw ``float64``.  The
format is self-delimiting and carries no code (no pickle): both ends
validate opcode, lengths and value finiteness and fail with
:class:`~repro.core.errors.StorageError` /
:class:`~repro.core.errors.ConfigurationError` on malformed input.

The codec here is transport-agnostic and synchronous -- pure
``bytes -> message`` functions plus :func:`frame` -- so the server, the
blocking client, tests and shell tools all share one implementation.
Each end reads frames off its own socket: the server's reactor, and
the client's buffered reader.  Sketch payloads (the ``FETCH`` response)
are the engine wire formats of :mod:`repro.core.engines` verbatim,
which is what makes shard fan-in
(:func:`repro.core.serialize.merge_serialized`) work across processes.
Every decoder reads through the bounds-checked
:class:`repro.core.serialize._Reader`.

Zero-copy fast path: :func:`decode_request` accepts any buffer
(``bytes``, ``bytearray``, ``memoryview``) and decodes ``INGEST`` value
arrays as read-only ``np.frombuffer`` views *into that buffer* -- no
per-batch copy.  A view pins its whole receive buffer (a socket read of
up to 256 KiB, or one frame that spans reads) for as long as anything
references it, so the ownership rule is: a view may live in the shard
queue until its batch is applied, and engines copy whatever ingest data
they keep beyond that call (``tests/core/test_no_aliasing.py``).  On the
sending side :func:`encode_ingest_framed` assembles the entire
length-prefixed frame in one preallocated buffer, so a batch is copied
exactly once between the caller's array and the socket.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.errors import ConfigurationError, StorageError
from ..core.protocols import ENGINE_BY_ID, ENGINE_IDS
from ..core.serialize import _Reader

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MUTATING_OPCODES",
    "MetricConfig",
    "Opcode",
    "Request",
    "encode_request",
    "encode_request_framed",
    "encode_ingest_framed",
    "decode_request",
    "encode_ok",
    "encode_error",
    "decode_response",
]

#: version 2 added the u64 idempotency token to CREATE/INGEST/SNAPSHOT
PROTOCOL_VERSION = 2

#: Upper bound on a single frame's payload; an ingest batch of 4 Mi
#: float64 values fits with room for headers.  Guards both ends against
#: a corrupt length prefix allocating unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

_STATUS_OK = 0
_STATUS_ERROR = 1


class Opcode:
    """Request opcodes (u8)."""

    CREATE = 1
    INGEST = 2
    QUERY = 3
    CDF = 4
    LIST = 5
    FETCH = 6
    SNAPSHOT = 7
    DRAIN = 8
    STATS = 9
    PING = 10
    SYNCPULL = 11
    RESTORE = 12
    WATCH = 13
    UNWATCH = 14
    ALERTS = 15

    _NAMES = {
        1: "CREATE", 2: "INGEST", 3: "QUERY", 4: "CDF", 5: "LIST",
        6: "FETCH", 7: "SNAPSHOT", 8: "DRAIN", 9: "STATS", 10: "PING",
        11: "SYNCPULL", 12: "RESTORE", 13: "WATCH", 14: "UNWATCH",
        15: "ALERTS",
    }


#: opcodes that mutate server state: they carry an idempotency token so a
#: retry after a lost ack is applied exactly once (see the registry's
#: dedup window)
MUTATING_OPCODES = frozenset(
    {
        Opcode.CREATE,
        Opcode.INGEST,
        Opcode.SNAPSHOT,
        Opcode.RESTORE,
        Opcode.WATCH,
        Opcode.UNWATCH,
    }
)


#: metric kinds on the wire (u8)
_KIND_IDS = {"fixed": 0, "adaptive": 1}
_KIND_NAMES = {v: k for k, v in _KIND_IDS.items()}

#: window modes of a config block's window block (u8)
WMODE_NONE = 0
WMODE_WINDOW = 1  # p1 = window seconds, p2 = slide seconds
WMODE_DECAY = 2  # p1 = half-life seconds, p2 = 0

#: where a config block sits, which decides the parts it carries (see
#: "Metric config block" in docs/formats.md)
CONFIG_TRAILING = 0  # CREATE, journal CREATE: engine and window optional
CONFIG_HEAD = 1  # RESTORE, journal RESTORE: head and engine byte
CONFIG_FULL = 2  # snapshot, SYNCPULL: head, engine byte, window block

_WINDOW_BLOCK = struct.Struct("<Bdd")

#: WATCH comparison operators (u8)
_RULE_OPS = {">": 0, "<": 1}
_RULE_OP_NAMES = {v: k for k, v in _RULE_OPS.items()}


def _lookup(table: Dict[int, str], wire_id: int, what: str) -> str:
    """The name a decoded wire id stands for; unknown ids are corrupt."""
    name = table.get(wire_id)
    if name is None:
        raise StorageError(f"unknown {what} id {wire_id}")
    return name


@dataclass(frozen=True, init=False)
class MetricConfig:
    """What a metric is: the paper's sizing input (epsilon, N, policy),
    the engine, and the window or decay.

    The constructor is the one place these are validated, and it stores
    them canonically: a window without a slide tumbles (slide ==
    window), so two spellings of one metric compare ``==``.  It refuses
    a ring bucket below :data:`repro.windows.MIN_BUCKET_S`, as the ring
    does; the other sketch-level rules (the slide divides the window,
    frugal windows tumble) stay with :class:`~repro.windows.WindowedSketch`.
    """

    __slots__ = (
        "kind", "epsilon", "n", "policy", "engine",
        "window_s", "slide_s", "decay_s",
    )
    kind: str
    epsilon: float
    #: design stream length; ``None`` = unknown (0 on the wire)
    n: Optional[int]
    policy: str
    engine: str
    window_s: float
    slide_s: float
    decay_s: float

    def __init__(
        self,
        kind: str = "fixed",
        epsilon: float = 0.01,
        n: Optional[int] = None,
        policy: str = "new",
        engine: str = "paper",
        window_s: float = 0.0,
        slide_s: float = 0.0,
        decay_s: float = 0.0,
    ) -> None:
        if kind not in _KIND_IDS:
            raise ConfigurationError(
                f"metric kind must be one of {tuple(_KIND_IDS)}, "
                f"got {kind!r}"
            )
        if engine not in ENGINE_IDS:
            raise ConfigurationError(
                f"metric engine must be one of {tuple(ENGINE_IDS)}, "
                f"got {engine!r}"
            )
        # every engine records epsilon, even frugal (which has no use for
        # it); NaN would also break the == of an idempotent re-CREATE
        epsilon = float(epsilon)
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be in (0, 1), got {epsilon}"
            )
        if n is not None:
            try:
                n = operator.index(n)
            except TypeError:
                raise ConfigurationError(
                    f"n must be an integer or None, got {n!r}"
                ) from None
            if not 0 < n < 1 << 64:
                raise ConfigurationError(f"n must be in [1, 2**64), got {n}")
            # an adaptive metric's n is its first stage's capacity
            if kind == "adaptive" and n < 4:
                raise ConfigurationError(
                    f"an adaptive metric's n must be >= 4, got {n}"
                )
        if engine != "paper" and (kind != "fixed" or n is not None):
            raise ConfigurationError(
                f"engine {engine!r} metrics are sized by their own knobs: "
                "use kind='fixed' and omit n"
            )
        window_s, slide_s, decay_s = (
            float(window_s), float(slide_s), float(decay_s)
        )
        for what, seconds in (
            ("window", window_s), ("slide", slide_s), ("decay", decay_s)
        ):
            if not (seconds == 0.0 or 0.0 < seconds < math.inf):
                raise ConfigurationError(
                    f"{what} must be a positive finite number of seconds "
                    f"(or 0 for none), got {seconds}"
                )
        if window_s and decay_s:
            raise ConfigurationError(
                "a metric is windowed or decayed, not both"
            )
        if slide_s and not window_s:
            raise ConfigurationError("slide requires window")
        if (window_s or decay_s) and kind != "fixed":
            raise ConfigurationError(
                "windowed/decayed metrics must be kind='fixed'"
            )
        if window_s or decay_s:
            from ..windows import (
                DECAY_GENERATIONS_PER_HALF_LIFE,
                check_bucket_width,
            )

            check_bucket_width(
                (slide_s or window_s)
                if window_s
                else decay_s / DECAY_GENERATIONS_PER_HALF_LIFE
            )
        values = (
            kind, epsilon, n, policy, engine,
            window_s, slide_s or window_s, decay_s,
        )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def windowed(self) -> bool:
        """Whether ingest must carry event time (window or decay)."""
        return bool(self.window_s or self.decay_s)


def pack_config(config: MetricConfig, placement: int) -> bytes:
    """The config block of *config* for one of the ``CONFIG_*``
    placements -- the only config writer."""
    head = (
        bytes([_KIND_IDS[config.kind]])
        + _F64.pack(config.epsilon)
        + _U64.pack(config.n or 0)
        + _pack_str(config.policy)
    )
    engine = bytes([ENGINE_IDS[config.engine]])
    if placement == CONFIG_HEAD:
        return head + engine
    if placement == CONFIG_TRAILING and not config.windowed:
        # a plain paper CREATE is byte-identical to the pre-engine format
        return head if config.engine == "paper" else head + engine
    if config.window_s:
        block = (WMODE_WINDOW, config.window_s, config.slide_s)
    elif config.decay_s:
        block = (WMODE_DECAY, config.decay_s, 0.0)
    else:
        block = (WMODE_NONE, 0.0, 0.0)
    return head + engine + _WINDOW_BLOCK.pack(*block)


def read_config(r: "_Reader", placement: int) -> MetricConfig:
    """Read one config block at *r* -- the only config reader.

    Total on hostile bytes: truncation, unknown ids, a window block
    that is not the canonical encoding of a window, decay or plain
    metric, and values :class:`MetricConfig` refuses all raise
    :class:`StorageError`.
    """
    kind = _lookup(_KIND_NAMES, r.u8("metric kind"), "metric kind")
    epsilon = r.f64("epsilon")
    n = r.u64("n")
    policy = r.string("policy")
    engine = "paper"
    block = (WMODE_NONE, 0.0, 0.0)
    trailing = placement == CONFIG_TRAILING
    if not trailing or r.pos != len(r.buf):  # old clients: no engine byte
        engine = _lookup(
            ENGINE_BY_ID, r.u8("sketch engine"), "sketch engine"
        )
    if placement == CONFIG_FULL or (trailing and r.pos != len(r.buf)):
        block = _WINDOW_BLOCK.unpack(
            r.take(_WINDOW_BLOCK.size, "window block")
        )
    wmode, p1, p2 = block
    if wmode == WMODE_WINDOW and p1 > 0 and p2 > 0:
        timing = {"window_s": p1, "slide_s": p2}
    elif wmode == WMODE_DECAY and p1 > 0 and p2 == 0:
        timing = {"decay_s": p1}
    elif wmode == WMODE_NONE and p1 == 0 and p2 == 0:
        timing = {}
    else:
        raise StorageError(
            f"malformed window block: mode {wmode}, p1 {p1}, p2 {p2}"
        )
    try:
        return MetricConfig(kind, epsilon, n or None, policy, engine, **timing)
    except ConfigurationError as exc:
        raise StorageError(f"invalid metric config: {exc}") from None


@dataclass
class Request:
    """A decoded request: opcode plus its (opcode-specific) fields."""

    opcode: int
    name: str = ""
    #: CREATE/RESTORE: the metric's configuration (RESTORE carries only
    #: its head and engine; the payload describes any window)
    config: Optional[MetricConfig] = None
    values: Optional[np.ndarray] = None
    phis: List[float] = field(default_factory=list)
    value: float = 0.0
    #: client-generated idempotency token on mutating ops (0 = none)
    token: int = 0
    #: STATS verbosity (0 = summary; 1 adds the rendered Prometheus
    #: exposition).  Encoded as an optional trailing byte so old clients
    #: and old servers interoperate unchanged.
    detail: int = 0
    #: SYNCPULL: journal sequence the caller has already applied; the
    #: donor answers with the tail of records after it (0 = first round,
    #: full payload only)
    after_seq: int = 0
    #: RESTORE: the full serialised engine payload to install
    payload: bytes = b""
    #: WATCH: metric the rule watches (``name`` carries the rule id)
    metric: str = ""
    #: WATCH: quantile fraction the rule evaluates
    phi: float = 0.0
    #: WATCH: threshold the quantile is compared against
    threshold: float = 0.0
    #: WATCH: comparison operator, ``">"`` or ``"<"``
    rule_op: str = ">"


# -- primitive writers --------------------------------------------------------


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ConfigurationError(f"string too long for the wire ({len(raw)} bytes)")
    return _U16.pack(len(raw)) + raw


# -- requests -----------------------------------------------------------------


def encode_request(req: Request) -> bytes:
    """Serialise *req* into one frame payload (no length prefix)."""
    op = req.opcode
    out = [bytes([op])]
    if op == Opcode.CREATE:
        out.append(_pack_str(req.name))
        out.append(_U64.pack(req.token))
        out.append(pack_config(req.config, CONFIG_TRAILING))
    elif op == Opcode.INGEST:
        values = np.ascontiguousarray(req.values, dtype="<f8")
        out.append(_pack_str(req.name))
        out.append(_U64.pack(req.token))
        out.append(_U32.pack(values.size))
        out.append(values.tobytes())
    elif op == Opcode.QUERY:
        out.append(_pack_str(req.name))
        out.append(_U16.pack(len(req.phis)))
        out.append(np.asarray(req.phis, dtype="<f8").tobytes())
    elif op == Opcode.CDF:
        out.append(_pack_str(req.name))
        out.append(_F64.pack(req.value))
    elif op == Opcode.FETCH:
        out.append(_pack_str(req.name))
    elif op == Opcode.SYNCPULL:
        out.append(_pack_str(req.name))
        out.append(_U64.pack(req.after_seq))
    elif op == Opcode.RESTORE:
        out.append(_pack_str(req.name))
        out.append(_U64.pack(req.token))
        out.append(pack_config(req.config, CONFIG_HEAD))
        out.append(_U32.pack(len(req.payload)))
        out.append(req.payload)
    elif op == Opcode.SNAPSHOT:
        out.append(_U64.pack(req.token))
    elif op == Opcode.STATS:
        # the detail byte is optional on the wire: a zero-detail request
        # is byte-identical to the pre-detail format
        if req.detail:
            out.append(bytes([req.detail & 0xFF]))
    elif op == Opcode.WATCH:
        if req.rule_op not in _RULE_OPS:
            raise ConfigurationError(
                f"unknown rule operator {req.rule_op!r}; use '>' or '<'"
            )
        out.append(_pack_str(req.name))  # rule id
        out.append(_U64.pack(req.token))
        out.append(_pack_str(req.metric))
        out.append(_F64.pack(req.phi))
        out.append(bytes([_RULE_OPS[req.rule_op]]))
        out.append(_F64.pack(req.threshold))
    elif op == Opcode.UNWATCH:
        out.append(_pack_str(req.name))  # rule id
        out.append(_U64.pack(req.token))
    elif op == Opcode.ALERTS:
        # optional trailing byte: 1 = evaluate all rules now (with the
        # server's clock) before reporting, 0/absent = report as-is
        if req.detail:
            out.append(bytes([req.detail & 0xFF]))
    elif op in (Opcode.LIST, Opcode.DRAIN, Opcode.PING):
        pass
    else:
        raise ConfigurationError(f"unknown opcode {op}")
    return b"".join(out)


def encode_ingest_framed(
    name: str,
    values: "np.ndarray | Sequence[float]",
    token: int = 0,
) -> bytearray:
    """Encode one INGEST request as a complete length-prefixed frame.

    The frame -- ``u32 length | u8 opcode | name | u64 token |
    u32 count | values`` -- is assembled in a single preallocated
    buffer, so the batch is copied exactly once (caller array -> wire
    buffer).  The plain :func:`encode_request` + :func:`frame` pair
    copies the same data three times (``tobytes``, payload join, length
    prefix join); on the hot pipelined-ingest path that difference is
    measurable.  Byte-for-byte identical to the two-step encoding.
    """
    arr = np.ascontiguousarray(values, dtype="<f8")
    if arr.ndim != 1:
        raise ConfigurationError(
            f"expected a 1-d batch, got shape {arr.shape}"
        )
    name_raw = name.encode("utf-8")
    if len(name_raw) > 0xFFFF:
        raise ConfigurationError(
            f"string too long for the wire ({len(name_raw)} bytes)"
        )
    payload_len = 1 + 2 + len(name_raw) + 8 + 4 + arr.nbytes
    if payload_len > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"frame of {payload_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    buf = bytearray(4 + payload_len)
    _U32.pack_into(buf, 0, payload_len)
    buf[4] = Opcode.INGEST
    _U16.pack_into(buf, 5, len(name_raw))
    pos = 7 + len(name_raw)
    buf[7:pos] = name_raw
    _U64.pack_into(buf, pos, token)
    _U32.pack_into(buf, pos + 8, arr.size)
    buf[pos + 12 :] = arr.data.cast("B")
    return buf


def encode_request_framed(req: Request) -> "bytes | bytearray":
    """Serialise *req* as one complete frame (length prefix included).

    INGEST takes the single-copy fast path above; every other opcode is
    small and goes through the plain codec.
    """
    if req.opcode == Opcode.INGEST:
        assert req.values is not None
        return encode_ingest_framed(req.name, req.values, req.token)
    return frame(encode_request(req))


def decode_request(payload: "bytes | bytearray | memoryview") -> Request:
    """Parse one request frame payload.

    *payload* may be any buffer type.  ``INGEST`` values come back as a
    read-only zero-copy view into *payload* (the server feeds them
    straight into the batched presorted ingest kernel); every other
    field is materialised as usual.
    """
    r = _Reader(payload)
    op = r.u8("opcode")
    req = Request(opcode=op)
    if op == Opcode.CREATE:
        req.name = r.string("metric name")
        req.token = r.u64("idempotency token")
        req.config = read_config(r, CONFIG_TRAILING)
    elif op == Opcode.INGEST:
        req.name = r.string("metric name")
        req.token = r.u64("idempotency token")
        count = r.u32("value count")
        req.values = r.f64_array_view(count, "values")
    elif op == Opcode.QUERY:
        req.name = r.string("metric name")
        count = r.u16("phi count")
        req.phis = list(r.f64_array(count, "phis"))
    elif op == Opcode.CDF:
        req.name = r.string("metric name")
        req.value = r.f64("value")
    elif op == Opcode.FETCH:
        req.name = r.string("metric name")
    elif op == Opcode.SYNCPULL:
        req.name = r.string("metric name")
        req.after_seq = r.u64("after seq")
    elif op == Opcode.RESTORE:
        req.name = r.string("metric name")
        req.token = r.u64("idempotency token")
        req.config = read_config(r, CONFIG_HEAD)
        size = r.u32("payload size")
        req.payload = bytes(r.take(size, "restore payload"))
    elif op == Opcode.SNAPSHOT:
        req.token = r.u64("idempotency token")
    elif op == Opcode.STATS:
        if r.pos != len(r.buf):  # old clients send no detail byte
            req.detail = r.u8("stats detail")
    elif op == Opcode.WATCH:
        req.name = r.string("rule id")
        req.token = r.u64("idempotency token")
        req.metric = r.string("metric name")
        req.phi = r.f64("phi")
        req.rule_op = _lookup(
            _RULE_OP_NAMES, r.u8("rule operator"), "rule operator"
        )
        req.threshold = r.f64("threshold")
    elif op == Opcode.UNWATCH:
        req.name = r.string("rule id")
        req.token = r.u64("idempotency token")
    elif op == Opcode.ALERTS:
        if r.pos != len(r.buf):
            req.detail = r.u8("evaluate flag")
    elif op in (Opcode.LIST, Opcode.DRAIN, Opcode.PING):
        pass
    else:
        raise StorageError(f"unknown opcode {op}")
    r.done(f"{Opcode._NAMES.get(op, op)} request")
    return req


# -- responses ----------------------------------------------------------------


def encode_error(message: str) -> bytes:
    raw = message.encode("utf-8")[:0xFFFF]
    return bytes([_STATUS_ERROR]) + _U16.pack(len(raw)) + raw


def encode_ok(opcode: int, body: Dict[str, Any]) -> bytes:
    """Serialise a success response for *opcode* from *body* fields."""
    out = [bytes([_STATUS_OK])]
    if opcode == Opcode.CREATE:
        out.append(bytes([1 if body["created"] else 0]))
    elif opcode == Opcode.INGEST:
        out.append(_U64.pack(body["seq"]))
        out.append(_U32.pack(body["count"]))
    elif opcode == Opcode.QUERY:
        out.append(_U64.pack(body["n"]))
        out.append(_F64.pack(body["error_bound"]))
        values = np.asarray(body["values"], dtype="<f8")
        out.append(_U16.pack(values.size))
        out.append(values.tobytes())
    elif opcode == Opcode.CDF:
        out.append(_U64.pack(body["n"]))
        out.append(_F64.pack(body["error_bound"]))
        out.append(_U64.pack(body["rank"]))
        out.append(_F64.pack(body["fraction"]))
    elif opcode == Opcode.LIST:
        metrics: Sequence[Dict[str, Any]] = body["metrics"]
        out.append(_U32.pack(len(metrics)))
        for m in metrics:
            out.append(_pack_str(m["name"]))
            out.append(bytes([_KIND_IDS[m["kind"]]]))
            out.append(_U64.pack(m["n"]))
            out.append(_U64.pack(m["memory_elements"]))
            out.append(_U32.pack(m["shard"]))
            out.append(bytes([ENGINE_IDS[m.get("engine", "paper")]]))
            out.append(_F64.pack(m.get("window_s", 0.0)))
            out.append(_F64.pack(m.get("slide_s", 0.0)))
            out.append(_F64.pack(m.get("decay_s", 0.0)))
    elif opcode == Opcode.FETCH:
        payload: bytes = body["payload"]
        out.append(_U32.pack(len(payload)))
        out.append(payload)
    elif opcode == Opcode.SYNCPULL:
        # one atomic view of the donor: config + full payload + the
        # journal tail after the caller's seq, all mutually consistent
        out.append(bytes([1 if body["rebase"] else 0]))
        out.append(pack_config(body["config"], CONFIG_FULL))
        out.append(_U64.pack(body["seq"]))
        sync_payload: bytes = body["payload"]
        out.append(_U32.pack(len(sync_payload)))
        out.append(sync_payload)
        records = body["records"]
        out.append(_U32.pack(len(records)))
        for seq, token, values in records:
            arr = np.ascontiguousarray(values, dtype="<f8")
            out.append(_U64.pack(seq))
            out.append(_U64.pack(token))
            out.append(_U32.pack(arr.size))
            out.append(arr.tobytes())
    elif opcode == Opcode.RESTORE:
        out.append(bytes([1 if body["replaced"] else 0]))
        out.append(_U64.pack(body["seq"]))
    elif opcode == Opcode.SNAPSHOT:
        out.append(_U64.pack(body["seq"]))
        out.append(_pack_str(body["path"]))
    elif opcode == Opcode.DRAIN:
        out.append(_U64.pack(body["seq"]))
    elif opcode == Opcode.STATS:
        raw = json.dumps(body["stats"], sort_keys=True).encode("utf-8")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif opcode == Opcode.PING:
        # route metadata: which node answered, under which cluster epoch
        out.append(_pack_str(body["node_id"]))
        out.append(_U64.pack(body["epoch"]))
        out.append(_F64.pack(body["uptime_s"]))
        out.append(_U32.pack(body["n_metrics"]))
        out.append(_U64.pack(body["elements"]))
    elif opcode == Opcode.WATCH:
        out.append(bytes([1 if body["added"] else 0]))
    elif opcode == Opcode.UNWATCH:
        out.append(bytes([1 if body["removed"] else 0]))
    elif opcode == Opcode.ALERTS:
        raw = json.dumps(body["alerts"], sort_keys=True).encode("utf-8")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    else:
        raise ConfigurationError(f"unknown opcode {opcode}")
    return b"".join(out)


def decode_response(opcode: int, payload: bytes) -> Dict[str, Any]:
    """Parse a response payload for a request of *opcode*.

    Raises :class:`~repro.core.errors.ReproError` subclasses: a server
    error frame re-raises as :class:`ConfigurationError` with the server's
    message; a malformed frame raises :class:`StorageError`.
    """
    r = _Reader(payload)
    status = r.u8("status")
    if status == _STATUS_ERROR:
        raise ConfigurationError(f"server error: {r.string('error message')}")
    if status != _STATUS_OK:
        raise StorageError(f"unknown response status {status}")
    body: Dict[str, Any] = {}
    if opcode == Opcode.CREATE:
        body["created"] = bool(r.u8("created flag"))
    elif opcode == Opcode.INGEST:
        body["seq"] = r.u64("seq")
        body["count"] = r.u32("count")
    elif opcode == Opcode.QUERY:
        body["n"] = r.u64("n")
        body["error_bound"] = r.f64("error bound")
        count = r.u16("value count")
        body["values"] = list(r.f64_array(count, "values"))
    elif opcode == Opcode.CDF:
        body["n"] = r.u64("n")
        body["error_bound"] = r.f64("error bound")
        body["rank"] = r.u64("rank")
        body["fraction"] = r.f64("fraction")
    elif opcode == Opcode.LIST:
        count = r.u32("metric count")
        metrics = []
        for _ in range(count):
            name = r.string("metric name")
            kind = _lookup(_KIND_NAMES, r.u8("metric kind"), "metric kind")
            n = r.u64("n")
            memory = r.u64("memory")
            shard = r.u32("shard")
            engine = _lookup(
                ENGINE_BY_ID, r.u8("metric engine"), "sketch engine"
            )
            window_s = r.f64("window seconds")
            slide_s = r.f64("slide seconds")
            decay_s = r.f64("decay seconds")
            metrics.append(
                {
                    "name": name,
                    "kind": kind,
                    "n": n,
                    "memory_elements": memory,
                    "shard": shard,
                    "engine": engine,
                    "window_s": window_s,
                    "slide_s": slide_s,
                    "decay_s": decay_s,
                }
            )
        body["metrics"] = metrics
    elif opcode == Opcode.FETCH:
        size = r.u32("payload size")
        body["payload"] = r.take(size, "sketch payload")
    elif opcode == Opcode.SYNCPULL:
        body["rebase"] = bool(r.u8("rebase flag"))
        body["config"] = read_config(r, CONFIG_FULL)
        body["seq"] = r.u64("seq")
        size = r.u32("payload size")
        body["payload"] = bytes(r.take(size, "sketch payload"))
        n_records = r.u32("record count")
        records = []
        for _ in range(n_records):
            rec_seq = r.u64("record seq")
            rec_token = r.u64("record token")
            count = r.u32("record value count")
            records.append(
                (rec_seq, rec_token, r.f64_array(count, "record values"))
            )
        body["records"] = records
    elif opcode == Opcode.RESTORE:
        body["replaced"] = bool(r.u8("replaced flag"))
        body["seq"] = r.u64("seq")
    elif opcode == Opcode.SNAPSHOT:
        body["seq"] = r.u64("seq")
        body["path"] = r.string("path")
    elif opcode == Opcode.DRAIN:
        body["seq"] = r.u64("seq")
    elif opcode == Opcode.STATS:
        body["stats"] = r.json_value(dict, "stats")
    elif opcode == Opcode.PING:
        body["node_id"] = r.string("node id")
        body["epoch"] = r.u64("cluster epoch")
        body["uptime_s"] = r.f64("uptime")
        body["n_metrics"] = r.u32("metric count")
        body["elements"] = r.u64("ingested elements")
    elif opcode == Opcode.WATCH:
        body["added"] = bool(r.u8("added flag"))
    elif opcode == Opcode.UNWATCH:
        body["removed"] = bool(r.u8("removed flag"))
    elif opcode == Opcode.ALERTS:
        body["alerts"] = r.json_value(list, "alerts")
    else:
        raise ConfigurationError(f"unknown opcode {opcode}")
    r.done(f"{Opcode._NAMES.get(opcode, opcode)} response")
    return body


# -- framing ------------------------------------------------------------------


def frame(payload: bytes) -> bytes:
    """Prefix *payload* with its u32 length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ConfigurationError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _U32.pack(len(payload)) + payload
