"""Blocking, fault-tolerant client for the quantile-sketch service.

A wrapper over one TCP connection speaking
:mod:`repro.service.protocol`, hardened against an unreliable
transport:

* **Per-request deadlines** -- ``timeout`` bounds every call end to end
  (connect, send, receive *and* any backoff spent between retries);
  expiry raises :class:`~repro.service.errors.ServiceTimeoutError`.
* **Reconnect with bounded exponential backoff + jitter** -- a reset,
  stall or mid-frame close tears the socket down and retries up to
  ``max_retries`` times; exhaustion raises
  :class:`~repro.service.errors.ServiceConnectionError`.
* **Idempotency tokens** -- every mutating request (CREATE / INGEST /
  SNAPSHOT) carries a client-generated 64-bit token.  The server's
  journal-backed dedup window replays the recorded ack for a token it
  has already applied, so a retried INGEST after a lost ack is counted
  exactly once.  Retries reuse the *same* token as the original send --
  that is the entire point.

Two ingest modes survive from the original client:

* :meth:`QuantileClient.ingest` -- send one batch, wait for its ack
  (returns the journal sequence number that makes it durable);
* :meth:`QuantileClient.ingest_nowait` -- *pipelined*: send without
  reading the ack.  Responses arrive strictly in request order; the
  client keeps every unacknowledged request (bytes + token) and, after
  a reconnect, resends the whole unacked window in order -- the dedup
  window makes the resend safe.  :meth:`flush` drains the acks.

The client is deliberately synchronous (usable from shell tools, the
example monitor and load-generator threads), like the server's
single-threaded reactor.
"""

from __future__ import annotations

import os
import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engines import loads_any
from ..core.errors import ConfigurationError, StorageError
from ..windows import window_config
from . import protocol
from .errors import ServiceConnectionError, ServiceTimeoutError
from .protocol import MUTATING_OPCODES, MetricConfig, Opcode, Request

__all__ = ["QuantileClient"]

class _Pending:
    """One request awaiting its ack: the complete framed bytes.

    Frames are stored with their length prefix already attached (the
    single-copy :func:`~repro.service.protocol.encode_request_framed`
    path), so a send -- first attempt or post-reconnect resend -- is one
    ``sendall`` with no further copies.
    """

    __slots__ = ("opcode", "framed")

    def __init__(self, opcode: int, framed: "bytes | bytearray") -> None:
        self.opcode = opcode
        self.framed = framed


class QuantileClient:
    """One connection to a :class:`~repro.service.server.QuantileService`.

    Parameters
    ----------
    host, port:
        Server address.  The constructor makes one eager connection
        attempt (fail fast on a dead address); later reconnects go
        through the retry/backoff loop.
    path:
        Connect to an ``AF_UNIX`` stream socket at this filesystem path
        instead of TCP (``host``/``port`` are then ignored).  Pair with
        a server started with ``path=``; identical wire format and
        retry semantics, minus the loopback TCP stack.
    timeout:
        Per-request deadline in seconds, covering send, receive and any
        retry backoff.  (Before the resilience layer this only governed
        the initial connect.)
    connect_timeout:
        Bound on a single TCP connect; defaults to ``timeout``.
    max_retries:
        Reconnect-and-resend attempts per request after a transport
        failure.  ``0`` disables retrying.
    backoff_base, backoff_max:
        Exponential backoff between retries: attempt *i* sleeps
        ``min(backoff_base * 2**(i-1), backoff_max)`` scaled by a
        uniform jitter in ``[0.5, 1.0)``.
    retry_seed:
        Seeds the backoff-jitter RNG; pass an int for reproducible
        retry timing in tests.  The idempotency-token namespace is
        *not* derived from it -- tokens are always OS-random, so
        clients sharing a seed never collide.
    idempotency:
        When True (default), mutating requests carry tokens and are
        safely retried.  When False, a mutating request interrupted
        after it may have reached the server is *not* retried --
        :class:`ServiceConnectionError` is raised instead, because a
        blind resend could double-count.
    max_outstanding:
        Soft cap on pipelined, unacknowledged requests; past it,
        :meth:`ingest_nowait` drains acks before sending more.
    send_coalesce_bytes:
        When > 0, :meth:`ingest_nowait` defers the socket write until
        at least this many bytes of framed requests are queued, then
        ships them with one scatter-gather ``sendmsg`` -- the client
        half of the server's read-coalescing fast path: one syscall
        (and one GIL handoff) per burst instead of per frame.  ``0``
        (default) writes each request immediately, preserving
        per-request latency.  Deferral never weakens delivery: deferred
        frames sit in the same unacked window, and any synchronous
        call, :meth:`flush` or reconnect resend ships them first.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7337,
        *,
        path: Optional[str] = None,
        timeout: float = 30.0,
        connect_timeout: Optional[float] = None,
        max_retries: int = 4,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        retry_seed: Optional[int] = None,
        idempotency: bool = True,
        max_outstanding: int = 4096,
        send_coalesce_bytes: int = 0,
    ) -> None:
        if not 0 <= port <= 65535:
            raise ConfigurationError(f"port must be in 0-65535, got {port}")
        self.host = host
        self.port = port
        self.path = path
        self.timeout = timeout
        self.connect_timeout = (
            timeout if connect_timeout is None else connect_timeout
        )
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.idempotency = idempotency
        self.max_outstanding = max_outstanding
        self.send_coalesce_bytes = send_coalesce_bytes
        self._rng = random.Random(retry_seed)
        # token = client_id (high 32 bits, nonzero) | counter (low 32):
        # unique across clients with overwhelming probability, unique
        # within a client by construction, never 0.  The id is ALWAYS
        # OS-random, never derived from retry_seed: two clients sharing
        # a seed (a reproducible test, a forked worker pool) must not
        # share a token namespace, or one client's dedup entries would
        # answer the other's requests
        self._token_high = (
            int.from_bytes(os.urandom(4), "little") or 1
        ) << 32
        self._token_counter = 0
        #: requests sent (or queued) whose acks have not been received
        self._unacked: List[_Pending] = []
        #: how many of ``_unacked`` were written to the *current* socket
        self._sent = 0
        #: framed bytes queued behind ``_sent`` (send-coalescing gauge)
        self._unsent_bytes = 0
        self.retries_total = 0  #: reconnect-and-resend attempts performed
        self._sock: Optional[socket.socket] = None
        #: buffered receive: one recv can pull many pipelined ack frames
        self._rbuf = b""
        self._connect(time.monotonic() + self.connect_timeout)

    # -- connection plumbing ----------------------------------------------

    def _next_token(self) -> int:
        self._token_counter = (self._token_counter + 1) & 0xFFFFFFFF
        return self._token_high | self._token_counter

    @property
    def _addr(self) -> str:
        if self.path is not None:
            return self.path
        return f"{self.host}:{self.port}"

    def _connect(self, deadline: float) -> None:
        if self._sock is not None:
            return
        budget = deadline - time.monotonic()
        if budget <= 0:
            raise ServiceTimeoutError(
                f"deadline expired before connecting to {self._addr}"
            )
        try:
            if self.path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(min(budget, self.connect_timeout))
                sock.connect(self.path)
            else:
                sock = socket.create_connection(
                    (self.host, self.port),
                    timeout=min(budget, self.connect_timeout),
                )
        except TimeoutError as exc:
            raise ServiceTimeoutError(
                f"connect to {self._addr} timed out"
            ) from exc
        except OSError as exc:
            raise ServiceConnectionError(
                f"cannot connect to {self._addr}: {exc}"
            ) from exc
        if self.path is None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            # a deep send buffer lets pipelined ingest keep streaming
            # while the server's reactor is busy applying a batch
            # (capped by net.core.wmem_max)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4 * 1024 * 1024
            )
        except OSError:  # pragma: no cover - platform-dependent cap
            pass
        self._sock = sock
        self._sent = 0  # nothing is on this fresh connection yet
        self._rbuf = b""
        self._unsent_bytes = sum(len(e.framed) for e in self._unacked)

    def _teardown(self) -> None:
        """Drop the socket; unacked requests stay queued for resend."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
            self._sock = None
        self._sent = 0
        self._rbuf = b""
        self._unsent_bytes = sum(len(e.framed) for e in self._unacked)

    def _remaining(self, deadline: float, what: str) -> float:
        budget = deadline - time.monotonic()
        if budget <= 0:
            self._teardown()
            raise ServiceTimeoutError(f"request deadline expired ({what})")
        return budget

    #: scatter-gather batch caps: stay under IOV_MAX and keep one
    #: sendmsg burst within a few socket-buffer fills
    _SENDMSG_MAX_FRAMES = 512
    _SENDMSG_MAX_BYTES = 4 * 1024 * 1024

    def _send_pending(self, deadline: float) -> None:
        """Write every not-yet-sent unacked request to the socket.

        Consecutive frames ship as one scatter-gather ``sendmsg``
        (vectored write -- no join copy, one syscall per burst).  A
        short write finishes the split frame with ``sendall`` on a
        zero-copy memoryview tail and continues; transport failures
        tear down and leave the whole window queued for resend.
        """
        assert self._sock is not None
        self._unsent_bytes = 0  # everything below is being shipped now
        while self._sent < len(self._unacked):
            bufs = []
            total = 0
            idx = self._sent
            while (
                idx < len(self._unacked)
                and len(bufs) < self._SENDMSG_MAX_FRAMES
                and total < self._SENDMSG_MAX_BYTES
            ):
                framed = self._unacked[idx].framed
                bufs.append(framed)
                total += len(framed)
                idx += 1
            self._sock.settimeout(self._remaining(deadline, "send"))
            try:
                sent = self._sock.sendmsg(bufs)
                if sent == total:
                    self._sent = idx
                else:
                    # short write: skip frames that went out whole, push
                    # the split frame's remainder as a zero-copy tail,
                    # then the rest in full
                    for framed in bufs:
                        if sent >= len(framed):
                            sent -= len(framed)
                        else:
                            self._sock.settimeout(
                                self._remaining(deadline, "send")
                            )
                            self._sock.sendall(memoryview(framed)[sent:])
                            sent = 0
                        self._sent += 1
            except TimeoutError as exc:
                self._teardown()
                raise ServiceTimeoutError(
                    "request deadline expired mid-send"
                ) from exc
            except OSError as exc:
                self._teardown()
                raise ServiceConnectionError(
                    f"connection lost while sending: {exc}"
                ) from exc

    def _recv_one(self, deadline: float) -> Dict[str, Any]:
        """Receive and decode the ack for the oldest unacked request.

        Transport failures (timeout, reset, mid-frame close) raise the
        typed service errors and leave the request queued for resend.
        A *complete* response frame -- even a server error frame --
        acknowledges the request: it is popped before decoding, and
        protocol-level errors propagate to the caller un-retried.
        """
        assert self._sock is not None and self._unacked
        self._sock.settimeout(self._remaining(deadline, "receive"))
        try:
            raw = self._recv_frame_buffered()
        except TimeoutError as exc:
            self._teardown()
            raise ServiceTimeoutError(
                "request deadline expired waiting for the response"
            ) from exc
        except StorageError as exc:
            # the frame reader raises StorageError only for a connection
            # that closed mid-frame or sent an impossible length: a
            # transport failure, not a codec one
            self._teardown()
            raise ServiceConnectionError(str(exc)) from exc
        except OSError as exc:
            self._teardown()
            raise ServiceConnectionError(
                f"connection lost while receiving: {exc}"
            ) from exc
        entry = self._unacked.pop(0)
        self._sent -= 1
        return protocol.decode_response(entry.opcode, raw)

    def _recv_frame_buffered(self) -> bytes:
        """One response frame, via a receive buffer.

        The server coalesces pipelined acks into large writes; reading
        64 KiB at a time lets a single ``recv`` syscall deliver dozens
        of them, instead of two syscalls per frame.  Raises
        ``TimeoutError`` or ``OSError`` from the socket, and
        :class:`~repro.core.errors.StorageError` on a connection closed
        mid-frame or a length prefix above
        :data:`~repro.service.protocol.MAX_FRAME_BYTES`.
        """
        assert self._sock is not None
        buf = self._rbuf
        while True:
            if len(buf) >= 4:
                length = int.from_bytes(buf[:4], "little")
                if length > protocol.MAX_FRAME_BYTES:
                    self._rbuf = b""
                    raise StorageError(
                        f"frame length {length} exceeds the "
                        f"{protocol.MAX_FRAME_BYTES}-byte limit"
                    )
                if len(buf) >= 4 + length:
                    self._rbuf = buf[4 + length :]
                    return buf[4 : 4 + length]
            piece = self._sock.recv(65536)
            if not piece:
                self._rbuf = b""
                raise StorageError(
                    "connection closed mid-frame (response truncated)"
                )
            buf = buf + piece if buf else piece
            self._rbuf = buf

    def _retry_is_safe(self) -> bool:
        """A resend is safe iff every unacked mutation carries a token."""
        if self.idempotency:
            return True
        return not any(
            e.opcode in MUTATING_OPCODES for e in self._unacked
        )

    def _drain(self, deadline: float) -> Optional[Dict[str, Any]]:
        """Send all unsent requests and receive all pending acks.

        Returns the decoded body of the *last* ack (the newest request),
        or ``None`` when there was nothing to drain.  On transport
        failure, reconnects and resends the unacked window with
        exponential backoff until the deadline or retry budget runs out.
        """
        attempt = 0
        while True:
            try:
                self._connect(deadline)
                self._send_pending(deadline)
                last: Optional[Dict[str, Any]] = None
                while self._unacked:
                    last = self._recv_one(deadline)
                return last
            except ServiceConnectionError:
                attempt += 1
                self.retries_total += 1
                if attempt > self.max_retries or not self._retry_is_safe():
                    raise
                delay = min(
                    self.backoff_base * (2 ** (attempt - 1)),
                    self.backoff_max,
                )
                delay *= 0.5 + 0.5 * self._rng.random()
                if time.monotonic() + delay >= deadline:
                    raise ServiceTimeoutError(
                        f"request deadline expired after {attempt} "
                        f"retry attempt(s)"
                    ) from None
                time.sleep(delay)

    def _call(self, req: Request) -> Dict[str, Any]:
        """Issue one request synchronously (draining pipelined acks first)."""
        if (
            self.idempotency
            and req.opcode in MUTATING_OPCODES
            and req.token == 0
        ):
            req.token = self._next_token()
        framed = protocol.encode_request_framed(req)
        self._unacked.append(_Pending(req.opcode, framed))
        self._unsent_bytes += len(framed)
        body = self._drain(time.monotonic() + self.timeout)
        assert body is not None  # our own request was in the queue
        return body

    # -- pipelining --------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Pipelined requests whose acks have not been received yet."""
        return len(self._unacked)

    def flush(self) -> int:
        """Drain outstanding pipelined acks; returns the last seq seen."""
        if not self._unacked:
            return 0
        body = self._drain(time.monotonic() + self.timeout)
        seq = (body or {}).get("seq", 0)
        return int(seq) if isinstance(seq, int) else 0

    def close(self) -> None:
        try:
            if self._unacked:
                self.flush()
        except (ServiceConnectionError, ServiceTimeoutError):
            pass
        self._teardown()

    def __enter__(self) -> "QuantileClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- commands ----------------------------------------------------------

    def create(
        self,
        name: str,
        *,
        eps: float = 0.01,
        kind: str = "fixed",
        n: Optional[int] = None,
        policy: str = "new",
        engine: str = "paper",
        window: "str | float | None" = None,
        slide: "str | float | None" = None,
        decay: "str | float | None" = None,
        token: int = 0,
    ) -> bool:
        """Create metric *name*; True if new, False if it already existed.

        ``eps`` is the accuracy knob, spelled exactly as on
        :class:`repro.Sketch`.  ``engine`` picks the server-side sketch
        machinery (``"paper"``, ``"kll"`` or ``"frugal"``; see
        docs/api.md).  The non-paper engines require ``kind="fixed"``
        with no ``n`` -- their own knobs size the sketch.

        ``window=``/``slide=``/``decay=`` make the metric time-aware,
        with the same spellings as :class:`repro.Sketch`: durations are
        seconds or strings like ``"5m"``; ``window`` buckets by event
        time (tumbling, or sliding when ``slide`` divides it), ``decay``
        is an exponential half-life, and the two are mutually exclusive.
        The server stamps each ingest batch with its clock and journals
        the stamp, so windows survive crash recovery bit-identically.

        ``token`` overrides the auto-generated idempotency token: the
        cluster client passes one token to every replica of a broadcast
        create so a failover retry against any of them is deduplicated.
        """
        config = MetricConfig(
            kind, eps, n, policy, engine, *window_config(window, slide, decay)
        )
        return self.create_config(name, config, token=token)

    def create_config(
        self, name: str, config: MetricConfig, *, token: int = 0
    ) -> bool:
        """:meth:`create` from a validated
        :class:`~repro.service.protocol.MetricConfig` -- the form
        :meth:`sync_pull` returns, so a definition copies from one node
        to another whole."""
        body = self._call(
            Request(
                opcode=Opcode.CREATE, name=name, config=config, token=token
            )
        )
        return bool(body["created"])

    def ingest(
        self,
        name: str,
        values: "np.ndarray | Sequence[float]",
        *,
        token: int = 0,
    ) -> int:
        """Send one batch and wait for durability; returns the journal seq.

        ``token`` overrides the auto-generated idempotency token -- the
        cluster client sends the *same* token for one logical batch to
        every replica, so each node applies it exactly once no matter
        which connection retried.
        """
        body = self._call(
            Request(
                opcode=Opcode.INGEST,
                name=name,
                values=np.asarray(values, dtype=np.float64),
                token=token,
            )
        )
        return int(body["seq"])

    def ingest_nowait(
        self,
        name: str,
        values: "np.ndarray | Sequence[float]",
        *,
        token: int = 0,
    ) -> None:
        """Pipelined ingest: send without reading the ack (see module doc).

        The request is queued in the unacked window; if the connection is
        healthy it is written immediately, otherwise it rides along with
        the next :meth:`flush` / synchronous call, which reconnects and
        resends the window (idempotency tokens make that safe).
        """
        if len(self._unacked) >= self.max_outstanding:
            self.flush()
        if not token:
            token = self._next_token() if self.idempotency else 0
        framed = protocol.encode_ingest_framed(name, values, token)
        self._unacked.append(_Pending(Opcode.INGEST, framed))
        self._unsent_bytes += len(framed)
        if self._sock is not None and self._unsent_bytes > 0:
            if self._unsent_bytes < self.send_coalesce_bytes:
                return  # defer: ride along once the burst fills up
            try:
                self._send_pending(time.monotonic() + self.timeout)
            except (ServiceConnectionError, ServiceTimeoutError):
                # stays queued; the next drain retries with backoff
                pass

    def query(
        self, name: str, phis: Sequence[float]
    ) -> Tuple[List[float], float, int]:
        """``(values, certified bound in elements, n)`` for each phi."""
        body = self._call(
            Request(opcode=Opcode.QUERY, name=name, phis=list(phis))
        )
        return body["values"], body["error_bound"], body["n"]

    def quantile(self, name: str, phi: float) -> float:
        return self.query(name, [phi])[0][0]

    def quantiles(self, name: str, phis: Sequence[float]) -> List[float]:
        """Just the values (uniform query-surface spelling of :meth:`query`)."""
        return self.query(name, phis)[0]

    def describe(self, name: str) -> Dict[str, Any]:
        """The same summary dict every in-process sketch's ``describe()``
        returns, assembled from one QUERY round trip (``phi`` 0 and 1 are
        the tracked exact extremes)."""
        from ..core.protocols import DESCRIBE_PHIS

        phis = [0.0, *DESCRIBE_PHIS, 1.0]
        values, bound, n = self.query(name, phis)
        return {
            "n": int(n),
            "min": values[0],
            "max": values[-1],
            "quantiles": {
                phi: values[i + 1] for i, phi in enumerate(DESCRIBE_PHIS)
            },
            "error_bound": float(bound),
            "error_bound_fraction": (float(bound) / n) if n else 0.0,
        }

    def cdf(self, name: str, value: float) -> Dict[str, Any]:
        """Inverse query: rank / fraction of elements ``<= value``."""
        return self._call(
            Request(opcode=Opcode.CDF, name=name, value=float(value))
        )

    def list_metrics(self) -> List[Dict[str, Any]]:
        return self._call(Request(opcode=Opcode.LIST))["metrics"]

    def fetch(self, name: str) -> Any:
        """Pull the metric's summary as a live sketch of its engine
        (dispatch on the payload's magic tag; §4.9 exchange: merge
        same-engine payloads across servers with
        :func:`repro.core.serialize.merge_serialized`)."""
        return loads_any(self.fetch_raw(name))

    def fetch_raw(self, name: str) -> bytes:
        return self._call(Request(opcode=Opcode.FETCH, name=name))["payload"]

    def sync_pull(self, name: str, after_seq: int = 0) -> Dict[str, Any]:
        """One donor round of the cluster re-sync protocol.

        Returns one atomic view of the metric on this server: its
        ``config`` (a :class:`~repro.service.protocol.MetricConfig`,
        window or decay included), the current full serialized
        ``payload``, the journal ``seq`` the payload reflects, and
        ``records`` -- the ``(seq, token, values)`` INGEST tail after
        ``after_seq``.  ``rebase=True`` means the tail could not be
        produced (rotation or an intervening RESTORE): start over from
        the full payload.
        """
        return self._call(
            Request(
                opcode=Opcode.SYNCPULL, name=name, after_seq=int(after_seq)
            )
        )

    def restore(
        self,
        name: str,
        *,
        kind: str,
        epsilon: float,
        n: Optional[int],
        policy: str,
        engine: str,
        payload: bytes,
        token: int = 0,
    ) -> Tuple[bool, int]:
        """Install a metric's full state from a donor payload.

        The receiving half of re-sync: the payload (a donor's
        :meth:`fetch_raw` / :meth:`sync_pull` bytes) replaces whatever
        this server holds under *name*, journaled as one RESTORE record.
        Returns ``(replaced, seq)``.
        """
        config = MetricConfig(kind, epsilon, n, policy, engine)
        return self.restore_config(name, config, payload, token=token)

    def restore_config(
        self,
        name: str,
        config: MetricConfig,
        payload: bytes,
        *,
        token: int = 0,
    ) -> Tuple[bool, int]:
        """:meth:`restore` from a validated
        :class:`~repro.service.protocol.MetricConfig`.  Only its head and
        engine travel: the payload carries any window or decay."""
        body = self._call(
            Request(
                opcode=Opcode.RESTORE,
                name=name,
                config=config,
                payload=payload,
                token=token,
            )
        )
        return bool(body["replaced"]), int(body["seq"])

    def snapshot(self) -> Tuple[int, str]:
        """Force a snapshot; returns ``(seq, path)``."""
        body = self._call(Request(opcode=Opcode.SNAPSHOT))
        return body["seq"], body["path"]

    def drain(self) -> int:
        """Barrier: apply every queued batch server-side; returns seq."""
        return self._call(Request(opcode=Opcode.DRAIN))["seq"]

    def stats(self, detail: int = 0) -> Dict[str, Any]:
        """Server metrics; ``detail=1`` adds the rendered Prometheus text
        under the ``"prometheus"`` key."""
        return self._call(
            Request(opcode=Opcode.STATS, detail=int(detail))
        )["stats"]

    def ping(self) -> Dict[str, Any]:
        """Liveness + route metadata: ``node_id``, cluster ``epoch``,
        ``uptime_s``, ``n_metrics``, ``elements``.  A standalone server
        answers with an empty ``node_id``."""
        return self._call(Request(opcode=Opcode.PING))

    # -- watch rules -------------------------------------------------------

    def watch_add(
        self,
        rule_id: str,
        metric: str,
        phi: float,
        threshold: float,
        *,
        op: str = ">",
        token: int = 0,
    ) -> bool:
        """Register a threshold rule: alert when the *phi*-quantile of
        *metric* is above (``op=">"``) or below (``op="<"``) *threshold*.

        The server evaluates rules on its scheduler tick using the
        certified bound: ``definite`` severity means the bound *proves*
        the crossing, ``possible`` means only the estimate crosses (the
        frugal engine, having no bound, is always ``possible``).  Rules
        are journaled and snapshotted like metrics: they survive a
        crash, counters included.  Returns ``True`` if the rule is new;
        re-adding an identical rule is a no-op, a *different* rule under
        the same id is an error.
        """
        body = self._call(
            Request(
                opcode=Opcode.WATCH,
                name=rule_id,
                metric=metric,
                phi=float(phi),
                rule_op=op,
                threshold=float(threshold),
                token=token,
            )
        )
        return bool(body["added"])

    def watch_remove(self, rule_id: str, *, token: int = 0) -> bool:
        """Drop a watch rule; returns whether it existed."""
        body = self._call(
            Request(opcode=Opcode.UNWATCH, name=rule_id, token=token)
        )
        return bool(body["removed"])

    def alerts(self, *, evaluate: bool = False) -> List[Dict[str, Any]]:
        """The current state of every watch rule, sorted by rule id.

        Each record carries the rule's configuration, its last
        evaluation outcome (``ok`` / ``possible`` / ``definite`` /
        ``no_data`` / ``no_metric`` / ``pending``), the last observed
        quantile value, and cumulative ``definite_total`` /
        ``possible_total`` fire counters.  ``evaluate=True`` runs one
        evaluation pass server-side first (same code path as the
        background scheduler) -- handy with an injected clock or when
        the watcher is disabled.
        """
        return self._call(
            Request(opcode=Opcode.ALERTS, detail=1 if evaluate else 0)
        )["alerts"]
