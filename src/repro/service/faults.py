"""Deterministic fault injection: a chaos TCP proxy for the service.

The resilience layer is only as good as the failures it was tested
against, so this module makes failures *reproducible*: a
:class:`ChaosProxy` sits between any client and server and injects
faults -- connection resets, byte truncation, delays, stalls and
forced partial reads/writes -- at exact **byte offsets** of a
connection's two directions, driven by a :class:`FaultSchedule` that is
a pure function of its seed (or an explicit event list).  Nothing in
the proxy consults a wall clock or an unseeded RNG to *decide*
anything, so a given schedule tears the same frames at the same bytes
on every run -- which is what lets the chaos property suite assert
bit-identical end states.

Use it in tests::

    schedule = FaultSchedule([
        [FaultEvent("reset", "c2s", after_bytes=100)],   # connection 0
        [FaultEvent("stall", "s2c", after_bytes=5, delay_s=0.05)],
        # connections beyond the list are transparent
    ])
    with ChaosProxy("127.0.0.1", server.port, schedule=schedule) as proxy:
        client = QuantileClient("127.0.0.1", proxy.port)

or against a live dev server with ``repro serve --chaos [--chaos-seed N]``,
which fronts the real listener with a seeded proxy so every client
exercises the retry/dedup path.

Fault kinds
-----------

``reset``
    Abort the connection with an RST (``SO_LINGER 0``) once
    ``after_bytes`` have been forwarded in the event's direction.
``truncate``
    Forward exactly ``after_bytes`` in the direction, silently drop the
    rest, and close the connection cleanly (FIN mid-frame).
``delay``
    One-shot: sleep ``delay_s`` when the offset is crossed, then
    continue normally (added latency).
``stall``
    Same mechanics as ``delay`` but conventionally much longer -- use
    it to exercise client deadlines.
``partial``
    From the offset on, forward one byte at a time (``chop`` bytes,
    configurable): every subsequent read on the peer is a partial read.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError

__all__ = ["FaultEvent", "FaultSchedule", "ChaosProxy", "FAULT_KINDS"]

FAULT_KINDS = ("reset", "truncate", "delay", "stall", "partial")
_DIRECTIONS = ("c2s", "s2c")

#: forwarding chunk size (big enough that chunking itself is invisible)
_CHUNK = 65536

#: pump poll interval -- bounds how long an abort can lag behind its
#: fault event while the peer pump is blocked in recv/send
_POLL_S = 0.05


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, anchored at a byte offset of one direction.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    direction:
        ``"c2s"`` (client -> server bytes) or ``"s2c"`` (server ->
        client bytes).  Offsets count bytes *forwarded* in that
        direction only.
    after_bytes:
        The event fires once this many bytes have been forwarded in
        ``direction`` (0 = before the first byte).
    delay_s:
        Sleep duration for ``delay`` / ``stall``.
    chop:
        Write size for ``partial`` (default 1 byte).
    """

    kind: str
    direction: str
    after_bytes: int
    delay_s: float = 0.0
    chop: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.direction not in _DIRECTIONS:
            raise ConfigurationError(
                f"unknown direction {self.direction!r}; expected c2s or s2c"
            )
        if self.after_bytes < 0:
            raise ConfigurationError("after_bytes must be >= 0")
        if self.delay_s < 0:
            raise ConfigurationError("delay_s must be >= 0")
        if self.chop < 1:
            raise ConfigurationError("chop must be >= 1")


class FaultSchedule:
    """Per-connection fault plans, deterministic by construction.

    Two modes:

    * **explicit** -- ``FaultSchedule(plans)`` where ``plans[i]`` is the
      event list for the *i*-th accepted connection; connections beyond
      the list are transparent.  This is what hypothesis drives.
    * **seeded** -- :meth:`FaultSchedule.from_seed` derives each
      connection's plan from ``(seed, connection_index)`` alone, so an
      unbounded stream of connections still gets reproducible faults.
      ``repro serve --chaos`` uses this mode.
    """

    def __init__(
        self, plans: Sequence[Sequence[FaultEvent]] = ()
    ) -> None:
        self._plans: List[Tuple[FaultEvent, ...]] = [
            tuple(plan) for plan in plans
        ]
        self._seed: Optional[int] = None
        self._fault_probability = 0.0
        self._max_delay_s = 0.0

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        fault_probability: float = 0.25,
        max_delay_s: float = 0.05,
    ) -> "FaultSchedule":
        """A schedule where each connection independently (but
        deterministically, from ``(seed, index)``) draws up to two
        faults with probability *fault_probability* each."""
        if not 0.0 <= fault_probability <= 1.0:
            raise ConfigurationError(
                "fault_probability must be within [0, 1]"
            )
        schedule = cls()
        schedule._seed = seed
        schedule._fault_probability = fault_probability
        schedule._max_delay_s = max_delay_s
        return schedule

    def plan_for(self, conn_index: int) -> Tuple[FaultEvent, ...]:
        """The fault plan for the *conn_index*-th accepted connection."""
        if self._seed is None:
            if conn_index < len(self._plans):
                return self._plans[conn_index]
            return ()
        # string seeding is stable across processes and python versions
        rng = random.Random(f"chaos:{self._seed}:{conn_index}")
        events = []
        for _ in range(2):
            if rng.random() >= self._fault_probability:
                continue
            kind = rng.choice(FAULT_KINDS)
            events.append(
                FaultEvent(
                    kind=kind,
                    direction=rng.choice(_DIRECTIONS),
                    after_bytes=rng.randrange(0, 4096),
                    delay_s=(
                        rng.uniform(0.001, self._max_delay_s)
                        if kind in ("delay", "stall")
                        else 0.0
                    ),
                )
            )
        return tuple(events)


class _ChaosConnection:
    """One proxied connection: two pump threads + shared abort state."""

    def __init__(
        self,
        index: int,
        client_sock: socket.socket,
        server_sock: socket.socket,
        plan: Sequence[FaultEvent],
        proxy: "ChaosProxy",
    ) -> None:
        self.index = index
        self.client_sock = client_sock
        self.server_sock = server_sock
        self.plan = plan
        self.proxy = proxy
        self.aborted = threading.Event()
        self._lock = threading.Lock()
        self.threads = [
            threading.Thread(
                target=self._pump,
                args=(client_sock, server_sock, "c2s"),
                name=f"chaos-{index}-c2s",
                daemon=True,
            ),
            threading.Thread(
                target=self._pump,
                args=(server_sock, client_sock, "s2c"),
                name=f"chaos-{index}-s2c",
                daemon=True,
            ),
        ]

    def start(self) -> None:
        for t in self.threads:
            t.start()

    def abort(self, *, rst: bool) -> None:
        """Tear the connection down; ``rst=True`` sends a reset.

        The peer pump thread may be blocked inside ``recv`` on one of
        these sockets, which keeps the kernel file alive past ``close``
        and would defer the RST indefinitely -- that is why the pumps
        poll with :data:`_POLL_S` timeouts: the blocked thread wakes
        within one poll interval, drops its reference, and the close
        (with ``SO_LINGER`` zero for ``rst=True``) takes effect.
        """
        with self._lock:
            if self.aborted.is_set():
                return
            self.aborted.set()
            for sock in (self.client_sock, self.server_sock):
                try:
                    if rst:
                        sock.setsockopt(
                            socket.SOL_SOCKET,
                            socket.SO_LINGER,
                            struct.pack("ii", 1, 0),  # => RST on close
                        )
                    else:
                        # clean FIN toward both peers before closing
                        try:
                            sock.shutdown(socket.SHUT_WR)
                        except OSError:
                            pass
                    sock.close()
                except OSError:
                    pass

    # -- the pump ----------------------------------------------------------

    def _pump(self, src: socket.socket, dst: socket.socket, direction: str
              ) -> None:
        events = sorted(
            (e for e in self.plan if e.direction == direction),
            key=lambda e: e.after_bytes,
        )
        next_event = 0
        forwarded = 0
        chop: Optional[int] = None
        try:
            while not self.aborted.is_set():
                try:
                    data = src.recv(_CHUNK)
                except socket.timeout:
                    continue  # poll tick: re-check aborted
                if not data:
                    # clean EOF: half-close toward the destination
                    try:
                        dst.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    return
                while data:
                    if next_event < len(events):
                        event = events[next_event]
                        gap = event.after_bytes - forwarded
                        if gap <= len(data):
                            # forward up to the event offset, fire it
                            head, data = data[:gap], data[gap:]
                            if head:
                                self._forward(dst, head, chop)
                                forwarded += len(head)
                            next_event += 1
                            self.proxy._record_fault(self.index, event)
                            if event.kind == "reset":
                                self.abort(rst=True)
                                return
                            if event.kind == "truncate":
                                self.abort(rst=False)
                                return
                            if event.kind in ("delay", "stall"):
                                self.aborted.wait(event.delay_s)
                            elif event.kind == "partial":
                                chop = event.chop
                            continue
                    self._forward(dst, data, chop)
                    forwarded += len(data)
                    data = b""
        except OSError:
            # peer vanished (or we were aborted): mirror the failure
            self.abort(rst=False)

    def _forward(
        self, dst: socket.socket, data: bytes, chop: Optional[int]
    ) -> None:
        step = len(data) if chop is None else chop
        for start in range(0, len(data), step):
            view = memoryview(data)[start : start + step]
            while view and not self.aborted.is_set():
                try:
                    sent = dst.send(view)
                except socket.timeout:
                    continue  # poll tick: re-check aborted
                view = view[sent:]


class ChaosProxy:
    """An in-process TCP proxy injecting faults from a schedule.

    Accepts on ``(host, port)`` (``port=0`` binds an ephemeral port --
    read :attr:`port` back) and forwards every connection to
    ``upstream_host:upstream_port``, applying the
    :class:`FaultSchedule` plan for that connection's index.  Without a
    schedule the proxy is fully transparent, which is itself useful:
    the chaos suite's fault-free control runs through the same code
    path.

    Thread-based and blocking-socket so it composes with both the
    blocking client and the server from any test or shell.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        schedule: Optional[FaultSchedule] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        connect_timeout: float = 5.0,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.connections_accepted = 0
        #: every fault actually fired: ``(connection index, event)``
        self.faults_injected: List[Tuple[int, FaultEvent]] = []
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[_ChaosConnection] = []
        self._lock = threading.Lock()
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does, so the join below returns at once
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.abort(rst=False)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- internals ---------------------------------------------------------

    def _record_fault(self, conn_index: int, event: FaultEvent) -> None:
        with self._lock:
            self.faults_injected.append((conn_index, event))

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                client_sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            index = self.connections_accepted
            self.connections_accepted += 1
            try:
                server_sock = socket.create_connection(
                    (self.upstream_host, self.upstream_port),
                    timeout=self.connect_timeout,
                )
            except OSError:
                client_sock.close()
                continue
            for sock in (client_sock, server_sock):
                sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                # short poll timeout so pump threads notice aborts (see
                # _ChaosConnection.abort); transparent otherwise
                sock.settimeout(_POLL_S)
            conn = _ChaosConnection(
                index,
                client_sock,
                server_sock,
                self.schedule.plan_for(index),
                self,
            )
            with self._lock:
                self._connections.append(conn)
            conn.start()
