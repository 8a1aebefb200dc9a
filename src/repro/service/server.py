"""The quantile-sketch server: one thread, one ``selectors`` reactor.

One process, one thread, ``n_shards`` batching domains.  The request
path decodes frames and translates them into registry operations; it
never touches sketch internals.  The ingest path is::

    frame in -> validate batch -> journal append (WAL) -> enqueue on the
    metric's shard -> ack           (sketch not yet updated)

    end of the reactor round -> drain each woken shard: a paper metric's
    queued batches as one SketchBank.extend_single run, the shard's
    Frugal metrics together in one FrugalBank.extend_pairs pass

The reactor is a ``selectors`` loop over non-blocking sockets: the
listener, every accepted connection and a wakeup socketpair.  Each
round waits for ready sockets or the next timer (the snapshot and WATCH
ticks, and shard drains under ``batch_window_s``), then:

* **receive** -- each readable connection gets one ``recv(READ_CHUNK)``.
  Every complete frame in the chunk is dispatched back to back, and
  INGEST value arrays are ``np.frombuffer`` views into the chunk: one
  copy out of the kernel, none per batch.  A view pins its chunk until
  the shard applies the batch, and engines copy whatever they keep, so
  no chunk outlives its batches.  A frame that spans reads is joined
  once, when its last byte has arrived;
* **send** -- the acks for a whole chunk leave in one ``send``.  What
  the peer does not take waits in the connection's outbound buffer, and
  the reactor reads nothing more from that connection until it is
  flushed, so a client that never reads its acks stalls only itself;
* **apply** -- with ``batch_window_s == 0`` every shard woken in the
  round drains after it, so pipelined INGESTs from every connection that
  was ready are applied by one ``apply_shard`` call.

Each frame is still dispatched individually, in order.  Because one
thread runs everything, every mutation is serial: the journal order
*is* the apply order, queries never observe a half-applied batch, and
snapshots capture a consistent image by draining the shard queues
first.  Queries flush the owning shard's queue synchronously before
answering, so a client always reads its own acknowledged writes.

One mutation path: each journaled mutation (CREATE, INGEST plain and
windowed, RESTORE, WATCH, UNWATCH) is one method, run by the live
request and, on recovery, by its journal record -- the two carry the
same field names -- so replay feeds every sketch exactly what the live
server fed it.  A live INGEST is journaled before it is enqueued, the
other mutations after they apply; a replayed record is journaled no
second time, takes its seq and event time from the record and is
applied before the next one.  Every mutating request checks the dedup
window once, in ``_execute_op``, and records its ack there.

Lifecycle: :meth:`QuantileService.start` recovers and binds, and
:meth:`QuantileService.serve` runs the reactor until
:meth:`QuantileService.stop` -- callable from any thread -- or, on the
main thread, SIGTERM/SIGINT (both reach the loop through the wakeup
socketpair; signals via ``signal.set_wakeup_fd``).  ``repro serve``,
every cluster node process and :class:`ServerThread` run this one
sequence.

Durability: pass ``data_dir`` to enable the journal + snapshot pair
(see :mod:`repro.service.journal` / :mod:`repro.service.snapshot`);
recovery happens automatically in :meth:`QuantileService.start`.
Without a ``data_dir`` the server is a purely in-memory cache.

Resilience (tested by the fault-injection harness in
:mod:`repro.service.faults`):

* mutating requests carry idempotency tokens which are journaled and
  checked against the registry's dedup window, so a client retrying an
  INGEST after a lost ack is applied exactly once -- including across a
  crash, because recovery re-records the tokens it replays;
* each connection is bounded by ``max_inflight_bytes`` of queued ingest
  payload: past the limit the server drains the shards synchronously
  before reading from it again, so a fast producer cannot balloon the
  pending queues;
* a graceful stop (``SIGTERM`` under ``repro serve``) drains: the
  listener closes, connections take the acks of the frames already read
  and are then shut, every queued batch is applied, a final snapshot is
  written and the journal is closed -- nothing new is acknowledged once
  the drain begins.

:class:`ServerThread` runs the whole server on a background thread for
tests, examples and benchmarks; ``repro serve`` runs it in the
foreground.
"""

from __future__ import annotations

import heapq
import os
import selectors
import signal
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Union

from ..core.errors import ConfigurationError, ReproError, StorageError
from ..obs import hooks as obs_hooks
from ..obs.metrics import MetricsRegistry
from . import protocol
from .journal import (
    CREATE_RECORD,
    INGEST_AT_RECORD,
    INGEST_RECORD,
    RESTORE_RECORD,
    UNWATCH_RECORD,
    WATCH_RECORD,
    IngestJournal,
    JournalRecord,
    read_journal,
)
from .metrics import RecentRate, stats_view
from .registry import SketchRegistry
from .rules import RuleSet
from .snapshot import read_snapshot, write_snapshot

__all__ = ["QuantileService", "ServerThread"]

#: what a mutation reads: a live request or, on recovery, the journal
#: record it left (the two share their field names)
_Change = Union[protocol.Request, JournalRecord]

SNAPSHOT_FILE = "snapshot.bin"
JOURNAL_FILE = "journal.log"

#: the most one ``recv`` takes off a ready connection; the whole chunk is
#: parsed and dispatched as one coalesced batch.  Bigger chunks make
#: bigger shard drains, which cost fewer ns per element but hold more
#: transient memory: at 4 MiB a node of the suite's cluster workload
#: peaked about 9 MiB higher than at this size, asyncio's read size.
READ_CHUNK = 256 * 1024

#: pending connections the kernel queues on the listening socket
LISTEN_BACKLOG = 100

#: kernel receive buffer requested per accepted connection.  While a
#: shard applies a coalesced batch the reactor performs no reads,
#: so the socket buffer is the *only* pipelining depth the client gets;
#: the ~208 KiB default stalls a pipelined sender after ~6 batches of
#: 4096 float64s.  The kernel caps this at ``net.core.rmem_max``.
SOCK_RCVBUF = 4 * 1024 * 1024


class _Instruments:
    """The server's hot-path instruments, resolved once.

    ``registry.counter(name, **labels)`` sorts a labels dict into a key
    and does two dict lookups; every request records into several
    instruments, so the handles are resolved here at construction (as
    :class:`repro.obs.hooks._HotHandles` does for the core hooks) and
    the hot path pays attribute reads only.
    """

    def __init__(self, reg: MetricsRegistry, n_shards: int) -> None:
        self.ingest_batches = [
            reg.counter("service.ingest.batches", shard=i)
            for i in range(n_shards)
        ]
        self.ingest_elements = [
            reg.counter("service.ingest.elements", shard=i)
            for i in range(n_shards)
        ]
        self.batch_size = reg.timing("service.ingest.batch_size")
        self.queries = reg.counter("service.queries")
        self.query_latency = reg.timing("service.query.latency_ms")
        self.connections_total = reg.counter("service.connections_total")
        self.connections_open = reg.gauge("service.connections_open")
        self.backpressure_flushes = reg.counter(
            "service.backpressure_flushes"
        )
        self.coalesce_reads = reg.counter("service.coalesce.reads")
        self.coalesce_frames = reg.counter("service.coalesce.frames")
        #: frames dispatched per socket read -- how deep clients pipeline
        self.frames_per_read = reg.timing("service.coalesce.frames_per_read")
        #: request wall time per opcode, keyed by the opcode number
        self.op_latency = {
            op: reg.timing("service.op_latency_ms", op=name)
            for op, name in protocol.Opcode._NAMES.items()
        }
        self.snapshots = reg.counter("service.snapshots")
        self.journal_records_recovered = reg.counter(
            "service.journal_records_recovered"
        )

    def record_coalesce(self, n_frames: int) -> None:
        """One socket read dispatched *n_frames* requests as a batch."""
        self.coalesce_reads.inc()
        self.coalesce_frames.inc(n_frames)
        self.frames_per_read.observe(n_frames)


class _Connection:
    """One accepted socket: its unparsed bytes and its unsent acks."""

    __slots__ = ("sock", "parts", "have", "need", "out", "inflight", "closing")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: received bytes that do not yet complete a frame
        self.parts: List[bytes] = []
        self.have = 0
        #: how many buffered bytes the next parse needs to make progress
        self.need = 4
        #: acks the peer has not taken yet; reading pauses while set
        self.out: Optional[memoryview] = None
        #: ingest payload read since the shards last had nothing queued
        #: (the backpressure bound)
        self.inflight = 0
        #: close once ``out`` is flushed
        self.closing = False


class QuantileService:
    """A sharded, durable quantile-sketch server.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    path:
        Listen on a ``AF_UNIX`` stream socket at this filesystem path
        instead of TCP (``host``/``port`` are then ignored).  Same wire
        format, same semantics -- a local fast path that skips the
        loopback TCP stack (roughly 2-3x the raw stream bandwidth on
        one core, which matters once the protocol cost is down in the
        noise).  A stale socket file from a dead process is replaced.
    data_dir:
        Directory for the snapshot + journal pair.  ``None`` disables
        durability.
    n_shards:
        Batching domains (each backed by a
        :class:`~repro.core.bank.SketchBank`).
    snapshot_interval_s:
        Period of the automatic snapshot timer (``None`` = only explicit
        ``SNAPSHOT`` commands and graceful shutdown snapshot).
    fsync:
        Journal durability mode -- ``False`` flushes (survives process
        kill), ``True`` fsyncs every batch (survives power loss).
    batch_window_s:
        How long a shard waits after its first queued batch before
        draining its queue; ``0`` still batches everything enqueued in
        the same reactor round.
    max_inflight_bytes:
        Per-connection backpressure bound: once a connection has this
        many bytes of ingest payload queued but not yet applied, the
        server drains the shards synchronously before reading from it
        again.
    drain_grace_s:
        How long a graceful stop waits for open connections to take the
        acks of the frames already read before forcibly closing them.
    clock:
        Event-time source (``() -> float`` seconds) used to stamp
        ingests into windowed metrics and to drive WATCH evaluation.
        ``None`` means ``time.time``.  Tests inject a synthetic clock
        here to make window expiry and alert firing deterministic.
    watch_interval_s:
        Period of the WATCH timer (``None`` or ``0`` disables
        it; rules are then only evaluated by ``ALERTS evaluate=1``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        path: Optional[str] = None,
        data_dir: Optional[str] = None,
        n_shards: int = 4,
        snapshot_interval_s: Optional[float] = 30.0,
        fsync: bool = False,
        batch_window_s: float = 0.0,
        max_inflight_bytes: int = 32 * 1024 * 1024,
        drain_grace_s: float = 2.0,
        observability: bool = True,
        node_id: str = "",
        cluster_epoch: int = 0,
        clock: Optional[Any] = None,
        watch_interval_s: Optional[float] = 1.0,
    ) -> None:
        if not 0 <= port <= 65535:
            raise ConfigurationError(f"port must be in 0-65535, got {port}")
        self.host = host
        self.port = port
        #: route metadata reported by PING: which cluster node this
        #: process is (empty for a standalone server) and the manifest
        #: epoch it was launched under
        self.node_id = node_id
        self.cluster_epoch = cluster_epoch
        self.path = path
        self.data_dir = data_dir
        self.n_shards = n_shards
        self.snapshot_interval_s = snapshot_interval_s
        self.fsync = fsync
        self.batch_window_s = batch_window_s
        self.max_inflight_bytes = max_inflight_bytes
        self.drain_grace_s = drain_grace_s
        self.observability = observability
        self._clock = clock or time.time
        self.watch_interval_s = watch_interval_s
        self.registry = SketchRegistry(n_shards, clock=self._clock)
        #: every number this server keeps about itself; STATS and the
        #: Prometheus page are both rendered from it
        self.metrics = MetricsRegistry()
        self._m = _Instruments(self.metrics, n_shards)
        self._recent = RecentRate()
        self.started_at = time.time()
        self._t0 = time.monotonic()
        self.rules = RuleSet(self.metrics)
        self.journal: Optional[IngestJournal] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._conns: "set[_Connection]" = set()
        #: ``(monotonic deadline, tie-break, callback)`` heap
        self._timers: List[Any] = []
        self._timer_seq = 0
        #: shards with batches queued since their last drain
        self._woken: "set[int]" = set()
        #: the loop's wakeup pair: stop() and signals write, serve() reads
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._saved_wakeup_fd: Optional[int] = None
        self._saved_handlers: Dict[int, Any] = {}
        #: ``None`` while serving; the ``graceful`` flag once stop() ran
        self._stop_mode: Optional[bool] = None

    # -- recovery ----------------------------------------------------------

    @property
    def snapshot_path(self) -> Optional[str]:
        if self.data_dir is None:
            return None
        return os.path.join(self.data_dir, SNAPSHOT_FILE)

    @property
    def journal_path(self) -> Optional[str]:
        if self.data_dir is None:
            return None
        return os.path.join(self.data_dir, JOURNAL_FILE)

    def _recover(self) -> None:
        """Rebuild state from snapshot + journal tail (idempotent)."""
        assert self.data_dir is not None
        os.makedirs(self.data_dir, exist_ok=True)
        seq = 0
        if os.path.exists(self.snapshot_path):
            seq = read_snapshot(self.snapshot_path, self.registry, self.rules)
        journal_path = self.journal_path
        replayed = 0
        if os.path.exists(journal_path):
            # self.journal opens below, so nothing replayed is journaled
            # again.  A record is applied even when its token is already
            # in the dedup window: the live window also held tokens that
            # were never journaled, so it may have evicted -- and then
            # legitimately re-applied -- a token this window still holds
            for rec in read_journal(journal_path).records:
                if rec.seq > seq:  # else already inside the snapshot
                    ack = self._REPLAY[rec.type](self, rec, True)
                    # a client that lost this ack to the crash may retry
                    self.registry.dedup.record(rec.token, ack)
                    replayed += 1
        self._m.journal_records_recovered.inc(replayed)
        # opening the journal truncates any torn tail and resumes the
        # sequence after the last surviving record
        self.journal = IngestJournal(
            journal_path, start_seq=seq, fsync=self.fsync
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Recover, bind the listening socket and arm the timers.

        Returns once the server is bound (read :attr:`port` back here)
        without serving anything; :meth:`serve` runs the reactor.  Both
        must run on the same thread.  On the main thread this also makes
        SIGTERM and SIGINT request a graceful stop, from before recovery
        on, so a supervisor may signal as soon as it reads the port.
        """
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        try:
            if threading.current_thread() is threading.main_thread():
                self._saved_wakeup_fd = signal.set_wakeup_fd(
                    self._wake_w.fileno(), warn_on_full_buffer=False
                )
                for signum in (signal.SIGINT, signal.SIGTERM):
                    self._saved_handlers[signum] = signal.signal(
                        signum, self._on_signal
                    )
            if self.observability:
                # turn on core instrumentation into this server's
                # registry so STATS can report per-level collapse counts
                # and the live certified bound per metric
                obs_hooks.enable(registry=self.metrics)
            if self.data_dir is not None:
                self._recover()
            self._listener = self._bind()
            self._selector.register(self._listener, selectors.EVENT_READ)
        except BaseException:
            self._release()
            raise
        if self.data_dir is not None and self.snapshot_interval_s:
            self._every(self.snapshot_interval_s, self._write_snapshot)
        if self.watch_interval_s:
            self._every(self.watch_interval_s, self._evaluate_rules)

    def _bind(self) -> socket.socket:
        if self.path is not None:
            if os.path.exists(self.path):
                os.unlink(self.path)  # a stale socket from a dead process
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.bind(self.path)
                sock.listen(LISTEN_BACKLOG)
            except BaseException:
                sock.close()
                raise
        else:
            family, _, _, _, addr = socket.getaddrinfo(
                self.host, self.port, type=socket.SOCK_STREAM,
                flags=socket.AI_PASSIVE,
            )[0]
            # SO_REUSEADDR is set, so a restart need not wait out TIME_WAIT
            sock = socket.create_server(
                addr, family=family, backlog=LISTEN_BACKLOG
            )
            self.port = sock.getsockname()[1]
        sock.setblocking(False)
        return sock

    def serve(self) -> None:
        """Serve until :meth:`stop` (or SIGTERM/SIGINT), then shut down.

        Calls :meth:`start` first unless it already ran.  The graceful
        shutdown closes the listener, lets every connection flush the
        acks of the frames it already read (bounded by
        ``drain_grace_s``; nothing new is read, so nothing new is
        acknowledged once the drain begins), applies every queued batch,
        writes a final snapshot (when durable) and closes the journal.
        A non-graceful stop skips all of that -- the in-process
        equivalent of ``SIGKILL``, used by the crash-recovery tests:
        whatever the journal already holds is what recovery gets.
        """
        if self._selector is None:
            self.start()
        try:
            while self._stop_mode is None:
                self._poll()
            graceful = self._stop_mode
            self._close_listener()
            if graceful:
                self._drain_connections()
            for conn in list(self._conns):
                self._close(conn)
            if graceful:
                self.registry.apply_all()
                if self.data_dir is not None and self.journal is not None:
                    self._write_snapshot()
                    self.journal.close()
        finally:
            self._release()

    def stop(self, *, graceful: bool = True) -> None:
        """Ask :meth:`serve` to shut down; returns at once.

        Safe from any thread and from a signal handler.  The first
        request decides whether the shutdown is graceful.
        """
        if self._stop_mode is None:
            self._stop_mode = graceful
        wake = self._wake_w
        if wake is not None:
            try:
                wake.send(b"\0")
            except OSError:  # full (a wakeup is pending) or already closed
                pass

    def _on_signal(self, signum: int, frame: Any) -> None:
        self.stop(graceful=True)

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is None:
            return
        self._selector.unregister(listener)
        listener.close()
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def _drain_connections(self) -> None:
        """Flush the acks already produced, within ``drain_grace_s``."""
        for conn in list(self._conns):
            if conn.out is None:
                self._close(conn)
            else:
                conn.closing = True
        deadline = time.monotonic() + self.drain_grace_s
        while self._conns:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._dispatch_events(remaining)

    def _release(self) -> None:
        """Close every socket and restore the signal dispositions."""
        self._close_listener()
        for conn in list(self._conns):
            self._close(conn)
        if self._saved_wakeup_fd is not None:
            signal.set_wakeup_fd(self._saved_wakeup_fd)
            self._saved_wakeup_fd = None
        for signum, handler in self._saved_handlers.items():
            if handler is not None:
                signal.signal(signum, handler)
        self._saved_handlers = {}
        wake_r, wake_w = self._wake_r, self._wake_w
        self._wake_r = self._wake_w = None
        for sock in (wake_r, wake_w):
            if sock is not None:
                sock.close()
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        self._timers = []

    # -- the reactor -------------------------------------------------------

    def _poll(self) -> None:
        """One reactor round: wait for sockets or the next timer, handle
        every ready socket, apply the woken shards, run due timers."""
        timers = self._timers
        timeout = (
            max(0.0, timers[0][0] - time.monotonic()) if timers else None
        )
        self._dispatch_events(timeout)
        woken = self._woken
        if woken and not self.batch_window_s:
            # every connection that was ready this round has enqueued
            # its frames: each shard drains them as one super-batch
            while woken:
                self._run_deferred(self.registry.apply_shard, woken.pop())
        if timers:
            now = time.monotonic()
            while timers and timers[0][0] <= now:
                self._run_deferred(heapq.heappop(timers)[2])

    def _dispatch_events(self, timeout: Optional[float]) -> None:
        for key, mask in self._selector.select(timeout):
            conn = key.data
            try:
                if conn is not None:
                    if mask & selectors.EVENT_READ:
                        self._on_readable(conn)
                    else:
                        self._on_writable(conn)
                elif key.fileobj is self._listener:
                    self._accept()
                else:
                    self._wake_r.recv(4096)  # stop() or a signal
            except Exception:  # noqa: BLE001 - one connection's bug
                # must not stop the server for every other client
                sys.excepthook(*sys.exc_info())
                if conn is not None:
                    self._close(conn)

    def _run_deferred(self, fn: Any, *args: Any) -> None:
        """Run a timer or shard drain; a failure is reported, and the
        server keeps serving."""
        try:
            fn(*args)
        except Exception:  # noqa: BLE001
            sys.excepthook(*sys.exc_info())

    def _call_later(self, delay: float, fn: Any) -> None:
        self._timer_seq += 1
        heapq.heappush(
            self._timers, (time.monotonic() + delay, self._timer_seq, fn)
        )

    def _every(self, interval: float, fn: Any) -> None:
        """Run *fn* every *interval* seconds, measured from the end of
        the previous run."""

        def tick() -> None:
            try:
                fn()
            finally:
                self._call_later(interval, tick)

        self._call_later(interval, tick)

    def _wake_shard(self, shard: int) -> None:
        """A batch was queued on *shard*: drain it after this round, or
        ``batch_window_s`` from now."""
        if shard not in self._woken:
            self._woken.add(shard)
            if self.batch_window_s:
                self._call_later(
                    self.batch_window_s, lambda: self._flush_shard(shard)
                )

    def _flush_shard(self, shard: int) -> None:
        self._woken.discard(shard)
        self.registry.apply_shard(shard)

    def _evaluate_rules(self) -> None:
        """The WATCH tick: evaluate every rule.

        Ticks on the monotonic clock but evaluates at the *injected*
        clock, so tests drive alert timing by advancing the synthetic
        clock between (real, short) ticks.  It runs between requests
        like everything else, so an evaluation never observes a
        half-applied batch.
        """
        if len(self.rules):
            self.rules.evaluate(self.registry, self._clock())

    def _write_snapshot(self) -> str:
        assert self.journal is not None and self.snapshot_path is not None
        self.registry.apply_all()
        nbytes = write_snapshot(
            self.snapshot_path, self.registry, self.journal.seq,
            rules=self.rules,
        )
        self.metrics.gauge("service.snapshot.last_bytes").set(nbytes)
        self.journal.rotate(self.journal.seq)
        self._m.snapshots.inc()
        return self.snapshot_path

    # -- connections -------------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # e.g. out of file descriptors: retry later
                return
            sock.setblocking(False)
            if sock.family != socket.AF_UNIX:
                # an ack is a few bytes: without this each one waits on
                # Nagle plus the peer's delayed ACK
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, SOCK_RCVBUF
                )
            except OSError:  # pragma: no cover - platform-dependent cap
                pass
            conn = _Connection(sock)
            self._conns.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._m.connections_total.inc()
            self._m.connections_open.inc()

    def _close(self, conn: "_Connection") -> None:
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        self._selector.unregister(conn.sock)
        conn.sock.close()
        self._m.connections_open.inc(-1)

    def _on_readable(self, conn: "_Connection") -> None:
        try:
            chunk = conn.sock.recv(READ_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if not chunk:
            self._close(conn)
            return
        if conn.inflight and not self.registry.pending_batches():
            conn.inflight = 0  # every batch it counted has been applied
        parts = conn.parts
        parts.append(chunk)
        conn.have += len(chunk)
        if conn.have < conn.need:
            return  # a frame still incomplete: join once it is whole
        # only a frame that straddled reads costs a join, one per frame
        data = chunk if len(parts) == 1 else b"".join(parts)
        parts.clear()
        n = len(data)
        pos = 0
        acks: List[bytes] = []
        oversize = False
        while n - pos >= 4:
            length = int.from_bytes(data[pos : pos + 4], "little")
            if length > protocol.MAX_FRAME_BYTES:
                acks.append(
                    protocol.frame(
                        protocol.encode_error(
                            f"frame length {length} exceeds limit"
                        )
                    )
                )
                oversize = True
                break
            if n - pos - 4 < length:
                break
            # zero-copy dispatch: the payload -- and, for INGEST, its
            # value array -- is a view into `data`
            payload = memoryview(data)[pos + 4 : pos + 4 + length]
            pos += 4 + length
            if length and payload[0] == protocol.Opcode.INGEST:
                conn.inflight += length
            acks.append(protocol.frame(self._dispatch(payload)))
        if pos < n and not oversize:
            parts.append(data[pos:])
            conn.have = n - pos
            conn.need = (
                4 + int.from_bytes(data[pos : pos + 4], "little")
                if n - pos >= 4
                else 4
            )
        else:
            conn.have = 0
            conn.need = 4
        if acks:
            self._m.record_coalesce(len(acks))
            self._send(conn, b"".join(acks))
        if oversize:
            conn.closing = True
            if conn.out is None:
                self._close(conn)
            return
        if conn.inflight >= self.max_inflight_bytes:
            # backpressure: this connection has pushed more pending
            # payload than allowed -- apply it before reading (and
            # thereby acking) anything further
            if self.registry.pending_batches():
                self.registry.apply_all()
                self._m.backpressure_flushes.inc()
            conn.inflight = 0

    def _send(self, conn: "_Connection", data: bytes) -> None:
        try:
            sent = conn.sock.send(data)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self._close(conn)
            return
        if sent < len(data):
            # the peer is not reading: hold the rest and stop reading
            # this connection until it is flushed
            conn.out = memoryview(data)[sent:]
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)

    def _on_writable(self, conn: "_Connection") -> None:
        try:
            sent = conn.sock.send(conn.out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        rest = conn.out[sent:]
        if len(rest):
            conn.out = rest
            return
        conn.out = None
        if conn.closing:
            self._close(conn)
        else:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)

    # -- requests ----------------------------------------------------------

    def _dispatch(self, payload: bytes) -> bytes:
        try:
            req = protocol.decode_request(payload)
            # every opcode, not just queries, lands in its
            # service.op_latency_ms{op} sketch, so STATS reports
            # p50/p90/p99 per operation with a certified rank bound
            start = time.perf_counter()
            try:
                body = self._execute_op(req)
            finally:
                self._m.op_latency[req.opcode].observe(
                    (time.perf_counter() - start) * 1000.0
                )
            return protocol.encode_ok(req.opcode, body)
        except ReproError as exc:
            return protocol.encode_error(str(exc))
        except Exception as exc:  # noqa: BLE001 - a bug must not kill
            # the connection: an unhandled error here would close the
            # socket mid-stream, which a resilient client reads as a
            # transport fault and retries forever against the same bug
            return protocol.encode_error(f"internal error: {exc!r}")

    def uptime_s(self) -> float:
        """Seconds since this server was constructed."""
        return time.monotonic() - self._t0

    def _record_query(self, start: float) -> None:
        self._m.queries.inc()
        self._m.query_latency.observe((time.perf_counter() - start) * 1000.0)

    def _execute_op(self, req: protocol.Request) -> Dict[str, Any]:
        op = req.opcode
        mutation = self._MUTATIONS.get(op)
        if mutation is not None:
            if req.token:
                hit = self.registry.dedup.get(req.token)
                if hit is not None:
                    # a retry whose ack was lost: replay the recorded
                    # ack, apply nothing (exactly-once)
                    return hit
            result = mutation(self, req)
            self.registry.dedup.record(req.token, result)
            return result
        if op == protocol.Opcode.QUERY:
            start = time.perf_counter()
            self.registry.apply_shard(self.registry.get(req.name).shard)
            values, bound, n = self.registry.quantiles(req.name, req.phis)
            self._record_query(start)
            return {"values": values, "error_bound": bound, "n": n}
        if op == protocol.Opcode.CDF:
            start = time.perf_counter()
            self.registry.apply_shard(self.registry.get(req.name).shard)
            rank, fraction, bound, n = self.registry.cdf(req.name, req.value)
            self._record_query(start)
            return {
                "rank": rank,
                "fraction": fraction,
                "error_bound": bound,
                "n": n,
            }
        if op == protocol.Opcode.LIST:
            return {"metrics": self.registry.describe_metrics()}
        if op == protocol.Opcode.FETCH:
            self.registry.apply_shard(self.registry.get(req.name).shard)
            return {"payload": self.registry.fetch_serialized(req.name)}
        if op == protocol.Opcode.SYNCPULL:
            return self._do_syncpull(req)
        if op == protocol.Opcode.DRAIN:
            self.registry.apply_all()
            return {"seq": self.journal.seq if self.journal else 0}
        if op == protocol.Opcode.STATS:
            stats = stats_view(
                self.metrics, self.registry, self.rules,
                started_at=self.started_at, uptime_s=self.uptime_s(),
                recent_rate=self._recent.rate(),
            )
            stats["engines"] = self.registry.engine_counts()
            if self.node_id:
                stats["node_id"] = self.node_id
                stats["cluster_epoch"] = self.cluster_epoch
            if req.detail:
                from ..obs.exposition import render_prometheus

                stats["prometheus"] = render_prometheus(self.metrics)
            return {"stats": stats}
        if op == protocol.Opcode.PING:
            return {
                "node_id": self.node_id,
                "epoch": self.cluster_epoch,
                "uptime_s": self.uptime_s(),
                "n_metrics": len(self.registry),
                "elements": sum(c.value for c in self._m.ingest_elements),
            }
        if op == protocol.Opcode.ALERTS:
            if req.detail:
                # evaluate-now: one on-demand scheduler tick, same code
                # path (and the same certified classification) as the
                # background watcher
                return {
                    "alerts": self.rules.evaluate(
                        self.registry, self._clock()
                    )
                }
            return {"alerts": self.rules.describe()}
        raise StorageError(f"unknown opcode {op}")

    def _do_syncpull(self, req: protocol.Request) -> Dict[str, Any]:
        """One atomic donor-side view for the re-sync protocol.

        Returns the metric's configuration, its *current* full serialized
        payload, and the journal tail of INGEST records for it after
        ``req.after_seq`` -- all computed inside one dispatch, so they
        are mutually consistent: applying the tail on top of the caller's
        ``after_seq`` state must reproduce the payload bit-for-bit.

        ``rebase`` is set when the tail cannot be produced (no journal,
        rotation discarded it, or a RESTORE or windowed INGEST record
        sits inside it): the caller must discard its partial state and
        install the full payload instead.
        """
        entry = self.registry.get(req.name)
        self.registry.apply_shard(entry.shard)
        payload = self.registry.fetch_serialized(req.name)
        seq_now = self.journal.seq if self.journal is not None else 0
        rebase = False
        records: List[Any] = []
        if req.after_seq:
            if (
                self.journal is None
                or not os.path.exists(self.journal.path)
                or self.journal.start_seq > req.after_seq
                or req.after_seq > seq_now
            ):
                rebase = True
            else:
                # safe mid-serve: the reactor runs one request at a time,
                # and appends flush whole records, so the file holds a
                # valid prefix ending at seq_now
                scan = read_journal(self.journal.path)
                for rec in scan.records:
                    if rec.name != req.name or rec.seq <= req.after_seq:
                        continue
                    if rec.type in (RESTORE_RECORD, INGEST_AT_RECORD):
                        # a RESTORE means the tail is not pure deltas
                        # (this donor was itself re-synced past the
                        # caller's position); SYNCPULL records carry no
                        # event times, so a windowed batch would land in
                        # the wrong bucket.  A full install is correct.
                        rebase = True
                        records = []
                        break
                    if rec.type == INGEST_RECORD:
                        records.append((rec.seq, rec.token, rec.values))
        return {
            "rebase": rebase,
            "config": entry.config,
            "seq": seq_now,
            "payload": payload,
            "records": records,
        }

    # -- mutations: one method per opcode; replay=True runs a record ------

    def _create(self, req: _Change, replay: bool = False) -> Dict[str, Any]:
        _entry, created = self.registry.create(req.name, req.config)
        if created and self.journal is not None:
            self.journal.append_create(req.name, req.config, req.token)
        return {"created": created}

    def _ingest(self, req: _Change, replay: bool = False) -> Dict[str, Any]:
        entry = self.registry.get(req.name)  # unknown metric -> error frame
        arr = self.registry.coerce_batch(req.values)
        journal = self.journal
        if replay:
            # the record type, not the metric, picks the path: a record
            # that does not match its metric raises, as it did live
            windowed, t, seq = req.type == INGEST_AT_RECORD, req.t, req.seq
        elif arr.size == 0:
            return {"seq": journal.seq if journal else 0, "count": 0}
        else:
            # a windowed batch is stamped once, here, and journaled with
            # its stamp: ring placement is then a pure function of the
            # journal, so crash replay rebuilds the same window
            windowed, seq = entry.windowed, 0
            t = float(self._clock()) if windowed else 0.0
            if journal is not None and windowed:
                seq = journal.append_ingest_at(
                    req.name, arr, t, token=req.token
                )
            elif journal is not None:
                seq = journal.append_ingest(req.name, arr, token=req.token)
        if windowed:
            self.registry.enqueue_at(req.name, arr, t, validated=True)
        else:
            self.registry.enqueue(req.name, arr, validated=True)
        if replay:
            self.registry.apply_shard(entry.shard)
        else:
            m = self._m
            m.ingest_batches[entry.shard].inc()
            m.ingest_elements[entry.shard].inc(arr.size)
            m.batch_size.observe(arr.size)
            self._recent.add(arr.size)
            self._wake_shard(entry.shard)
        return {"seq": seq, "count": int(arr.size)}

    def _restore(self, req: _Change, replay: bool = False) -> Dict[str, Any]:
        """Install a metric's full state from a donor payload."""
        # batches journaled before this RESTORE apply first, in journal
        # order, and the install then subsumes them wholesale
        self.registry.apply_all()
        replaced = self.registry.install_serialized(
            req.name, req.config, req.payload
        )
        seq = req.seq if replay else 0
        if self.journal is not None:
            seq = self.journal.append_restore(
                req.name, req.config, req.payload, req.token
            )
        return {"replaced": replaced, "seq": seq}

    def _watch(self, req: _Change, replay: bool = False) -> Dict[str, Any]:
        added = self.rules.add(
            req.name, req.metric, req.phi, req.rule_op, req.threshold
        )
        if added and self.journal is not None:
            self.journal.append_watch(
                req.name, req.metric, req.phi, req.rule_op, req.threshold,
                token=req.token,
            )
        return {"added": added}

    def _unwatch(self, req: _Change, replay: bool = False) -> Dict[str, Any]:
        removed = self.rules.remove(req.name)
        if removed and self.journal is not None:
            self.journal.append_unwatch(req.name, token=req.token)
        return {"removed": removed}

    def _snapshot(self, req: protocol.Request) -> Dict[str, Any]:
        if self.journal is None:
            raise StorageError(
                "durability is disabled (server started without "
                "--data-dir); nothing to snapshot"
            )
        path = self._write_snapshot()
        return {"seq": self.journal.seq, "path": path}

    #: the mutation each opcode of ``protocol.MUTATING_OPCODES`` runs
    _MUTATIONS = {
        protocol.Opcode.CREATE: _create,
        protocol.Opcode.INGEST: _ingest,
        protocol.Opcode.RESTORE: _restore,
        protocol.Opcode.WATCH: _watch,
        protocol.Opcode.UNWATCH: _unwatch,
        protocol.Opcode.SNAPSHOT: _snapshot,
    }
    #: the mutation each journal record type replays through
    _REPLAY = {
        CREATE_RECORD: _create,
        INGEST_RECORD: _ingest,
        INGEST_AT_RECORD: _ingest,
        RESTORE_RECORD: _restore,
        WATCH_RECORD: _watch,
        UNWATCH_RECORD: _unwatch,
    }


class ServerThread:
    """A :class:`QuantileService` serving on a background thread.

    The embedding used by tests, benchmarks and the example monitor::

        with ServerThread(data_dir="./data") as server:
            client = QuantileClient("127.0.0.1", server.port)

    ``stop(graceful=False)`` abandons the process-internal state without
    the final snapshot -- the closest in-process approximation of
    ``SIGKILL`` (the journal file already holds every acknowledged
    batch, exactly as it would after a real kill).
    """

    def __init__(self, **service_kwargs: Any) -> None:
        self.service = QuantileService(**service_kwargs)
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def path(self) -> Optional[str]:
        return self.service.path

    def start(self, timeout: float = 10.0) -> "ServerThread":
        started = threading.Event()
        failure: List[BaseException] = []

        def run() -> None:
            try:
                self.service.start()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failure.append(exc)
                return
            finally:
                started.set()
            self.service.serve()

        self._thread = threading.Thread(
            target=run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):
            raise StorageError("service failed to start within timeout")
        if failure:
            raise failure[0]
        return self

    def stop(self, *, graceful: bool = True, timeout: float = 10.0) -> None:
        thread = self._thread
        if thread is None or not thread.is_alive():
            return
        self.service.stop(graceful=graceful)
        thread.join(timeout)
        if thread.is_alive():
            raise StorageError("service failed to stop within timeout")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
