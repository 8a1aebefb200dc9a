"""The asyncio quantile-sketch server.

One process, one event loop, ``n_shards`` batching domains.  Connection
handlers decode frames and translate them into registry operations; they
never touch sketch internals.  The ingest path is::

    frame in -> validate batch -> journal append (WAL) -> enqueue on the
    metric's shard -> ack           (sketch not yet updated)

    shard flusher (one task per shard) -> drains the queue through
    SketchBank.extend_pairs          (vectorised, batched across
                                      connections and metrics)

The receive path is zero-copy and coalescing: each scheduling slot of a
connection handler reads one large chunk off the stream, parses *every*
complete frame in it, and dispatches them back to back -- INGEST value
arrays are ``np.frombuffer`` views into the chunk (no per-batch copy;
the view pins the chunk until the shard flusher applies it, and engines
copy whatever they keep, so no chunk outlives its batches), and the
acks for the whole chunk are written in one ``write`` + one ``drain``.
Each frame is still dispatched individually, in order, through the same
journal/dedup/ack pipeline, so idempotency-token semantics and the
journal-order-is-apply-order invariant are untouched; only the syscall
and copy count per frame changes.  Pipelined INGESTs that share a chunk
land in the shard queue together and are applied by one
``apply_shard`` call.

Because handlers run on one loop, every mutation is serial: the journal
order *is* the apply order, queries never observe a half-applied batch,
and snapshots capture a consistent image by draining the shard queues
first.  Queries flush the owning shard's queue synchronously before
answering, so a client always reads its own acknowledged writes.

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
  payload: past the limit the handler drains the shards synchronously
  before reading more frames, so a fast producer cannot balloon the
  pending queues;
* a graceful stop (``SIGTERM`` under ``repro serve``) drains: the
  listener closes, connections finish their in-flight frame and are
  then shut, every queued batch is applied, a final snapshot is written
  and the journal is closed -- nothing new is acknowledged once the
  drain begins.

:class:`ServerThread` embeds the whole server in a background thread for
tests, examples and benchmarks; ``repro serve`` runs it in the
foreground.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from ..core.errors import ReproError, StorageError
from ..obs import hooks as obs_hooks
from ..obs.exposition import render_prometheus
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
    read_journal,
)
from .metrics import RecentRate, stats_view
from .registry import SketchRegistry
from .rules import RuleSet
from .snapshot import read_snapshot, write_snapshot

__all__ = ["QuantileService", "ServerThread"]

SNAPSHOT_FILE = "snapshot.bin"
JOURNAL_FILE = "journal.log"

#: how much a connection handler tries to slurp per scheduling slot; the
#: whole chunk is parsed and dispatched as one coalesced batch
READ_CHUNK = 4 * 1024 * 1024

#: kernel receive buffer requested per accepted connection.  While the
#: flusher applies a coalesced batch the event loop performs no reads,
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
        Period of the automatic snapshot task (``None`` = only explicit
        ``SNAPSHOT`` commands and graceful shutdown snapshot).
    fsync:
        Journal durability mode -- ``False`` flushes (survives process
        kill), ``True`` fsyncs every batch (survives power loss).
    batch_window_s:
        How long a shard flusher waits after waking before draining its
        queue; ``0`` still batches everything enqueued in the same event
        loop iteration.
    max_inflight_bytes:
        Per-connection backpressure bound: once a connection has this
        many bytes of ingest payload queued but not yet applied, the
        handler drains the shards synchronously before reading the next
        frame.
    drain_grace_s:
        How long a graceful stop waits for open connections to finish
        their in-flight frame before forcibly closing them.
    clock:
        Event-time source (``() -> float`` seconds) used to stamp
        ingests into windowed metrics and to drive WATCH evaluation.
        ``None`` means ``time.time``.  Tests inject a synthetic clock
        here to make window expiry and alert firing deterministic.
    watch_interval_s:
        Period of the WATCH scheduler task (``None`` or ``0`` disables
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
        self._server: Optional[asyncio.base_events.Server] = None
        self._shard_events: List[asyncio.Event] = []
        self._tasks: List[asyncio.Task] = []
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._draining = False
        self._stopped = False

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
        snapshot_path = self.snapshot_path
        if snapshot_path and os.path.exists(snapshot_path):
            seq = read_snapshot(snapshot_path, self.registry, self.rules)
        journal_path = self.journal_path
        assert journal_path is not None
        replayed = 0
        if os.path.exists(journal_path):
            scan = read_journal(journal_path)
            for rec in scan.records:
                if rec.seq <= seq:
                    continue  # already inside the snapshot
                if rec.type == CREATE_RECORD:
                    self.registry.create(rec.name, rec.config)
                    self.registry.dedup.record(rec.token, {"created": True})
                elif rec.type == INGEST_AT_RECORD:
                    assert rec.values is not None
                    # replay at the *journaled* event time, not the
                    # recovery wall clock: ring placement is a pure
                    # function of (values, t), so the rebuilt window is
                    # bit-identical to the pre-crash one
                    self.registry.ingest_at(rec.name, rec.values, rec.t)
                    self.registry.dedup.record(
                        rec.token,
                        {"seq": rec.seq, "count": int(rec.values.size)},
                    )
                elif rec.type == WATCH_RECORD:
                    added = self.rules.add(
                        rec.name, rec.metric, rec.phi, rec.rule_op,
                        rec.threshold,
                    )
                    self.registry.dedup.record(rec.token, {"added": added})
                elif rec.type == UNWATCH_RECORD:
                    removed = self.rules.remove(rec.name)
                    self.registry.dedup.record(
                        rec.token, {"removed": removed}
                    )
                elif rec.type == INGEST_RECORD:
                    assert rec.values is not None
                    self.registry.ingest(rec.name, rec.values)
                    # re-arm the dedup window: a client that lost its ack
                    # to the crash may retry this very batch
                    self.registry.dedup.record(
                        rec.token,
                        {"seq": rec.seq, "count": int(rec.values.size)},
                    )
                elif rec.type == RESTORE_RECORD:
                    # a full-state install subsumes every earlier record
                    # for the metric: replaying them first and replacing
                    # wholesale here reproduces the live apply order
                    replaced = self.registry.install_serialized(
                        rec.name, rec.config, rec.payload
                    )
                    self.registry.dedup.record(
                        rec.token, {"replaced": replaced, "seq": rec.seq}
                    )
                replayed += 1
        self._m.journal_records_recovered.inc(replayed)
        # opening the journal truncates any torn tail and resumes the
        # sequence after the last surviving record
        self.journal = IngestJournal(
            journal_path, start_seq=seq, fsync=self.fsync
        )

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Recover, bind the socket and launch the background tasks."""
        if self.observability:
            # turn on core instrumentation into this server's registry so
            # STATS can report per-level collapse counts and the live
            # certified bound per metric
            obs_hooks.enable(registry=self.metrics)
        if self.data_dir is not None:
            self._recover()
        self._shard_events = [asyncio.Event() for _ in range(self.n_shards)]
        for i in range(self.n_shards):
            self._tasks.append(
                asyncio.create_task(self._shard_flusher(i))
            )
        if self.data_dir is not None and self.snapshot_interval_s:
            self._tasks.append(asyncio.create_task(self._snapshotter()))
        if self.watch_interval_s:
            self._tasks.append(asyncio.create_task(self._watcher()))
        # a large stream buffer lets one scheduling slot of the reader
        # task slurp many pipelined ingest frames, so the shard flusher
        # sees them as a single vectorized super-batch (the default 64 KiB
        # limit caps that at two 4096-value batches per slot)
        if self.path is not None:
            if os.path.exists(self.path):
                os.unlink(self.path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.path,
                limit=8 * 1024 * 1024,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port,
                limit=8 * 1024 * 1024,
            )
            self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, *, graceful: bool = True) -> None:
        """Shut down.

        ``graceful=True`` drains: stop accepting connections, let every
        open connection finish the frame it is processing (bounded by
        ``drain_grace_s``; nothing new is acknowledged once the drain
        begins), apply all queued batches, write a final snapshot (when
        durable) and close the journal.  ``graceful=False`` skips all of
        that -- the in-process equivalent of ``SIGKILL``, used by the
        crash-recovery tests: whatever the journal already holds is what
        recovery gets.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass
        if graceful and self._conn_tasks:
            # handlers notice _draining after answering their in-flight
            # frame and close; idle connections sit in read() and are
            # cancelled after the grace window
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.drain_grace_s
            while self._conn_tasks and loop.time() < deadline:
                await asyncio.sleep(0.01)
        for task in list(self._conn_tasks) + self._tasks:
            task.cancel()
        for task in list(self._conn_tasks) + self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        if graceful:
            self.registry.apply_all()
            if self.data_dir is not None and self.journal is not None:
                self._write_snapshot()
                self.journal.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- background tasks --------------------------------------------------

    async def _shard_flusher(self, shard: int) -> None:
        event = self._shard_events[shard]
        while True:
            await event.wait()
            event.clear()
            # let every connection with buffered frames enqueue first so
            # the drain below sees one large cross-connection super-batch
            if self.batch_window_s:
                await asyncio.sleep(self.batch_window_s)
            else:
                await asyncio.sleep(0)
            self.registry.apply_shard(shard)

    async def _snapshotter(self) -> None:
        assert self.snapshot_interval_s is not None
        while True:
            await asyncio.sleep(self.snapshot_interval_s)
            self._write_snapshot()

    async def _watcher(self) -> None:
        """The WATCH scheduler: evaluate every rule each tick.

        Sleeps on the *event loop* clock but evaluates at the *injected*
        clock, so tests drive alert timing by advancing the synthetic
        clock between (real, short) ticks.  Runs on the loop like every
        request handler, so an evaluation never observes a half-applied
        batch.
        """
        assert self.watch_interval_s
        while True:
            await asyncio.sleep(self.watch_interval_s)
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

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, SOCK_RCVBUF
                )
            except OSError:  # pragma: no cover - platform-dependent cap
                pass
        m = self._m
        m.connections_total.inc()
        m.connections_open.inc()
        inflight_bytes = 0  # queued-but-unapplied ingest payload
        tail = b""  # partial frame carried across read chunks
        try:
            while not self._draining:
                try:
                    chunk = await reader.read(READ_CHUNK)
                except ConnectionError:
                    break
                if not chunk:
                    break
                # joining only costs when a frame straddled the previous
                # chunk, and then only the straddle region is re-copied
                data = tail + chunk if tail else chunk
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
                    # zero-copy dispatch: the payload -- and, for
                    # INGEST, its value array -- is a view into `data`
                    payload = memoryview(data)[pos + 4 : pos + 4 + length]
                    pos += 4 + length
                    if length and payload[0] == protocol.Opcode.INGEST:
                        inflight_bytes += length
                    acks.append(protocol.frame(self._dispatch(payload)))
                # a frame bigger than the read chunk can never complete
                # inside the loop above: finish it with one exact read
                if not oversize and n - pos >= 4:
                    need = (
                        4
                        + int.from_bytes(data[pos : pos + 4], "little")
                        - (n - pos)
                    )
                    if need > READ_CHUNK:
                        try:
                            rest = await reader.readexactly(need)
                        except (
                            asyncio.IncompleteReadError,
                            ConnectionError,
                        ):
                            rest = None
                        if rest is None:
                            if acks:
                                m.record_coalesce(len(acks))
                                writer.write(b"".join(acks))
                                await writer.drain()
                            break
                        whole = data[pos:] + rest
                        payload = memoryview(whole)[4:]
                        if len(payload) and (
                            payload[0] == protocol.Opcode.INGEST
                        ):
                            inflight_bytes += len(payload)
                        acks.append(protocol.frame(self._dispatch(payload)))
                        pos = n
                tail = data[pos:] if pos < n else b""
                if acks:
                    m.record_coalesce(len(acks))
                    writer.write(b"".join(acks))
                    await writer.drain()
                if oversize:
                    break
                if inflight_bytes >= self.max_inflight_bytes:
                    # backpressure: this connection has pushed more
                    # pending payload than allowed -- apply it before
                    # reading (and thereby acking) anything further
                    if self.registry.pending_batches():
                        self.registry.apply_all()
                        m.backpressure_flushes.inc()
                    inflight_bytes = 0
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            m.connections_open.inc(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _dispatch(self, payload: bytes) -> bytes:
        try:
            req = protocol.decode_request(payload)
            return protocol.encode_ok(req.opcode, self._execute(req))
        except ReproError as exc:
            return protocol.encode_error(str(exc))
        except Exception as exc:  # noqa: BLE001 - a bug must not kill
            # the connection: an unhandled error here would close the
            # socket mid-stream, which a resilient client reads as a
            # transport fault and retries forever against the same bug
            return protocol.encode_error(f"internal error: {exc!r}")

    def _execute(self, req: protocol.Request) -> Dict[str, Any]:
        """Run one request, self-metering its wall time per opcode.

        Every opcode -- not just queries -- lands in its
        ``service.op_latency_ms{op}`` sketch, so STATS reports p50/p90/p99
        latency per operation with a certified rank bound.
        """
        start = time.perf_counter()
        try:
            return self._execute_op(req)
        finally:
            self._m.op_latency[req.opcode].observe(
                (time.perf_counter() - start) * 1000.0
            )

    def uptime_s(self) -> float:
        """Seconds since this server was constructed."""
        return time.monotonic() - self._t0

    def _record_query(self, start: float) -> None:
        self._m.queries.inc()
        self._m.query_latency.observe((time.perf_counter() - start) * 1000.0)

    def _execute_op(self, req: protocol.Request) -> Dict[str, Any]:
        op = req.opcode
        if op == protocol.Opcode.INGEST:
            return self._do_ingest(req)
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
        if op == protocol.Opcode.CREATE:
            if req.token:
                hit = self.registry.dedup.get(req.token)
                if hit is not None:
                    return hit
            _entry, created = self.registry.create(req.name, req.config)
            if created and self.journal is not None:
                self.journal.append_create(req.name, req.config, req.token)
            result = {"created": created}
            self.registry.dedup.record(req.token, result)
            return result
        if op == protocol.Opcode.LIST:
            return {"metrics": self.registry.describe_metrics()}
        if op == protocol.Opcode.FETCH:
            self.registry.apply_shard(self.registry.get(req.name).shard)
            return {"payload": self.registry.fetch_serialized(req.name)}
        if op == protocol.Opcode.SYNCPULL:
            return self._do_syncpull(req)
        if op == protocol.Opcode.RESTORE:
            return self._do_restore(req)
        if op == protocol.Opcode.SNAPSHOT:
            if self.journal is None:
                raise StorageError(
                    "durability is disabled (server started without "
                    "--data-dir); nothing to snapshot"
                )
            if req.token:
                hit = self.registry.dedup.get(req.token)
                if hit is not None:
                    return hit
            path = self._write_snapshot()
            result = {"seq": self.journal.seq, "path": path}
            self.registry.dedup.record(req.token, result)
            return result
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
        if op == protocol.Opcode.WATCH:
            if req.token:
                hit = self.registry.dedup.get(req.token)
                if hit is not None:
                    return hit
            added = self.rules.add(
                req.name, req.metric, req.phi, req.rule_op, req.threshold
            )
            if added and self.journal is not None:
                self.journal.append_watch(
                    req.name, req.metric, req.phi, req.rule_op,
                    req.threshold, token=req.token,
                )
            result = {"added": added}
            self.registry.dedup.record(req.token, result)
            return result
        if op == protocol.Opcode.UNWATCH:
            if req.token:
                hit = self.registry.dedup.get(req.token)
                if hit is not None:
                    return hit
            removed = self.rules.remove(req.name)
            if removed and self.journal is not None:
                self.journal.append_unwatch(req.name, token=req.token)
            result = {"removed": removed}
            self.registry.dedup.record(req.token, result)
            return result
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
        rotation discarded it, or a RESTORE record sits inside it): the
        caller must discard its partial state and install the full
        payload instead.
        """
        entry = self.registry.get(req.name)
        self.registry.apply_shard(entry.shard)
        payload = self.registry.fetch_serialized(req.name)
        seq_now = self.journal.seq if self.journal is not None else 0
        rebase = False
        records: List[Any] = []
        if req.after_seq:
            journal_path = self.journal_path
            if (
                self.journal is None
                or journal_path is None
                or not os.path.exists(journal_path)
                or self.journal.start_seq > req.after_seq
                or req.after_seq > seq_now
            ):
                rebase = True
            else:
                # safe mid-serve: one request runs per event-loop slot,
                # and appends flush whole records, so the file holds a
                # valid prefix ending at seq_now
                scan = read_journal(journal_path)
                for rec in scan.records:
                    if rec.name != req.name or rec.seq <= req.after_seq:
                        continue
                    if rec.type == RESTORE_RECORD:
                        # the tail is not pure deltas: this donor was
                        # itself re-synced past the caller's position
                        rebase = True
                        records = []
                        break
                    if rec.type == INGEST_AT_RECORD:
                        # plain SYNCPULL records carry no event times;
                        # replaying a windowed batch without its stamp
                        # would place it in the wrong bucket.  Full
                        # payload install is always correct.
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

    def _do_restore(self, req: protocol.Request) -> Dict[str, Any]:
        """Install a metric's full state from a donor payload."""
        if req.token:
            hit = self.registry.dedup.get(req.token)
            if hit is not None:
                return hit
        # flush pending batches first so the live path matches recovery
        # replay: records journaled before this RESTORE are applied and
        # then subsumed wholesale by the install
        self.registry.apply_all()
        replaced = self.registry.install_serialized(
            req.name, req.config, req.payload
        )
        if self.journal is not None:
            seq = self.journal.append_restore(
                req.name, req.config, req.payload, req.token
            )
        else:
            seq = 0
        result = {"replaced": replaced, "seq": seq}
        self.registry.dedup.record(req.token, result)
        return result

    def _do_ingest(self, req: protocol.Request) -> Dict[str, Any]:
        assert req.values is not None
        if req.token:
            hit = self.registry.dedup.get(req.token)
            if hit is not None:
                # a retry of a batch whose ack was lost: replay the
                # recorded ack, apply nothing (exactly-once)
                return hit
        entry = self.registry.get(req.name)  # unknown metric -> error frame
        arr = self.registry.coerce_batch(req.values)
        if arr.size == 0:
            result = {
                "seq": self.journal.seq if self.journal else 0,
                "count": 0,
            }
            self.registry.dedup.record(req.token, result)
            return result
        if entry.windowed:
            # stamp the arrival time once, here, and journal it with the
            # batch: ring placement is then a pure function of the
            # journal, so crash replay rebuilds the same window
            t = float(self._clock())
            if self.journal is not None:
                seq = self.journal.append_ingest_at(
                    req.name, arr, t, token=req.token
                )
            else:
                seq = 0
            self.registry.enqueue_at(req.name, arr, t, validated=True)
        else:
            if self.journal is not None:
                seq = self.journal.append_ingest(
                    req.name, arr, token=req.token
                )
            else:
                seq = 0
            self.registry.enqueue(req.name, arr, validated=True)
        m = self._m
        m.ingest_batches[entry.shard].inc()
        m.ingest_elements[entry.shard].inc(arr.size)
        m.batch_size.observe(arr.size)
        self._recent.add(arr.size)
        self._shard_events[entry.shard].set()
        result = {"seq": seq, "count": int(arr.size)}
        self.registry.dedup.record(req.token, result)
        return result


class ServerThread:
    """A :class:`QuantileService` running on a background event loop.

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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def path(self) -> Optional[str]:
        return self.service.path

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise StorageError("service failed to start within timeout")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def stop(self, *, graceful: bool = True, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(graceful=graceful), loop
        )
        try:
            future.result(timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
