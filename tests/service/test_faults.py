"""The fault-injection harness and the resilience it exercises.

Three layers of coverage:

* the harness itself -- schedules are deterministic, the transparent
  proxy is invisible, each fault kind does what it says;
* the client -- retries connection faults with backoff, maps stalls to
  :class:`ServiceTimeoutError`, refuses unsafe retries with
  ``idempotency=False``;
* the server -- idempotency tokens dedup retried mutations exactly
  once (the lost-ack scenario, end to end through the proxy),
  per-connection backpressure flushes queued batches, graceful drain
  applies everything and leaves a recoverable image.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.service import (
    ChaosProxy,
    FaultEvent,
    FaultSchedule,
    QuantileClient,
    ServerThread,
    ServiceConnectionError,
    ServiceTimeoutError,
)
from repro.service.journal import INGEST_RECORD, read_journal
from repro.service.registry import DedupWindow


@pytest.fixture
def server(tmp_path):
    with ServerThread(
        data_dir=str(tmp_path / "data"), n_shards=2,
        snapshot_interval_s=None,
    ) as srv:
        yield srv


def resilient_client(port, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("max_retries", 6)
    kwargs.setdefault("backoff_base", 0.005)
    kwargs.setdefault("retry_seed", 7)
    return QuantileClient("127.0.0.1", port, **kwargs)


# -- the harness itself ----------------------------------------------------


class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError, match="kind"):
            FaultEvent("explode", "c2s", after_bytes=0)
        with pytest.raises(ConfigurationError, match="direction"):
            FaultEvent("reset", "upstream", after_bytes=0)
        with pytest.raises(ConfigurationError, match="after_bytes"):
            FaultEvent("reset", "c2s", after_bytes=-1)
        with pytest.raises(ConfigurationError, match="delay_s"):
            FaultEvent("delay", "c2s", after_bytes=0, delay_s=-0.1)

    def test_explicit_plans_then_transparent(self):
        ev = FaultEvent("reset", "c2s", after_bytes=10)
        schedule = FaultSchedule([[ev], []])
        assert schedule.plan_for(0) == (ev,)
        assert schedule.plan_for(1) == ()
        assert schedule.plan_for(2) == ()  # beyond the list: transparent
        assert schedule.plan_for(10**6) == ()

    def test_seeded_schedule_is_deterministic(self):
        a = FaultSchedule.from_seed(42)
        b = FaultSchedule.from_seed(42)
        plans_a = [a.plan_for(i) for i in range(64)]
        plans_b = [b.plan_for(i) for i in range(64)]
        assert plans_a == plans_b
        # re-querying the same index is stable too
        assert a.plan_for(3) == a.plan_for(3)
        # a different seed diverges somewhere in 64 connections
        c = FaultSchedule.from_seed(43)
        assert plans_a != [c.plan_for(i) for i in range(64)]

    def test_seeded_schedule_injects_something(self):
        from repro.service.faults import FAULT_KINDS

        schedule = FaultSchedule.from_seed(0, fault_probability=0.5)
        events = [
            e for i in range(64) for e in schedule.plan_for(i)
        ]
        assert events  # probability 0.5 over 128 draws
        assert all(e.kind in FAULT_KINDS for e in events)

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultSchedule.from_seed(0, fault_probability=1.5)


class TestProxyTransparent:
    def test_stop_returns_at_once(self, server):
        # stop() must wake the thread blocked in accept(), not wait out
        # the join timeout
        proxy = ChaosProxy("127.0.0.1", server.port).start()
        with resilient_client(proxy.port) as client:
            client.create("t/m", kind="adaptive", eps=0.02)
        t0 = time.monotonic()
        proxy.stop()
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"stop took {elapsed:.2f} s"
        assert not proxy._accept_thread.is_alive()

    def test_passthrough_end_to_end(self, server):
        with ChaosProxy("127.0.0.1", server.port) as proxy:
            with resilient_client(proxy.port) as client:
                client.create("t/m", kind="adaptive", eps=0.02)
                client.ingest("t/m", np.arange(1000.0))
                values, bound, n = client.query("t/m", [0.5])
            assert n == 1000
            assert abs(values[0] - 500) <= max(bound, 20)
            assert client.retries_total == 0
            assert proxy.connections_accepted == 1
            assert proxy.faults_injected == []

    def test_partial_fault_only_slows_things(self, server):
        # chop every server->client byte: many partial reads, same answer
        schedule = FaultSchedule(
            [[FaultEvent("partial", "s2c", after_bytes=0, chop=1)]]
        )
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            with resilient_client(proxy.port) as client:
                client.create("t/m", kind="adaptive", eps=0.02)
                client.ingest("t/m", np.arange(100.0))
                _, _, n = client.query("t/m", [0.5])
            assert n == 100
            assert client.retries_total == 0
            assert [e.kind for _, e in proxy.faults_injected] == ["partial"]

    def test_delay_fault_adds_latency(self, server):
        schedule = FaultSchedule(
            [[FaultEvent("delay", "s2c", after_bytes=0, delay_s=0.2)]]
        )
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            with resilient_client(proxy.port) as client:
                start = time.monotonic()
                client.create("t/m", kind="adaptive")
                elapsed = time.monotonic() - start
            assert elapsed >= 0.2
            assert client.retries_total == 0


# -- client resilience -----------------------------------------------------


class TestClientRetry:
    def test_lost_ack_retries_and_dedups(self, server, tmp_path):
        """The canonical scenario: INGEST applied, ack destroyed.

        Connection 0 resets the server->client direction before the
        first ack byte, i.e. *after* the server journaled and applied
        the batch.  The client must reconnect, resend the same token,
        and the dedup window must replay the ack without applying the
        batch a second time.
        """
        schedule = FaultSchedule(
            [[FaultEvent("reset", "s2c", after_bytes=0)]]
        )
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            # metric created out of band so the faulted request is INGEST
            with QuantileClient("127.0.0.1", server.port) as direct:
                direct.create("t/m", kind="adaptive", eps=0.02)
            with resilient_client(proxy.port) as client:
                seq = client.ingest("t/m", np.arange(1000.0))
                assert seq >= 1
                assert client.retries_total >= 1
                _, _, n = client.query("t/m", [0.5])
            assert n == 1000  # exactly once, not 2000
            assert [e.kind for _, e in proxy.faults_injected] == ["reset"]
        # the journal holds the batch exactly once
        scan = read_journal(str(tmp_path / "data" / "journal.log"))
        ingests = [r for r in scan.records if r.type == INGEST_RECORD]
        assert len(ingests) == 1
        assert ingests[0].token != 0
        # and the server counted the dedup hit
        with QuantileClient("127.0.0.1", server.port) as direct:
            stats = direct.stats()
        assert stats["resilience"]["dedup_hits"] >= 1
        assert stats["resilience"]["dedup_window_tokens"] >= 1

    def test_request_torn_mid_send_retries(self, server):
        # kill the client->server direction 5 bytes into the stream: the
        # server never sees a full frame, nothing is applied, the retry
        # is the only application
        schedule = FaultSchedule(
            [[FaultEvent("reset", "c2s", after_bytes=5)]]
        )
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            with resilient_client(proxy.port) as client:
                client.create("t/m", kind="adaptive", eps=0.02)
                client.ingest("t/m", np.arange(500.0))
                _, _, n = client.query("t/m", [0.5])
            assert n == 500
            assert client.retries_total >= 1

    def test_truncated_response_is_a_connection_fault(self, server):
        # close (FIN, not RST) mid-ack: the client reader's mid-frame
        # close is mapped to ServiceConnectionError internally and retried
        schedule = FaultSchedule(
            [[FaultEvent("truncate", "s2c", after_bytes=2)]]
        )
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            with resilient_client(proxy.port) as client:
                assert client.create("t/m", kind="adaptive") in (True, False)
                assert client.retries_total >= 1

    def test_create_retry_replays_created_true(self, server):
        """A CREATE whose ack is lost must report created=True on retry.

        Without the dedup window the retried CREATE would find the
        metric existing and report created=False -- a lie the journal
        token makes unnecessary.
        """
        schedule = FaultSchedule(
            [[FaultEvent("reset", "s2c", after_bytes=0)]]
        )
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            with resilient_client(proxy.port) as client:
                assert client.create("t/m", kind="adaptive") is True
                assert client.retries_total >= 1
                assert len(client.list_metrics()) == 1

    def test_retry_budget_exhaustion_raises_typed_error(self, server):
        # every connection resets immediately: retries can never succeed
        schedule = FaultSchedule(
            [[FaultEvent("reset", "s2c", after_bytes=0)]] * 64
        )
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            client = resilient_client(proxy.port, max_retries=2)
            with pytest.raises(ServiceConnectionError):
                client.create("t/m", kind="adaptive")
            assert client.retries_total >= 2
            client._teardown()

    def test_stall_maps_to_timeout_error(self, server):
        schedule = FaultSchedule(
            [[FaultEvent("stall", "s2c", after_bytes=0, delay_s=30.0)]]
        )
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            client = resilient_client(proxy.port, timeout=0.3)
            start = time.monotonic()
            with pytest.raises(ServiceTimeoutError):
                client.create("t/m", kind="adaptive")
            assert time.monotonic() - start < 5.0
            client._teardown()

    def test_timeout_is_per_request_not_connect_only(self):
        """A server that accepts but never answers must trip the deadline."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        accepted = []

        def _accept_forever():
            try:
                while True:
                    conn, _ = listener.accept()
                    accepted.append(conn)  # keep open, never respond
            except OSError:
                pass

        thread = threading.Thread(target=_accept_forever, daemon=True)
        thread.start()
        try:
            client = QuantileClient(
                "127.0.0.1", listener.getsockname()[1],
                timeout=0.3, max_retries=0,
            )
            with pytest.raises(ServiceTimeoutError):
                client.list_metrics()
            client._teardown()
        finally:
            listener.close()
            for conn in accepted:
                conn.close()
            thread.join(timeout=2.0)

    def test_connection_refused_is_typed(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nobody listens here any more
        with pytest.raises(ServiceConnectionError):
            QuantileClient("127.0.0.1", port, timeout=0.5)

    def test_idempotency_off_refuses_unsafe_retry(self, server):
        schedule = FaultSchedule(
            [[FaultEvent("reset", "s2c", after_bytes=0)]]
        )
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            with QuantileClient("127.0.0.1", server.port) as direct:
                direct.create("t/m", kind="adaptive")
            client = resilient_client(proxy.port, idempotency=False)
            # a mutating request without a token must NOT be blindly
            # resent -- the server may already have applied it
            with pytest.raises(ServiceConnectionError):
                client.ingest("t/m", np.arange(100.0))
            client._teardown()
        with QuantileClient("127.0.0.1", server.port) as direct:
            _, _, n = direct.query("t/m", [0.5])
        assert n in (0, 100)  # whatever happened, it happened at most once

    def test_idempotency_off_still_retries_reads(self, server):
        schedule = FaultSchedule(
            [[FaultEvent("reset", "s2c", after_bytes=0)]]
        )
        with QuantileClient("127.0.0.1", server.port) as direct:
            direct.create("t/m", kind="adaptive")
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            with resilient_client(proxy.port, idempotency=False) as client:
                # LIST is not mutating: a blind resend is always safe
                assert client.list_metrics()[0]["name"] == "t/m"
                assert client.retries_total >= 1

    def test_pipelined_window_resent_after_reset(self, server):
        schedule = FaultSchedule(
            [[FaultEvent("reset", "s2c", after_bytes=0)]]
        )
        with ChaosProxy(
            "127.0.0.1", server.port, schedule=schedule
        ) as proxy:
            with QuantileClient("127.0.0.1", server.port) as direct:
                direct.create("t/m", kind="adaptive", eps=0.02)
            with resilient_client(proxy.port) as client:
                for i in range(8):
                    client.ingest_nowait(
                        "t/m", np.arange(i * 100.0, (i + 1) * 100.0)
                    )
                client.flush()
                assert client.outstanding == 0
                _, _, n = client.query("t/m", [0.5])
            assert n == 800  # every batch exactly once


class TestDedupWindow:
    def test_record_and_replay(self):
        window = DedupWindow(capacity=4)
        assert window.get(1) is None
        window.record(1, {"seq": 10})
        assert window.get(1) == {"seq": 10}
        assert window.hits == 1
        assert 1 in window

    def test_token_zero_is_never_recorded(self):
        window = DedupWindow()
        window.record(0, {"seq": 1})
        assert len(window) == 0
        assert window.get(0) is None

    def test_fifo_eviction(self):
        window = DedupWindow(capacity=2)
        window.record(1, "a")
        window.record(2, "b")
        window.record(3, "c")
        assert len(window) == 2
        assert window.get(1) is None  # oldest evicted
        assert window.get(2) == "b"
        assert window.get(3) == "c"


# -- server resilience -----------------------------------------------------


class TestServerResilience:
    def test_backpressure_flushes_queued_batches(self, tmp_path):
        with ServerThread(
            data_dir=str(tmp_path / "data"), n_shards=2,
            snapshot_interval_s=None,
            max_inflight_bytes=4096,  # a few hundred values
        ) as srv:
            with resilient_client(srv.port) as client:
                client.create("t/m", kind="adaptive", eps=0.02)
                for i in range(64):
                    client.ingest("t/m", np.arange(256.0))
                stats = client.stats()
            assert stats["resilience"]["backpressure_flushes"] >= 1

    def test_graceful_stop_drains_and_recovers(self, tmp_path):
        data_dir = str(tmp_path / "data")
        with ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
        ) as srv:
            with resilient_client(srv.port) as client:
                client.create("t/m", kind="adaptive", eps=0.02)
                for i in range(8):
                    client.ingest_nowait(
                        "t/m", np.arange(i * 100.0, (i + 1) * 100.0)
                    )
                client.flush()
            srv.stop(graceful=True)
            with pytest.raises(ServiceConnectionError):
                # listener is gone after the drain
                QuantileClient(
                    "127.0.0.1", srv.port, timeout=0.5, max_retries=0
                )
        # graceful stop wrote a final snapshot: restart answers identically
        with ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
        ) as srv2:
            assert srv2.service.metrics.value(
                "service.journal_records_recovered"
            ) == 0  # all in snap
            with resilient_client(srv2.port) as client:
                _, _, n = client.query("t/m", [0.5])
            assert n == 800

    def test_graceful_stop_flushes_coalesced_window(self, tmp_path):
        """Regression: a long ``batch_window_s`` means acked batches sit
        queued-but-unapplied; a graceful stop racing that window must
        still apply every acknowledged batch before the final snapshot
        -- acked count == applied count after restart, with nothing
        left for journal replay."""
        data_dir = str(tmp_path / "data")
        n_batches, batch = 24, 256
        with ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
            batch_window_s=5.0,  # flusher will NOT fire on its own
        ) as srv:
            with resilient_client(
                srv.port, send_coalesce_bytes=64 * 1024
            ) as client:
                client.create("t/m", kind="adaptive", eps=0.02)
                for i in range(n_batches):
                    client.ingest_nowait("t/m", np.full(batch, float(i)))
                client.flush()  # every batch ACKED (journaled + queued)
            # the stop races the 5 s window: the queue still holds the
            # coalesced burst, unapplied
            assert srv.service.registry.pending_batches() > 0
            srv.stop(graceful=True)
            # drain applied the queue before snapshotting
            assert srv.service.registry.pending_batches() == 0
        with ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
        ) as srv2:
            # all acked data is inside the snapshot, none replayed
            assert srv2.service.metrics.value(
                "service.journal_records_recovered"
            ) == 0
            with resilient_client(srv2.port) as client:
                _, _, n = client.query("t/m", [0.5])
            assert n == n_batches * batch

    def test_retried_ingest_in_coalesced_batch_exactly_once_after_crash(
        self, tmp_path
    ):
        """A lost-ack retry that lands inside a *coalesced* chunk (same
        socket read as other pipelined frames) is journaled once,
        applied once, and stays applied-once through crash recovery."""
        import socket as socket_mod

        from repro.service import protocol
        from repro.service.protocol import MetricConfig, Opcode, Request

        data_dir = str(tmp_path / "data")
        create = protocol.encode_request_framed(
            Request(
                opcode=Opcode.CREATE, name="t/m", token=1,
                config=MetricConfig(kind="adaptive", epsilon=0.02),
            )
        )
        retried = bytes(
            protocol.encode_ingest_framed("t/m", np.arange(200.0), token=9)
        )
        others = [
            bytes(
                protocol.encode_ingest_framed(
                    "t/m", np.full(100, float(i)), token=20 + i
                )
            )
            for i in range(4)
        ]
        # one chunk: original, two pipelined frames, the retry of the
        # original, two more -- the dup sits mid-burst, then a second
        # retry arrives across chunks after the acks
        blob = bytes(create) + retried + others[0] + others[1] + retried
        with ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
        ) as srv:
            sock = socket_mod.create_connection(
                ("127.0.0.1", srv.port), timeout=10.0
            )
            try:
                sock.sendall(blob)
                acks = []
                for opcode in [Opcode.CREATE] + [Opcode.INGEST] * 4:
                    header = b""
                    while len(header) < 4:
                        header += sock.recv(4 - len(header))
                    length = int.from_bytes(header, "little")
                    payload = b""
                    while len(payload) < length:
                        payload += sock.recv(length - len(payload))
                    acks.append(protocol.decode_response(opcode, payload))
                # dup inside the chunk acked identically to the original
                assert acks[1] == acks[4]
                sock.sendall(others[2] + others[3] + retried)
                for _ in range(3):
                    header = b""
                    while len(header) < 4:
                        header += sock.recv(4 - len(header))
                    length = int.from_bytes(header, "little")
                    payload = b""
                    while len(payload) < length:
                        payload += sock.recv(length - len(payload))
            finally:
                sock.close()
            srv.stop(graceful=False)  # crash: RAM dedup state gone
        # the journal holds the batch once, not three times
        scan = read_journal(f"{data_dir}/journal.log")
        ingests = [r for r in scan.records if r.type == INGEST_RECORD]
        assert sum(1 for r in ingests if r.token == 9) == 1
        with ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
        ) as srv2:
            # recovery re-armed the token: a post-restart retry dedups
            assert srv2.service.registry.dedup.get(9) is not None
            with resilient_client(srv2.port) as client:
                _, _, n = client.query("t/m", [0.5])
            assert n == 200 + 4 * 100

    def test_dedup_window_survives_crash(self, tmp_path):
        """Recovery re-records journaled tokens: a retry that arrives
        *after* a crash+restart is still deduplicated."""
        data_dir = str(tmp_path / "data")
        with ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
        ) as srv:
            with resilient_client(srv.port) as client:
                client.create("t/m", kind="adaptive", eps=0.02)
                client.ingest("t/m", np.arange(1000.0))
            srv.stop(graceful=False)  # crash: dedup RAM state gone
        scan = read_journal(f"{data_dir}/journal.log")
        token = next(
            r.token for r in scan.records if r.type == INGEST_RECORD
        )
        assert token != 0
        with ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
        ) as srv2:
            assert srv2.service.registry.dedup.get(token) is not None
            with resilient_client(srv2.port) as client:
                _, _, n = client.query("t/m", [0.5])
            assert n == 1000


class TestServeChaosFlag:
    def test_serve_chaos_wires_a_seeded_proxy(self, tmp_path):
        """`repro serve --chaos` fronts the listener with the proxy."""
        import os
        import pathlib
        import subprocess
        import sys

        repo_root = pathlib.Path(__file__).resolve().parents[2]
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--chaos", "--chaos-seed", "11",
                "--shards", "2", "--snapshot-interval", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
            cwd=str(repo_root),
        )
        try:
            line = proc.stdout.readline()
            assert "CHAOS seed=11" in line
        finally:
            proc.terminate()
            proc.wait(timeout=10)
