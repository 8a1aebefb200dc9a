"""The coalesced fast path: many frames per read, one write per burst.

Server side: pipelined frames that arrive in one TCP chunk are parsed
and dispatched back to back, each acked individually, all acks shipped
in one write -- with per-request idempotency-token dedup intact even
when the duplicate sits *inside* the same coalesced chunk.  Client
side: ``send_coalesce_bytes`` defers socket writes and ships queued
frames with one scatter-gather ``sendmsg``.  Plus the ``AF_UNIX``
transport, which carries the identical wire format.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.service import QuantileClient, ServerThread
from repro.service import protocol
from repro.service.protocol import MetricConfig, Opcode, Request


@pytest.fixture
def server(tmp_path):
    with ServerThread(
        data_dir=str(tmp_path / "data"), n_shards=2,
        snapshot_interval_s=None,
    ) as srv:
        yield srv


def raw_connection(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def recv_ack(sock, opcode):
    """Read one length-prefixed response frame and decode it."""
    header = b""
    while len(header) < 4:
        header += sock.recv(4 - len(header))
    length = int.from_bytes(header, "little")
    payload = b""
    while len(payload) < length:
        payload += sock.recv(length - len(payload))
    return protocol.decode_response(opcode, payload)


def create_frame(name, token):
    return protocol.encode_request_framed(
        Request(
            opcode=Opcode.CREATE, name=name, token=token,
            config=MetricConfig(kind="adaptive", epsilon=0.02),
        )
    )


class TestServerCoalescing:
    def test_many_frames_in_one_chunk_all_acked_in_order(self, server):
        """One sendall carrying N pipelined INGESTs -> N ordered acks."""
        n_frames, batch = 32, 64
        blob = bytearray(create_frame("t/m", token=1))
        for i in range(n_frames):
            blob += protocol.encode_ingest_framed(
                "t/m", np.full(batch, float(i)), token=100 + i
            )
        sock = raw_connection(server.port)
        try:
            sock.sendall(blob)
            assert recv_ack(sock, Opcode.CREATE)["created"] is True
            seqs = []
            for _ in range(n_frames):
                ack = recv_ack(sock, Opcode.INGEST)
                assert ack["count"] == batch
                seqs.append(ack["seq"])
            # journal order is ack order: strictly increasing seqs
            assert seqs == sorted(seqs) and len(set(seqs)) == n_frames
        finally:
            sock.close()
        with QuantileClient("127.0.0.1", server.port) as client:
            _, _, n = client.query("t/m", [0.5])
            assert n == n_frames * batch
            coalescing = client.stats()["coalescing"]
        # the server observed multi-frame reads (exact split depends on
        # TCP segmentation, but the burst cannot arrive one frame per
        # read: frames outnumber reads)
        assert coalescing["frames"] >= n_frames
        assert coalescing["reads"] < coalescing["frames"]

    def test_duplicate_token_inside_one_chunk_applies_once(self, server):
        """A retry landing in the same coalesced chunk as the original
        is deduplicated, and both copies get the *same* ack."""
        values = np.arange(500.0)
        ingest = bytes(
            protocol.encode_ingest_framed("t/m", values, token=77)
        )
        sock = raw_connection(server.port)
        try:
            sock.sendall(create_frame("t/m", token=1) + ingest + ingest)
            recv_ack(sock, Opcode.CREATE)
            first = recv_ack(sock, Opcode.INGEST)
            second = recv_ack(sock, Opcode.INGEST)
            assert first == second
        finally:
            sock.close()
        with QuantileClient("127.0.0.1", server.port) as client:
            _, _, n = client.query("t/m", [0.5])
            assert n == values.size

    def test_duplicate_token_across_chunks_applies_once(self, server):
        """The classic lost-ack retry: duplicate in a later chunk."""
        values = np.arange(300.0)
        ingest = bytes(
            protocol.encode_ingest_framed("t/m", values, token=88)
        )
        sock = raw_connection(server.port)
        try:
            sock.sendall(create_frame("t/m", token=1) + ingest)
            recv_ack(sock, Opcode.CREATE)
            first = recv_ack(sock, Opcode.INGEST)
            sock.sendall(ingest)  # separate chunk, same token
            assert recv_ack(sock, Opcode.INGEST) == first
        finally:
            sock.close()
        with QuantileClient("127.0.0.1", server.port) as client:
            _, _, n = client.query("t/m", [0.5])
            assert n == values.size

    def test_frame_split_across_reads_reassembles(self, server):
        """A frame straddling the chunk boundary is carried as a tail
        and completed by the next read."""
        values = np.arange(1000.0)
        ingest = bytes(
            protocol.encode_ingest_framed("t/m", values, token=5)
        )
        sock = raw_connection(server.port)
        try:
            sock.sendall(create_frame("t/m", token=1))
            recv_ack(sock, Opcode.CREATE)
            # drip the frame in three pieces with the socket flushed
            # between them, so the server sees a partial frame per read
            for piece in (ingest[:10], ingest[10:4000], ingest[4000:]):
                sock.sendall(piece)
            ack = recv_ack(sock, Opcode.INGEST)
            assert ack["count"] == values.size
        finally:
            sock.close()


class TestClientSendCoalescing:
    def test_nowait_defers_until_threshold_then_one_burst(self, server):
        with QuantileClient(
            "127.0.0.1", server.port, send_coalesce_bytes=1024 * 1024
        ) as client:
            client.create("t/m", kind="adaptive", eps=0.02)
            for i in range(20):
                client.ingest_nowait("t/m", np.full(100, float(i)))
            # everything still queued client-side (threshold not hit)
            assert client._unsent_bytes > 0
            client.flush()  # ships the burst, waits for every ack
            assert client._unsent_bytes == 0
            _, _, n = client.query("t/m", [0.5])
            assert n == 2000

    def test_threshold_crossing_triggers_send(self, server):
        batch = np.arange(4096.0)  # ~32 KiB framed
        with QuantileClient(
            "127.0.0.1", server.port, send_coalesce_bytes=64 * 1024
        ) as client:
            client.create("t/m", kind="adaptive", eps=0.02)
            for _ in range(8):
                client.ingest_nowait("t/m", batch)
            # at least one burst crossed the 64 KiB threshold and went out
            assert client._unsent_bytes < 8 * batch.nbytes
            client.drain()
            _, _, n = client.query("t/m", [0.5])
            assert n == 8 * batch.size

    def test_sync_call_flushes_deferred_frames_first(self, server):
        """Ordering: a synchronous query never overtakes deferred
        ingests -- it reads its own queued writes."""
        with QuantileClient(
            "127.0.0.1", server.port, send_coalesce_bytes=8 * 1024 * 1024
        ) as client:
            client.create("t/m", kind="adaptive", eps=0.02)
            client.ingest_nowait("t/m", np.arange(700.0))
            _, _, n = client.query("t/m", [0.5])
            assert n == 700


class TestUnixSocketTransport:
    def test_round_trip_over_unix_socket(self, tmp_path):
        path = str(tmp_path / "svc.sock")
        with ServerThread(path=path, snapshot_interval_s=None) as srv:
            assert srv.path == path
            with QuantileClient(path=path) as client:
                client.create("t/m", kind="adaptive", eps=0.02)
                client.ingest("t/m", np.arange(2000.0))
                values, bound, n = client.query("t/m", [0.5])
                assert n == 2000
                assert abs(values[0] - 1000) <= max(bound, 0.02 * 2000)

    def test_socket_file_removed_on_stop(self, tmp_path):
        import os

        path = str(tmp_path / "svc.sock")
        srv = ServerThread(path=path, snapshot_interval_s=None).start()
        assert os.path.exists(path)
        srv.stop()
        assert not os.path.exists(path)

    def test_pipelined_coalesced_ingest_over_unix_socket(self, tmp_path):
        path = str(tmp_path / "svc.sock")
        with ServerThread(path=path, snapshot_interval_s=None) as srv:
            with QuantileClient(
                path=path, send_coalesce_bytes=128 * 1024
            ) as client:
                client.create("t/m", kind="adaptive", eps=0.02)
                for i in range(64):
                    client.ingest_nowait("t/m", np.full(512, float(i)))
                client.drain()
                _, _, n = client.query("t/m", [0.5])
                assert n == 64 * 512
