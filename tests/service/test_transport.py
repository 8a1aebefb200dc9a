"""Transport conformance: what the server's socket layer must guarantee.

These pin the observable behaviour of the receive, send and shutdown
paths, independent of how the server multiplexes its connections:

* a frame larger than one receive chunk is reassembled, acked and
  counted;
* a connection that pipelines many requests without reading its acks
  stalls only itself -- another connection is still answered -- and
  gets every ack, in order, once it reads, also when the answers
  outgrow the kernel's socket buffers;
* a graceful stop with an idle connection open returns within the
  drain grace (plus slack), and a restart recovers every acked batch;
* ``repro serve`` handles SIGTERM from the moment it prints its
  listening line: it exits 0 after writing its final snapshot.
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from repro.service import QuantileClient, ServerThread
from repro.service import protocol
from repro.service.protocol import MetricConfig, Opcode, Request
from repro.service.server import READ_CHUNK, SNAPSHOT_FILE

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def raw_connection(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def recv_exact(sock, size):
    buf = bytearray()
    while len(buf) < size:
        piece = sock.recv(size - len(buf))
        assert piece, "server closed the connection mid-frame"
        buf += piece
    return bytes(buf)


def recv_ack(sock, opcode):
    length = int.from_bytes(recv_exact(sock, 4), "little")
    return protocol.decode_response(opcode, recv_exact(sock, length))


def create_frame(name, token):
    return protocol.encode_request_framed(
        Request(
            opcode=Opcode.CREATE, name=name, token=token,
            config=MetricConfig(kind="adaptive", epsilon=0.02),
        )
    )


def test_frame_larger_than_a_read_chunk_is_acked_and_counted(tmp_path):
    values = np.random.default_rng(5).normal(size=(5 << 20) // 8)
    frame = protocol.encode_ingest_framed("t/big", values, token=7)
    assert len(frame) > READ_CHUNK
    with ServerThread(
        data_dir=str(tmp_path / "data"), n_shards=1, snapshot_interval_s=None
    ) as srv:
        sock = raw_connection(srv.port)
        try:
            sock.sendall(create_frame("t/big", token=1))
            assert recv_ack(sock, Opcode.CREATE)["created"] is True
            sock.sendall(frame)
            assert recv_ack(sock, Opcode.INGEST)["count"] == values.size
        finally:
            sock.close()
        with QuantileClient("127.0.0.1", srv.port) as client:
            assert client.describe("t/big")["n"] == values.size


def test_unread_acks_stall_only_their_own_connection(tmp_path):
    n_frames = 20_000
    blob = bytearray(create_frame("t/pipe", token=1))
    for i in range(n_frames):
        blob += protocol.encode_ingest_framed(
            "t/pipe", np.array([float(i)]), token=100 + i
        )
    with ServerThread(
        data_dir=str(tmp_path / "data"), n_shards=2, snapshot_interval_s=None
    ) as srv:
        with QuantileClient("127.0.0.1", srv.port, timeout=10.0) as other:
            other.create("t/other", kind="adaptive", eps=0.02)
            other.ingest("t/other", np.arange(100.0))
            sock = raw_connection(srv.port)
            sent = []
            sender = threading.Thread(
                target=lambda: sent.append(sock.sendall(blob)), daemon=True
            )
            try:
                sender.start()
                time.sleep(0.5)  # the pipelining side reads nothing yet
                _values, _bound, n = other.query("t/other", [0.5])
                assert n == 100
                assert recv_ack(sock, Opcode.CREATE)["created"] is True
                seqs = []
                for _ in range(n_frames):
                    ack = recv_ack(sock, Opcode.INGEST)
                    assert ack["count"] == 1
                    seqs.append(ack["seq"])
                sender.join(30.0)
                assert sent == [None]
            finally:
                sock.close()
            assert seqs == sorted(seqs) and len(set(seqs)) == n_frames
            assert other.describe("t/pipe")["n"] == n_frames


def test_answers_larger_than_the_socket_buffers_wait_for_their_reader(
    tmp_path,
):
    """About 8 MB of pipelined QUERY answers cannot all sit in kernel
    buffers: the server holds the rest until the peer reads, serves
    other connections meanwhile, and delivers every answer in order."""
    n_frames = 1000
    phis = [i / 1000 for i in range(1, 1000)]
    frame = protocol.encode_request_framed(
        Request(opcode=Opcode.QUERY, name="t/q", phis=phis)
    )
    with ServerThread(n_shards=1, snapshot_interval_s=None) as srv:
        with QuantileClient("127.0.0.1", srv.port, timeout=10.0) as other:
            other.create("t/q", kind="adaptive", eps=0.02)
            other.ingest("t/q", np.arange(1000.0))
            want = other.query("t/q", phis)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            sock.settimeout(30.0)
            sock.connect(("127.0.0.1", srv.port))
            sent = []
            sender = threading.Thread(
                target=lambda: sent.append(sock.sendall(frame * n_frames)),
                daemon=True,
            )
            try:
                sender.start()
                time.sleep(0.5)  # nothing read: the answers back up
                assert other.query("t/q", [0.5])[2] == 1000
                for _ in range(n_frames):
                    ack = recv_ack(sock, Opcode.QUERY)
                    answer = (ack["values"], ack["error_bound"], ack["n"])
                    assert answer == tuple(want)
                sender.join(30.0)
                assert sent == [None]
            finally:
                sock.close()


def test_stop_with_an_idle_connection_is_bounded_and_recovers(tmp_path):
    data_dir = str(tmp_path / "data")
    grace = 1.0
    srv = ServerThread(
        data_dir=data_dir, n_shards=2, snapshot_interval_s=None,
        drain_grace_s=grace,
    ).start()
    idle = raw_connection(srv.port)
    try:
        with QuantileClient("127.0.0.1", srv.port) as client:
            client.create("t/m", kind="adaptive", eps=0.02)
            for i in range(16):
                client.ingest_nowait("t/m", np.full(64, float(i)))
            client.flush()
        t0 = time.monotonic()
        srv.stop(graceful=True)
        assert time.monotonic() - t0 < grace + 1.0
    finally:
        idle.close()
        srv.stop()
    with ServerThread(
        data_dir=data_dir, n_shards=2, snapshot_interval_s=None
    ) as srv2:
        with QuantileClient("127.0.0.1", srv2.port) as client:
            assert client.describe("t/m")["n"] == 16 * 64


def test_serve_exits_zero_on_sigterm_after_listening(tmp_path):
    data_dir = tmp_path / "data"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--data-dir", str(data_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    try:
        assert "listening on" in proc.stdout.readline()
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, out
    assert (data_dir / SNAPSHOT_FILE).exists()
