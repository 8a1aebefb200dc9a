"""Wire-protocol codec tests: round-trips, framing, malformed input."""

from __future__ import annotations

import socket
import struct

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, StorageError
from repro.service import QuantileClient, protocol
from repro.service.protocol import MetricConfig, Opcode, Request


def roundtrip(req: Request) -> Request:
    return protocol.decode_request(protocol.encode_request(req))


class TestRequestRoundtrip:
    def test_create(self):
        config = MetricConfig(
            kind="adaptive", epsilon=0.005, n=None, policy="munro-paterson"
        )
        req = Request(opcode=Opcode.CREATE, name="api/latency", config=config)
        out = roundtrip(req)
        assert (out.name, out.config) == ("api/latency", config)

    def test_create_fixed_with_n(self):
        out = roundtrip(
            Request(
                opcode=Opcode.CREATE, name="m",
                config=MetricConfig(kind="fixed", n=10**6),
            )
        )
        assert out.config.kind == "fixed"
        assert out.config.n == 10**6

    def test_ingest_preserves_values_bitwise(self):
        values = np.random.default_rng(0).normal(size=1000)
        out = roundtrip(
            Request(opcode=Opcode.INGEST, name="m", values=values)
        )
        np.testing.assert_array_equal(out.values, values)
        assert out.values.dtype == np.float64

    def test_ingest_empty_batch(self):
        out = roundtrip(
            Request(
                opcode=Opcode.INGEST,
                name="m",
                values=np.empty(0, dtype=np.float64),
            )
        )
        assert out.values.size == 0

    def test_query(self):
        out = roundtrip(
            Request(opcode=Opcode.QUERY, name="m", phis=[0.25, 0.5, 0.99])
        )
        assert out.phis == [0.25, 0.5, 0.99]

    def test_cdf(self):
        out = roundtrip(Request(opcode=Opcode.CDF, name="m", value=-1.5))
        assert out.value == -1.5

    @pytest.mark.parametrize(
        "opcode",
        [
            Opcode.LIST,
            Opcode.SNAPSHOT,
            Opcode.DRAIN,
            Opcode.STATS,
            Opcode.PING,
        ],
    )
    def test_bodyless_opcodes(self, opcode):
        assert roundtrip(Request(opcode=opcode)).opcode == opcode

    def test_fetch(self):
        out = roundtrip(Request(opcode=Opcode.FETCH, name="ns/metric"))
        assert out.name == "ns/metric"

    def test_unicode_names(self):
        out = roundtrip(Request(opcode=Opcode.FETCH, name="ns/mètric-µs"))
        assert out.name == "ns/mètric-µs"


class TestMalformedInput:
    def test_unknown_opcode(self):
        with pytest.raises(StorageError):
            protocol.decode_request(bytes([200]))

    def test_unknown_kind_on_encode(self):
        with pytest.raises(ConfigurationError):
            protocol.encode_request(
                Request(
                    opcode=Opcode.CREATE, name="m",
                    config=MetricConfig(kind="bogus"),
                )
            )

    def test_truncated_body(self):
        payload = protocol.encode_request(
            Request(opcode=Opcode.INGEST, name="m", values=np.arange(8.0))
        )
        with pytest.raises(StorageError):
            protocol.decode_request(payload[:-3])

    def test_trailing_garbage(self):
        payload = protocol.encode_request(
            Request(opcode=Opcode.CDF, name="m", value=0.0)
        )
        with pytest.raises(StorageError):
            protocol.decode_request(payload + b"\x00")

    def test_overlong_name(self):
        with pytest.raises(ConfigurationError):
            protocol.encode_request(
                Request(opcode=Opcode.FETCH, name="x" * 70000)
            )


class TestResponses:
    def test_error_frame_raises_client_side(self):
        frame = protocol.encode_error("metric 'm' does not exist")
        with pytest.raises(ConfigurationError, match="does not exist"):
            protocol.decode_response(Opcode.QUERY, frame)

    def test_query_response_roundtrip(self):
        body = protocol.encode_ok(
            Opcode.QUERY,
            {"n": 100, "error_bound": 3.0, "values": [1.0, 2.0]},
        )
        out = protocol.decode_response(Opcode.QUERY, body)
        assert out == {"n": 100, "error_bound": 3.0, "values": [1.0, 2.0]}

    def test_ingest_ack_roundtrip(self):
        body = protocol.encode_ok(Opcode.INGEST, {"seq": 7, "count": 42})
        assert protocol.decode_response(Opcode.INGEST, body) == {
            "seq": 7,
            "count": 42,
        }

    def test_ping_response_roundtrip(self):
        body = protocol.encode_ok(
            Opcode.PING,
            {
                "node_id": "node-1",
                "epoch": 3,
                "uptime_s": 12.5,
                "n_metrics": 4,
                "elements": 9001,
            },
        )
        assert protocol.decode_response(Opcode.PING, body) == {
            "node_id": "node-1",
            "epoch": 3,
            "uptime_s": 12.5,
            "n_metrics": 4,
            "elements": 9001,
        }


#: a valid STATS and a valid ALERTS response body
JSON_RESPONSES = {
    "stats": (
        Opcode.STATS,
        {"stats": {"shards": [{"id": 0, "n": 12}], "uptime_s": 1.5}},
    ),
    "alerts": (
        Opcode.ALERTS,
        {"alerts": [{"id": "r1", "state": "ok", "value": None}]},
    ),
}


def json_response(doc: bytes) -> bytes:
    """An OK response whose JSON document is the raw bytes *doc*."""
    return bytes([0]) + struct.pack("<I", len(doc)) + doc


@pytest.mark.parametrize("which", sorted(JSON_RESPONSES))
class TestJsonResponses:
    """STATS and ALERTS carry a JSON document; a hostile one decodes to
    a ``StorageError``, never to another exception."""

    def test_roundtrip_from_any_buffer(self, which):
        opcode, body = JSON_RESPONSES[which]
        raw = protocol.encode_ok(opcode, body)
        for buf in (raw, bytearray(raw), memoryview(raw)):
            assert protocol.decode_response(opcode, buf) == body

    @pytest.mark.parametrize(
        "doc",
        [b"\xff\xfe", b"{", b"[1,]", b"nul", b"1", b'"text"', b"[" * 100_000],
        ids=["utf8", "open", "comma", "word", "number", "string", "deep"],
    )
    def test_bad_document_is_storage_error(self, which, doc):
        opcode, _body = JSON_RESPONSES[which]
        with pytest.raises(StorageError):
            protocol.decode_response(opcode, json_response(doc))

    def test_wrong_top_level_type_is_storage_error(self, which):
        opcode, _body = JSON_RESPONSES[which]
        doc = b"[]" if which == "stats" else b"{}"
        with pytest.raises(StorageError, match="must be a JSON"):
            protocol.decode_response(opcode, json_response(doc))

    def test_every_truncation_is_storage_error(self, which):
        opcode, body = JSON_RESPONSES[which]
        raw = protocol.encode_ok(opcode, body)
        for cut in range(len(raw)):
            with pytest.raises(StorageError):
                protocol.decode_response(opcode, raw[:cut])

    def test_every_single_byte_mutation_decodes_or_is_storage_error(
        self, which
    ):
        opcode, body = JSON_RESPONSES[which]
        raw = protocol.encode_ok(opcode, body)
        for pos in range(len(raw)):
            # only the status byte can turn the frame into an error frame
            allowed = (StorageError, ConfigurationError)
            if pos > 0:
                allowed = StorageError
            for value in range(256):
                if value == raw[pos]:
                    continue
                mutated = raw[:pos] + bytes([value]) + raw[pos + 1 :]
                try:
                    protocol.decode_response(opcode, mutated)
                except allowed:
                    pass


class TestSyncOpcodes:
    """SYNCPULL / RESTORE: the re-sync transfer wire format."""

    def test_syncpull_request_roundtrip(self):
        out = roundtrip(
            Request(opcode=Opcode.SYNCPULL, name="ns/m", after_seq=417)
        )
        assert (out.opcode, out.name, out.after_seq) == (
            Opcode.SYNCPULL, "ns/m", 417
        )

    def test_restore_request_roundtrip_bitwise(self):
        payload = bytes(range(256)) * 3
        config = MetricConfig(
            kind="fixed", epsilon=0.005, policy="munro-paterson", engine="kll"
        )
        out = roundtrip(
            Request(
                opcode=Opcode.RESTORE,
                name="ns/m",
                token=0xDEADBEEF,
                config=config,
                payload=payload,
            )
        )
        assert out.token == 0xDEADBEEF
        assert out.config == config
        assert out.payload == payload

    def test_restore_rejects_unknown_engine_on_encode(self):
        with pytest.raises(ConfigurationError):
            protocol.encode_request(
                Request(
                    opcode=Opcode.RESTORE,
                    name="m",
                    config=MetricConfig(kind="fixed", engine="bogus"),
                    payload=b"",
                )
            )

    def test_restore_is_mutating_syncpull_is_not(self):
        # RESTORE rewrites state, so it must ride the idempotency-token
        # dedup path; SYNCPULL is a pure read
        assert Opcode.RESTORE in protocol.MUTATING_OPCODES
        assert Opcode.SYNCPULL not in protocol.MUTATING_OPCODES

    def test_server_dedups_exactly_the_mutating_opcodes(self):
        # the server's one dedup guard covers the opcodes a client
        # resends with their token after a lost ack, and no others
        from repro.service.server import QuantileService

        assert set(QuantileService._MUTATIONS) == protocol.MUTATING_OPCODES

    def test_syncpull_response_roundtrip(self):
        records = [
            (8, 101, np.arange(4.0)),
            (9, 102, np.empty(0, dtype=np.float64)),
        ]
        body = protocol.encode_ok(
            Opcode.SYNCPULL,
            {
                "rebase": False,
                "config": MetricConfig(engine="frugal"),
                "seq": 9,
                "payload": b"FRGSKT01\x00\x01",
                "records": records,
            },
        )
        out = protocol.decode_response(Opcode.SYNCPULL, body)
        assert out["rebase"] is False
        assert out["config"] == MetricConfig(engine="frugal")
        assert out["seq"] == 9
        assert out["payload"] == b"FRGSKT01\x00\x01"
        assert [(s, t) for s, t, _ in out["records"]] == [(8, 101), (9, 102)]
        np.testing.assert_array_equal(out["records"][0][2], np.arange(4.0))
        assert out["records"][1][2].size == 0

    def test_syncpull_rebase_flag_survives(self):
        body = protocol.encode_ok(
            Opcode.SYNCPULL,
            {
                "rebase": True,
                "config": MetricConfig(n=1000),
                "seq": 3,
                "payload": b"",
                "records": [],
            },
        )
        out = protocol.decode_response(Opcode.SYNCPULL, body)
        assert out["rebase"] is True
        assert out["config"].n == 1000
        assert out["records"] == []

    def test_restore_response_roundtrip(self):
        body = protocol.encode_ok(
            Opcode.RESTORE, {"replaced": True, "seq": 55}
        )
        assert protocol.decode_response(Opcode.RESTORE, body) == {
            "replaced": True,
            "seq": 55,
        }

    def test_truncated_syncpull_response_is_typed(self):
        body = protocol.encode_ok(
            Opcode.SYNCPULL,
            {
                "rebase": False,
                "config": MetricConfig(),
                "seq": 1,
                "payload": b"xyz",
                "records": [(1, 7, np.arange(8.0))],
            },
        )
        with pytest.raises(StorageError):
            protocol.decode_response(Opcode.SYNCPULL, body[:-5])


class TestClientFrameReader:
    """The client's buffered frame reader, fed by a hand-driven peer."""

    @pytest.fixture
    def pair(self):
        """``(peer, client)``: the accepted server-side socket and a
        :class:`QuantileClient` connected to it."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = QuantileClient(
                "127.0.0.1", listener.getsockname()[1], timeout=5.0
            )
            peer, _ = listener.accept()
        try:
            yield peer, client
        finally:
            peer.close()
            client.close()

    def test_socket_roundtrip(self, pair):
        peer, client = pair
        payload = protocol.encode_request(
            Request(
                opcode=Opcode.INGEST,
                name="m",
                values=np.arange(100.0),
            )
        )
        # two frames in one send: the second waits in the buffer
        peer.sendall(protocol.frame(payload) + protocol.frame(b"next"))
        assert client._recv_frame_buffered() == payload
        assert client._recv_frame_buffered() == b"next"

    def test_oversized_length_prefix_rejected(self, pair):
        peer, client = pair
        peer.sendall(struct.pack("<I", protocol.MAX_FRAME_BYTES + 1))
        with pytest.raises(StorageError, match="frame"):
            client._recv_frame_buffered()

    def test_closed_peer_raises(self, pair):
        peer, client = pair
        peer.sendall(protocol.frame(b"truncated")[:6])
        peer.close()
        with pytest.raises(StorageError, match="mid-frame"):
            client._recv_frame_buffered()
