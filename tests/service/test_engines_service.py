"""Mixed-engine service paths: wire compat and SIGKILL recovery.

Non-paper engines flow through every durability layer -- protocol
CREATE, journal CREATE, snapshot v2 -- as an optional trailing engine
tag, so pre-engine byte streams still decode (as ``paper``) and a
mixed-engine registry recovers bit-identically from a non-graceful
stop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engines import engine_of
from repro.core.errors import ConfigurationError, StorageError
from repro.core.frugal import DEFAULT_BANK_PHIS, FrugalSketch
from repro.service import QuantileClient, ServerThread
from repro.service import protocol
from repro.service.journal import IngestJournal, read_journal
from repro.service.protocol import MetricConfig, Opcode, Request

PHIS = [0.1, 0.5, 0.9]

ENGINES = {
    "e/paper": dict(kind="fixed", eps=0.02, n=50_000),
    "e/kll": dict(kind="fixed", eps=0.02, engine="kll"),
    "e/frugal": dict(kind="fixed", engine="frugal"),
    "e/adaptive": dict(kind="adaptive", eps=0.02),
}


def client_for(server):
    return QuantileClient("127.0.0.1", server.port)


def _feed(client, rng, rounds=4):
    for _ in range(rounds):
        for name in ENGINES:
            client.ingest(name, rng.integers(0, 10_000, 600).astype(float))


class TestWireFormat:
    def test_protocol_engine_byte_roundtrip(self):
        for engine in ("paper", "kll", "frugal"):
            req = Request(
                opcode=Opcode.CREATE, name="m",
                config=MetricConfig(kind="fixed", epsilon=0.01, engine=engine),
            )
            out = protocol.decode_request(protocol.encode_request(req))
            assert out.config.engine == engine

    def test_protocol_pre_engine_payload_decodes_as_paper(self):
        """A CREATE encoded by an old client carries no engine byte."""
        req = Request(opcode=Opcode.CREATE, name="m",
                      config=MetricConfig(kind="adaptive", epsilon=0.01))
        payload = protocol.encode_request(req)
        # the default-engine encoding *is* the old format: no trailing byte
        assert protocol.decode_request(payload).config.engine == "paper"

    def test_protocol_unknown_engine_id_rejected(self):
        req = Request(opcode=Opcode.CREATE, name="m",
                      config=MetricConfig(epsilon=0.01, engine="kll"))
        payload = protocol.encode_request(req)
        with pytest.raises(StorageError, match="engine"):
            protocol.decode_request(payload[:-1] + bytes([99]))

    def test_protocol_unknown_engine_name_rejected_on_encode(self):
        with pytest.raises(ConfigurationError):
            protocol.encode_request(
                Request(opcode=Opcode.CREATE, name="m",
                        config=MetricConfig(engine="tdigest"))
            )

    def test_journal_engine_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.log")
        journal = IngestJournal(path)
        journal.append_create("a", MetricConfig("fixed", 0.02, 1000))
        journal.append_create("b", MetricConfig(epsilon=0.02, engine="kll"))
        journal.append_create("c", MetricConfig(engine="frugal"))
        journal.close()
        records = read_journal(path).records
        assert [r.config.engine for r in records] == [
            "paper", "kll", "frugal",
        ]
        assert [r.name for r in records] == ["a", "b", "c"]


class TestServiceEngines:
    @pytest.fixture
    def server(self, tmp_path):
        with ServerThread(
            data_dir=str(tmp_path / "data"), n_shards=2,
            snapshot_interval_s=None,
        ) as srv:
            yield srv

    def test_create_ingest_query_fetch_per_engine(self, server):
        rng = np.random.default_rng(0)
        with client_for(server) as client:
            for name, cfg in ENGINES.items():
                assert client.create(name, **cfg)
            _feed(client, rng)
            magics = {}
            for name in ENGINES:
                values, _, n = client.query(name, PHIS)
                assert n == 2_400
                assert values == sorted(values)
                raw = client.fetch_raw(name)
                magics[name] = engine_of(raw)
                assert client.fetch(name).n == 2_400
            assert magics == {
                "e/paper": "paper", "e/kll": "kll", "e/frugal": "frugal",
                "e/adaptive": "paper",
            }
            stats = client.stats()
            assert stats["engines"] == {"paper": 2, "kll": 1, "frugal": 1}
            # LIST's wire format predates engines (old clients must keep
            # decoding it); per-engine info is served via STATS instead
            assert len(client.list_metrics()) == 4

    def test_non_paper_engines_reject_paper_sizing(self, server):
        with client_for(server) as client:
            with pytest.raises(ConfigurationError):
                client.create("bad/1", kind="adaptive", engine="kll")
            with pytest.raises(ConfigurationError):
                client.create("bad/2", kind="fixed", n=1000, engine="frugal")
            with pytest.raises(ConfigurationError):
                client.create("bad/3", kind="fixed", engine="tdigest")

    @pytest.mark.parametrize("engine", ["paper", "kll", "frugal"])
    def test_create_rejects_epsilon_outside_unit_interval(
        self, server, engine
    ):
        with client_for(server) as client:
            for i, eps in enumerate([7.0, -1, 0, 1.0, float("nan")]):
                with pytest.raises(ConfigurationError, match="epsilon"):
                    client.create(f"bad/{i}", kind="fixed", eps=eps,
                                  engine=engine)
            assert client.list_metrics() == []
            # the connection survives the error frames
            assert client.create("ok", kind="fixed", engine=engine)

    def test_frugal_in_bank_create_survives_growth_and_recovery(
        self, tmp_path
    ):
        """Frugal CREATEs take rows of the shard bank directly: past
        several bank growths, across a snapshot and a journal tail, the
        wire bytes equal standalone sketches fed the same batches and
        ``bank_id`` follows creation order."""
        data_dir = str(tmp_path / "data")
        rng = np.random.default_rng(5)
        names = [f"f/{i:02d}" for i in range(40)]
        solo = {}

        def create_and_feed(client, wave):
            for name in wave:
                assert client.create(name, kind="fixed", engine="frugal")
                solo[name] = FrugalSketch(DEFAULT_BANK_PHIS, seed=0)
            for _ in range(2):
                for name in rng.permutation(list(solo)):
                    batch = rng.lognormal(3.0, 1.0, 32).round(2)
                    client.ingest(name, batch)
                    solo[name].extend(batch)

        def check(srv, client):
            registry = srv.service.registry
            for i, name in enumerate(names):
                assert registry.get(name).bank_id == i, name
                assert client.fetch_raw(name) == solo[name].to_bytes(), name

        srv = ServerThread(
            data_dir=data_dir, n_shards=1, snapshot_interval_s=None
        ).start()
        try:
            with client_for(srv) as client:
                create_and_feed(client, names[:12])
                client.snapshot()  # the first 12 recover via the snapshot
                create_and_feed(client, names[12:])  # the rest via journal
                client.drain()
                check(srv, client)
        finally:
            srv.stop(graceful=False)

        srv2 = ServerThread(
            data_dir=data_dir, n_shards=1, snapshot_interval_s=None
        ).start()
        try:
            with client_for(srv2) as client:
                check(srv2, client)
        finally:
            srv2.stop(graceful=False)

    def test_mixed_engine_sigkill_recovery_bit_identical(self, tmp_path):
        """Kill with a mixed registry: snapshot v2 + journal tail replay
        must reproduce every engine's state byte-for-byte."""
        data_dir = str(tmp_path / "data")
        rng = np.random.default_rng(7)
        srv = ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None
        ).start()
        try:
            with client_for(srv) as client:
                for name, cfg in ENGINES.items():
                    client.create(name, **cfg)
                _feed(client, rng, rounds=3)
                client.snapshot()  # engines cross the snapshot-v2 path
                _feed(client, rng, rounds=2)  # tail lives in the journal
                client.drain()
                queries = {n: client.query(n, PHIS) for n in ENGINES}
                payloads = {n: client.fetch_raw(n) for n in ENGINES}
        finally:
            srv.stop(graceful=False)  # in-process stand-in for SIGKILL

        srv2 = ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None
        ).start()
        try:
            with client_for(srv2) as client:
                for name, want in queries.items():
                    assert client.query(name, PHIS) == want
                for name, want in payloads.items():
                    assert client.fetch_raw(name) == want, name
                assert client.stats()["engines"] == {
                    "paper": 2, "kll": 1, "frugal": 1,
                }
        finally:
            srv2.stop(graceful=False)

    def test_journal_only_recovery_without_snapshot(self, tmp_path):
        """Same kill, but no snapshot ever: pure CREATE+INGEST replay."""
        data_dir = str(tmp_path / "data")
        rng = np.random.default_rng(3)
        srv = ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None
        ).start()
        try:
            with client_for(srv) as client:
                for name, cfg in ENGINES.items():
                    client.create(name, **cfg)
                _feed(client, rng, rounds=2)
                client.drain()
                payloads = {n: client.fetch_raw(n) for n in ENGINES}
        finally:
            srv.stop(graceful=False)

        srv2 = ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None
        ).start()
        try:
            with client_for(srv2) as client:
                for name, want in payloads.items():
                    assert client.fetch_raw(name) == want, name
        finally:
            srv2.stop(graceful=False)
