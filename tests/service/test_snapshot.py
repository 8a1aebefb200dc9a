"""Snapshot tests: exact state capture, atomicity, corruption detection."""

from __future__ import annotations

import io
import os
import zlib

import numpy as np
import pytest

from repro.core import serialize
from repro.core.errors import ConfigurationError, StorageError
from repro.core.protocols import ENGINE_IDS
from repro.service import protocol
from repro.service import snapshot as snapshot_mod
from repro.service.client import QuantileClient
from repro.service.protocol import _RULE_OPS, MetricConfig
from repro.service.registry import DedupWindow, SketchRegistry
from repro.service.rules import RuleSet
from repro.service.server import ServerThread
from repro.service.snapshot import read_snapshot, write_snapshot

PHIS = [0.01, 0.25, 0.5, 0.75, 0.99]


@pytest.fixture
def populated():
    """A registry with fixed + adaptive metrics over real data."""
    registry = SketchRegistry(n_shards=3)
    rng = np.random.default_rng(7)
    registry.create(
        "api/latency", MetricConfig(kind="adaptive", epsilon=0.01)
    )
    registry.create(
        "db/rows",
        MetricConfig(kind="fixed", epsilon=0.02, n=50_000, policy="new"),
    )
    registry.create(
        "api/errors",
        MetricConfig(
            kind="adaptive", epsilon=0.05, policy="munro-paterson"
        ),
    )
    for _ in range(6):
        registry.ingest("api/latency", rng.normal(size=2_000))
        registry.ingest("db/rows", rng.uniform(size=3_000))
        registry.ingest("api/errors", rng.exponential(size=500))
    return registry


def snapshot_roundtrip(registry, tmp_path, seq=17):
    path = str(tmp_path / "snapshot.bin")
    write_snapshot(path, registry, seq=seq)
    restored = SketchRegistry(n_shards=3)
    assert read_snapshot(path, restored) == seq
    return restored


class TestRoundtrip:
    def test_answers_bit_identical(self, populated, tmp_path):
        restored = snapshot_roundtrip(populated, tmp_path)
        assert restored.names() == populated.names()
        for name in populated.names():
            v0, b0, n0 = populated.quantiles(name, PHIS)
            v1, b1, n1 = restored.quantiles(name, PHIS)
            assert v0 == v1
            assert b0 == b1
            assert n0 == n1

    def test_behaviour_under_further_ingest_identical(
        self, populated, tmp_path
    ):
        restored = snapshot_roundtrip(populated, tmp_path)
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        for _ in range(4):
            populated.ingest("api/latency", rng_a.normal(size=1_500))
            restored.ingest("api/latency", rng_b.normal(size=1_500))
        assert populated.quantiles("api/latency", PHIS) == \
            restored.quantiles("api/latency", PHIS)

    def test_config_survives(self, populated, tmp_path):
        restored = snapshot_roundtrip(populated, tmp_path)
        for name in populated.names():
            assert restored.get(name).config == populated.get(name).config
            assert restored.get(name).shard == populated.get(name).shard

    def test_serialized_payload_identical(self, populated, tmp_path):
        restored = snapshot_roundtrip(populated, tmp_path)
        assert restored.fetch_serialized("db/rows") == \
            populated.fetch_serialized("db/rows")

    def test_adaptive_state_ingest_reaches_loads(self, tmp_path):
        """A small odd first stage leaves fewer genuine ranks stored
        than ingested; a snapshot of it must load, or the node holding
        it could not restart."""
        registry = SketchRegistry(n_shards=3)
        registry.create(
            "small",
            MetricConfig(
                kind="adaptive", epsilon=0.05, n=7, policy="munro-paterson"
            ),
        )
        registry.ingest("small", np.random.default_rng(0).normal(size=1000))
        restored = snapshot_roundtrip(registry, tmp_path)
        assert restored.quantiles("small", PHIS) == \
            registry.quantiles("small", PHIS)
        assert restored.fetch_serialized("small") == \
            registry.fetch_serialized("small")

    def test_empty_registry(self, tmp_path):
        registry = SketchRegistry(n_shards=2)
        restored = snapshot_roundtrip(registry, tmp_path, seq=0)
        assert len(restored) == 0


class TestSafety:
    def test_refuses_pending_batches(self, populated, tmp_path):
        populated.enqueue("api/latency", np.array([1.0]))
        with pytest.raises(StorageError, match="unapplied"):
            write_snapshot(str(tmp_path / "s.bin"), populated, seq=1)
        populated.apply_all()
        write_snapshot(str(tmp_path / "s.bin"), populated, seq=1)

    def test_crc_rejects_corruption(self, populated, tmp_path):
        path = str(tmp_path / "s.bin")
        write_snapshot(path, populated, seq=1)
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(StorageError, match="CRC"):
            read_snapshot(path, SketchRegistry(n_shards=3))

    def test_rejects_wrong_file(self, tmp_path):
        path = str(tmp_path / "s.bin")
        with open(path, "wb") as fh:
            fh.write(b"not a snapshot at all, sorry" * 4)
        with pytest.raises(StorageError):
            read_snapshot(path, SketchRegistry())

    def test_no_tmp_file_left_behind(self, populated, tmp_path):
        path = str(tmp_path / "s.bin")
        write_snapshot(path, populated, seq=1)
        assert os.listdir(tmp_path) == ["s.bin"]

    def test_restore_into_different_shard_count(self, populated, tmp_path):
        """Shards are batching domains only; answers must not depend on
        the shard count chosen at restore time."""
        path = str(tmp_path / "s.bin")
        write_snapshot(path, populated, seq=5)
        restored = SketchRegistry(n_shards=7)
        read_snapshot(path, restored)
        for name in populated.names():
            assert restored.quantiles(name, PHIS) == \
                populated.quantiles(name, PHIS)


# -- streamed writer: byte identity and failure hygiene ----------------------


@pytest.fixture
def every_shape():
    """Every engine, windowed and decayed metrics, and WATCH rules."""
    registry = SketchRegistry(n_shards=3)
    rng = np.random.default_rng(11)
    for name, config in [
        ("p/fixed", MetricConfig(kind="fixed", epsilon=0.02, n=100_000)),
        ("p/adaptive", MetricConfig(kind="adaptive", epsilon=0.02)),
        ("k/plain", MetricConfig(engine="kll", epsilon=0.02)),
        ("f/plain", MetricConfig(engine="frugal", epsilon=0.05)),
        (
            "w/paper",
            MetricConfig(epsilon=0.05, window_s=60.0, slide_s=20.0),
        ),
        (
            "w/kll",
            MetricConfig(
                engine="kll", epsilon=0.05, window_s=60.0, slide_s=30.0
            ),
        ),
        ("d/kll", MetricConfig(engine="kll", epsilon=0.05, decay_s=120.0)),
        (
            "d/frugal",
            MetricConfig(engine="frugal", epsilon=0.05, decay_s=90.0),
        ),
    ]:
        registry.create(name, config)
    for i in range(5):
        for name in ("p/fixed", "p/adaptive", "k/plain", "f/plain"):
            registry.ingest(name, rng.lognormal(size=3_000))
        for name in ("w/paper", "w/kll", "d/kll", "d/frugal"):
            registry.ingest_at(name, rng.lognormal(size=700), 15.0 * i)
    rules = RuleSet()
    rules.add("r/high", "p/fixed", 0.99, ">", 5.0)
    rules.add("r/low", "w/kll", 0.5, "<", 0.1)
    rules.restore_counters("r/high", 3, 7)
    return registry, rules


def reference_image(registry, seq, rules):
    """The whole image assembled in memory, CRC over it appended --
    how snapshots were written before the writer streamed."""
    m = snapshot_mod
    body = io.BytesIO()
    entries = registry.entries()
    body.write(m._HEADER.pack(m._MAGIC, m.SNAPSHOT_VERSION, 0, len(entries), seq))
    for entry in entries:
        config = entry.config
        body.write(m._pack_str(entry.name))
        body.write(bytes([0 if config.kind == "fixed" else 1]))
        body.write(m._F64.pack(config.epsilon))
        body.write(m._U64.pack(0 if config.n is None else int(config.n)))
        body.write(m._pack_str(config.policy))
        body.write(bytes([ENGINE_IDS[config.engine]]))
        if config.window_s:
            body.write(bytes([protocol.WMODE_WINDOW]))
            body.write(m._F64.pack(config.window_s))
            body.write(m._F64.pack(config.slide_s))
        elif config.decay_s:
            body.write(bytes([protocol.WMODE_DECAY]))
            body.write(m._F64.pack(config.decay_s))
            body.write(m._F64.pack(0.0))
        else:
            body.write(bytes([protocol.WMODE_NONE]))
            body.write(m._F64.pack(0.0))
            body.write(m._F64.pack(0.0))
        if entry.windowed or config.engine in ("kll", "frugal"):
            payload = entry.sketch.to_bytes()
            body.write(m._U32.pack(len(payload)))
            body.write(payload)
        elif config.kind == "fixed":
            payload = serialize.dumps(entry.sketch)
            body.write(m._U32.pack(len(payload)))
            body.write(payload)
        else:
            entry.sketch.write_stages(body)
    rule_list = rules.rules()
    body.write(m._U32.pack(len(rule_list)))
    for rule in rule_list:
        state = rules.state_of(rule.rule_id)
        body.write(m._pack_str(rule.rule_id))
        body.write(m._pack_str(rule.metric))
        body.write(m._F64.pack(rule.phi))
        body.write(bytes([_RULE_OPS[rule.op]]))
        body.write(m._F64.pack(rule.threshold))
        body.write(m._U64.pack(state.definite_total))
        body.write(m._U64.pack(state.possible_total))
    raw = body.getvalue()
    return raw + m._U32.pack(zlib.crc32(raw) & 0xFFFFFFFF)


class TestStreamedWriter:
    @pytest.mark.parametrize("spill_bytes", [None, 1, 4096])
    def test_file_equals_in_memory_reference(
        self, every_shape, tmp_path, monkeypatch, spill_bytes
    ):
        registry, rules = every_shape
        if spill_bytes is not None:
            # spill after every metric, or every few: pieces of every
            # size must concatenate (and CRC) to the same image
            monkeypatch.setattr(snapshot_mod, "_SPILL_BYTES", spill_bytes)
        path = str(tmp_path / "snapshot.bin")
        size = write_snapshot(path, registry, seq=42, rules=rules)
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw == reference_image(registry, 42, rules)
        assert size == len(raw)
        restored_rules = RuleSet()
        restored = SketchRegistry(n_shards=3)
        assert read_snapshot(path, restored, restored_rules) == 42
        assert restored_rules.describe() == rules.describe()
        for name in registry.names():
            assert restored.quantiles(name, PHIS) == \
                registry.quantiles(name, PHIS)

    def test_failure_mid_write_keeps_previous_snapshot(
        self, every_shape, tmp_path, monkeypatch
    ):
        registry, rules = every_shape
        path = str(tmp_path / "snapshot.bin")
        write_snapshot(path, registry, seq=1, rules=rules)
        with open(path, "rb") as fh:
            before = fh.read()
        registry.ingest("p/fixed", np.arange(5_000, dtype=np.float64))

        opened = []
        real_open = open

        def recording_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            opened.append(fh)
            return fh

        def boom():
            # earlier metrics already reached the temp file
            assert os.path.getsize(path + ".tmp") > 0
            raise StorageError("disk on fire")

        # spill after every metric, so the failure lands mid-file
        monkeypatch.setattr(snapshot_mod, "_SPILL_BYTES", 1)
        monkeypatch.setattr(snapshot_mod, "open", recording_open, raising=False)
        monkeypatch.setattr(registry.get("d/frugal").sketch, "to_bytes", boom)
        with pytest.raises(StorageError, match="disk on fire"):
            write_snapshot(path, registry, seq=2, rules=rules)

        (fh,) = opened
        assert fh.closed
        assert os.listdir(tmp_path) == ["snapshot.bin"]
        with open(path, "rb") as fh:
            assert fh.read() == before

    def test_server_failure_does_not_rotate_journal(
        self, tmp_path, monkeypatch
    ):
        data_dir = str(tmp_path / "data")
        values = np.arange(2_000, dtype=np.float64)
        with ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None
        ) as server:
            with QuantileClient("127.0.0.1", server.port) as client:
                client.create("s/kll", engine="kll", eps=0.02)
                client.create("s/paper", eps=0.02, n=100_000)
                client.ingest("s/kll", values)
                client.ingest("s/paper", values)
                _seq, path = client.snapshot()
                client.ingest("s/kll", values)
                client.ingest("s/paper", values)
                client.drain()
                service = server.service
                with open(path, "rb") as fh:
                    snap_before = fh.read()
                with open(service.journal_path, "rb") as fh:
                    journal_before = fh.read()

                def boom():
                    raise StorageError("disk on fire")

                sketch = service.registry.get("s/kll").sketch
                monkeypatch.setattr(sketch, "to_bytes", boom)
                with pytest.raises(ConfigurationError, match="disk on fire"):
                    client.snapshot()
                monkeypatch.undo()

                assert not os.path.exists(path + ".tmp")
                with open(path, "rb") as fh:
                    assert fh.read() == snap_before
                with open(service.journal_path, "rb") as fh:
                    assert fh.read() == journal_before
            server.stop(graceful=False)

        # the un-rotated journal still carries the second batches
        with ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None
        ) as server:
            with QuantileClient("127.0.0.1", server.port) as client:
                assert client.describe("s/kll")["n"] == 2 * values.size
                assert client.describe("s/paper")["n"] == 2 * values.size


GOLDEN_IMAGE = os.path.join(
    os.path.dirname(__file__), "golden", "every_shape_v3.snap"
)


class TestGolden:
    """The ``every_shape`` image, captured once and never regenerated:
    the writer must keep producing it byte for byte, and the reader must
    rebuild the registry it came from."""

    def test_writer_reproduces_golden_image(self, every_shape, tmp_path):
        registry, rules = every_shape
        path = str(tmp_path / "snapshot.bin")
        write_snapshot(path, registry, seq=42, rules=rules)
        with open(path, "rb") as fh, open(GOLDEN_IMAGE, "rb") as golden:
            assert fh.read() == golden.read()

    def test_reader_rebuilds_golden_registry(self, every_shape):
        registry, rules = every_shape
        restored = SketchRegistry(n_shards=3)
        restored_rules = RuleSet()
        assert read_snapshot(GOLDEN_IMAGE, restored, restored_rules) == 42
        assert restored.names() == registry.names()
        for name in registry.names():
            assert restored.get(name).config == registry.get(name).config
            assert restored.quantiles(name, PHIS) == \
                registry.quantiles(name, PHIS)
        assert restored_rules.describe() == rules.describe()


# -- compact dedup window -----------------------------------------------------


class TestDedupWindowShapes:
    #: every response shape the server records, live and on replay
    SHAPES = [
        {"created": True},
        {"created": False},
        {"seq": 17, "count": 4096},
        {"seq": 0, "count": 0},
        {"seq": 9, "path": "/data/snapshot.bin"},
        {"replaced": True, "seq": 23},
        {"added": False},
        {"removed": True},
    ]

    def test_every_shape_round_trips_to_a_fresh_dict(self):
        window = DedupWindow()
        for token, response in enumerate(self.SHAPES, start=1):
            window.record(token, response)
        for token, response in enumerate(self.SHAPES, start=1):
            got = window.get(token)
            assert got == response
            assert list(got) == list(response)  # field order too
            assert got is not response
            got["mutated"] = True
            assert window.get(token) == response  # fresh every time
        assert window.hits == 2 * len(self.SHAPES)

    def test_rerecording_refreshes_fifo_position(self):
        window = DedupWindow(capacity=3)
        window.record(1, {"seq": 1, "count": 1})
        window.record(2, {"seq": 2, "count": 1})
        window.record(3, {"seq": 3, "count": 1})
        window.record(1, {"seq": 4, "count": 2})  # back of the queue
        window.record(4, {"seq": 5, "count": 1})  # evicts 2, not 1
        assert 2 not in window
        assert window.get(1) == {"seq": 4, "count": 2}
        window.record(5, {"seq": 6, "count": 1})  # evicts 3
        window.record(6, {"seq": 7, "count": 1})  # now evicts 1
        assert len(window) == 3
        assert [t for t in (1, 2, 3, 4, 5, 6) if t in window] == [4, 5, 6]
