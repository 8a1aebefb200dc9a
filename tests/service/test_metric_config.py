"""``MetricConfig``: one validated value and one codec for a metric's
configuration, wherever it travels.

* the constructor holds every configuration rule the service applies;
* the config block decodes back to the same value at every placement
  (CREATE, journal, snapshot, SYNCPULL);
* the reader is total on hostile bytes: truncations and single-byte
  mutations raise typed errors only;
* the LIST decoder checks its kind and engine ids;
* only version-3 snapshots read.
"""

from __future__ import annotations

import socket
import struct
import tempfile
import zlib
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, StorageError
from repro.core.protocols import ENGINE_IDS
from repro.service import protocol
from repro.service import snapshot as snapshot_mod
from repro.service.journal import IngestJournal, read_journal
from repro.service.protocol import (
    CONFIG_FULL,
    CONFIG_HEAD,
    CONFIG_TRAILING,
    MetricConfig,
    Opcode,
    Request,
    pack_config,
    read_config,
)
from repro.service.registry import SketchRegistry
from repro.service.snapshot import read_snapshot, write_snapshot

PLACEMENTS = [CONFIG_TRAILING, CONFIG_HEAD, CONFIG_FULL]


# -- the constructor ----------------------------------------------------------


class TestValidation:
    def test_defaults(self):
        config = MetricConfig()
        assert (config.kind, config.epsilon, config.n, config.policy,
                config.engine) == ("fixed", 0.01, None, "new", "paper")
        assert not config.windowed

    def test_frozen_and_hashable(self):
        config = MetricConfig(epsilon=0.05)
        with pytest.raises(FrozenInstanceError):
            config.epsilon = 0.1
        assert {config: 1}[MetricConfig(epsilon=0.05)] == 1

    def test_tumbling_window_is_canonical(self):
        tumbling = MetricConfig(window_s=60.0)
        assert tumbling.slide_s == 60.0
        assert tumbling == MetricConfig(window_s=60.0, slide_s=60.0)
        assert tumbling.windowed

    @pytest.mark.parametrize(
        "fields, match",
        [
            (dict(kind="bogus"), "kind"),
            (dict(engine="tdigest"), "engine"),
            (dict(epsilon=0.0), "epsilon"),
            (dict(epsilon=1.0), "epsilon"),
            (dict(epsilon=float("nan")), "epsilon"),
            (dict(n=0), "n must be"),
            (dict(n=2**64), "n must be"),
            (dict(n=1.5), "n must be"),
            (dict(engine="kll", n=1000), "own knobs"),
            (dict(engine="frugal", kind="adaptive"), "own knobs"),
            (dict(window_s=60.0, decay_s=60.0), "not both"),
            (dict(slide_s=5.0), "slide requires window"),
            (dict(kind="adaptive", window_s=60.0), "kind='fixed'"),
            (dict(kind="adaptive", decay_s=60.0), "kind='fixed'"),
            (dict(window_s=-1.0), "window"),
            (dict(window_s=float("inf")), "window"),
            (dict(decay_s=float("nan")), "decay"),
            (dict(kind="adaptive", n=1), "adaptive metric's n"),
            (dict(kind="adaptive", n=3), "adaptive metric's n"),
        ],
    )
    def test_rejects(self, fields, match):
        with pytest.raises(ConfigurationError, match=match):
            MetricConfig(**fields)


class TestBucketFloor:
    """A ring bucket below ``repro.windows.MIN_BUCKET_S`` (the slide, or
    the window when tumbling, or a quarter of the half-life) is refused
    by the config itself, so no accepted config fails later at CREATE."""

    @pytest.mark.parametrize(
        "fields",
        [
            dict(window_s=1e-300),
            dict(window_s=1.0, slide_s=0.0005),
            dict(decay_s=0.002),
            dict(engine="kll", decay_s=1e-300),
        ],
    )
    def test_rejects(self, fields):
        with pytest.raises(ConfigurationError, match="bucket width"):
            MetricConfig(**fields)

    def test_floor_itself_builds(self):
        registry = SketchRegistry(n_shards=1, clock=lambda: 100.0)
        for name, config in [
            ("w", MetricConfig(window_s=0.006, slide_s=0.001)),
            ("d", MetricConfig(decay_s=0.004)),
        ]:
            registry.create(name, config)
            registry.ingest_at(name, np.arange(10.0), 100.0)

    def test_wire_create_is_refused(self, tmp_path):
        from repro.service import QuantileClient, ServerThread

        frame = protocol.encode_request(
            Request(
                opcode=Opcode.CREATE, name="t/narrow", token=3,
                config=MetricConfig(window_s=60.0, slide_s=5.0),
            )
        )
        block = struct.pack("<Bdd", protocol.WMODE_WINDOW, 60.0, 5.0)
        assert frame.endswith(block)
        narrow = frame[: -len(block)] + struct.pack(
            "<Bdd", protocol.WMODE_WINDOW, 0.003, 0.0005
        )
        with pytest.raises(StorageError, match="bucket width"):
            protocol.decode_request(narrow)
        with ServerThread(
            data_dir=str(tmp_path / "srv"), snapshot_interval_s=None
        ) as srv, socket.create_connection(
            ("127.0.0.1", srv.port), timeout=10.0
        ) as sock:
            sock.sendall(protocol.frame(narrow))
            reply = sock.makefile("rb")
            (length,) = struct.unpack("<I", reply.read(4))
            with pytest.raises(ConfigurationError, match="bucket width"):
                protocol.decode_response(Opcode.CREATE, reply.read(length))
            with QuantileClient("127.0.0.1", srv.port) as client:
                assert client.list_metrics() == []


class TestSlideWithoutWindow:
    """A slide with no window used to be stored on a plain metric, then
    dropped by the journal and the snapshot, so the identical CREATE
    was refused after a restart."""

    def test_constructor_refuses(self):
        with pytest.raises(ConfigurationError, match="slide requires window"):
            MetricConfig(slide_s=5.0)

    def test_decoded_window_mode_with_zero_window_is_storage_error(self):
        frame = protocol.encode_request(
            Request(
                opcode=Opcode.CREATE, name="x",
                config=MetricConfig(window_s=60.0, slide_s=5.0),
            )
        )
        block = struct.pack("<Bdd", protocol.WMODE_WINDOW, 60.0, 5.0)
        assert frame.endswith(block)
        raw = frame[: -len(block)] + struct.pack(
            "<Bdd", protocol.WMODE_WINDOW, 0.0, 5.0
        )
        with pytest.raises(StorageError, match="window block"):
            protocol.decode_request(raw)


# -- round trips ----------------------------------------------------------------

seconds = st.floats(
    min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False
)
#: a decay's ring bucket is a quarter of its half-life, floored at 1 ms
half_lives = st.floats(
    min_value=4e-3, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def configs(draw):
    """Every valid MetricConfig."""
    engine = draw(st.sampled_from(list(ENGINE_IDS)))
    paper = engine == "paper"
    kind = draw(st.sampled_from(["fixed", "adaptive"])) if paper else "fixed"
    fields = dict(
        kind=kind,
        engine=engine,
        epsilon=draw(
            st.floats(
                min_value=0.0, max_value=1.0,
                exclude_min=True, exclude_max=True,
            )
        ),
        # an adaptive n below 4 is refused (test_rejects)
        n=draw(st.none() | st.integers(1 if kind == "fixed" else 4, 2**64 - 1))
        if paper
        else None,
        policy=draw(st.text(max_size=24)),
    )
    timing = draw(st.sampled_from(["plain", "window", "decay"]))
    if kind == "fixed" and timing == "window":
        fields["window_s"] = draw(seconds)
        fields["slide_s"] = draw(st.just(0.0) | seconds)
    elif kind == "fixed" and timing == "decay":
        fields["decay_s"] = draw(half_lives)
    return MetricConfig(**fields)


@st.composite
def buildable_configs(draw):
    """Valid configs whose sketches the registry can build: known
    policies, modest sizes, slides that divide the window, tumbling
    frugal windows."""
    engine = draw(st.sampled_from(list(ENGINE_IDS)))
    paper = engine == "paper"
    kind = draw(st.sampled_from(["fixed", "adaptive"])) if paper else "fixed"
    fields = dict(
        kind=kind,
        engine=engine,
        epsilon=draw(st.floats(min_value=0.005, max_value=0.5)),
        # the constructor refuses an adaptive n below 4 (test_rejects)
        n=draw(st.none() | st.integers(1 if kind == "fixed" else 4, 10**9))
        if paper
        else None,
        policy=draw(st.sampled_from(["new", "munro-paterson", "ars"])),
    )
    timing = draw(st.sampled_from(["plain", "window", "decay"]))
    if kind == "fixed" and timing == "window":
        slide = draw(st.sampled_from([1.0, 5.0, 30.0]))
        buckets = 1 if engine == "frugal" else draw(st.integers(1, 4))
        fields.update(window_s=slide * buckets, slide_s=slide)
    elif kind == "fixed" and timing == "decay":
        fields["decay_s"] = draw(st.sampled_from([10.0, 120.0]))
    return MetricConfig(**fields)


class TestRoundTrip:
    @given(configs())
    def test_create_frame(self, config):
        req = Request(opcode=Opcode.CREATE, name="m", token=7, config=config)
        out = protocol.decode_request(protocol.encode_request(req))
        assert out.config == config

    @given(configs())
    def test_syncpull_response(self, config):
        body = protocol.encode_ok(
            Opcode.SYNCPULL,
            {
                "rebase": False, "config": config, "seq": 3,
                "payload": b"xyz", "records": [],
            },
        )
        out = protocol.decode_response(Opcode.SYNCPULL, body)
        assert out["config"] == config

    @settings(max_examples=50, deadline=None)
    @given(configs())
    def test_journal_create_record(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "journal.log")
            with IngestJournal(path) as journal:
                journal.append_create("m", config, token=9)
            (record,) = read_journal(path).records
        assert record.config == config

    @settings(max_examples=40, deadline=None)
    @given(buildable_configs())
    def test_snapshot(self, config):
        registry = SketchRegistry(n_shards=2, clock=lambda: 100.0)
        registry.create("m", config)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "snapshot.bin")
            write_snapshot(path, registry, seq=1)
            restored = SketchRegistry(n_shards=2)
            read_snapshot(path, restored)
        assert restored.get("m").config == config

    @given(configs(), st.sampled_from(PLACEMENTS))
    def test_config_block(self, config, placement):
        r = protocol._Reader(pack_config(config, placement))
        got = read_config(r, placement)
        r.done("config block")
        if placement == CONFIG_HEAD:  # the payload carries the window
            config = MetricConfig(
                config.kind, config.epsilon, config.n, config.policy,
                config.engine,
            )
        assert got == config


# -- hostile bytes ----------------------------------------------------------------


def decode_block(raw: bytes, placement: int) -> None:
    """Parse *raw* as one config block; typed errors only."""
    try:
        read_config(protocol._Reader(raw), placement)
    except (StorageError, ConfigurationError):
        pass


SAMPLES = {
    "paper": MetricConfig(kind="fixed", epsilon=0.01, n=10**6),
    "adaptive": MetricConfig(
        kind="adaptive", epsilon=0.005, policy="munro-paterson"
    ),
    "kll": MetricConfig(engine="kll", epsilon=0.02),
    "windowed": MetricConfig(epsilon=0.05, window_s=60.0, slide_s=30.0),
    "decayed": MetricConfig(engine="frugal", epsilon=0.05, decay_s=120.0),
}


class TestHostileBytes:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("sample", list(SAMPLES))
    def test_every_truncation_and_byte_mutation(self, sample, placement):
        raw = pack_config(SAMPLES[sample], placement)
        for cut in range(len(raw)):
            decode_block(raw[:cut], placement)
        for pos in range(len(raw)):
            for value in range(256):
                if value != raw[pos]:
                    mutated = raw[:pos] + bytes([value]) + raw[pos + 1:]
                    decode_block(mutated, placement)

    @given(
        configs(),
        st.sampled_from(PLACEMENTS),
        st.data(),
    )
    def test_random_config_mutations(self, config, placement, data):
        raw = pack_config(config, placement)
        cut = data.draw(st.integers(0, len(raw)))
        decode_block(raw[:cut], placement)
        pos = data.draw(st.integers(0, len(raw) - 1))
        value = data.draw(st.integers(0, 255))
        decode_block(raw[:pos] + bytes([value]) + raw[pos + 1:], placement)

    def test_window_block_must_be_canonical(self):
        head = pack_config(MetricConfig(), CONFIG_HEAD)
        for block in [
            (protocol.WMODE_NONE, 1.0, 0.0),
            (protocol.WMODE_WINDOW, 60.0, 0.0),
            (protocol.WMODE_DECAY, 60.0, 1.0),
            (protocol.WMODE_DECAY, float("nan"), 0.0),
            (3, 1.0, 1.0),
        ]:
            raw = head + struct.pack("<Bdd", *block)
            with pytest.raises(StorageError):
                read_config(protocol._Reader(raw), CONFIG_FULL)

    def test_invalid_decoded_config_is_storage_error(self):
        raw = bytearray(pack_config(MetricConfig(), CONFIG_FULL))
        raw[1:9] = struct.pack("<d", 7.0)  # epsilon outside (0, 1)
        with pytest.raises(StorageError, match="epsilon"):
            read_config(protocol._Reader(bytes(raw)), CONFIG_FULL)


class TestListDecoderIsTotal:
    METRIC = {
        "name": "ab", "kind": "fixed", "n": 5, "memory_elements": 8,
        "shard": 1, "engine": "kll", "window_s": 0.0, "slide_s": 0.0,
        "decay_s": 0.0,
    }
    #: status u8 | count u32 | name (u16 len + 2 bytes)
    KIND_AT = 1 + 4 + 2 + 2
    #: ... kind u8 | n u64 | memory u64 | shard u32
    ENGINE_AT = KIND_AT + 1 + 8 + 8 + 4

    def body(self) -> bytearray:
        return bytearray(
            protocol.encode_ok(Opcode.LIST, {"metrics": [self.METRIC]})
        )

    def test_roundtrip(self):
        out = protocol.decode_response(Opcode.LIST, bytes(self.body()))
        assert out["metrics"] == [self.METRIC]

    @pytest.mark.parametrize("kind_id", [2, 7, 255])
    def test_unknown_kind_id(self, kind_id):
        body = self.body()
        assert body[self.KIND_AT] == 0
        body[self.KIND_AT] = kind_id
        with pytest.raises(StorageError, match="metric kind id"):
            protocol.decode_response(Opcode.LIST, bytes(body))

    @pytest.mark.parametrize("engine_id", [3, 9, 255])
    def test_unknown_engine_id(self, engine_id):
        body = self.body()
        assert body[self.ENGINE_AT] == ENGINE_IDS["kll"]
        body[self.ENGINE_AT] = engine_id
        with pytest.raises(StorageError, match="sketch engine id"):
            protocol.decode_response(Opcode.LIST, bytes(body))


class TestSnapshotVersions:
    @pytest.mark.parametrize("version", [1, 2])
    def test_old_versions_are_refused(self, tmp_path, version):
        image = snapshot_mod._HEADER.pack(
            snapshot_mod._MAGIC, version, 0, 0, 5
        )
        path = tmp_path / "snapshot.bin"
        path.write_bytes(
            image + struct.pack("<I", zlib.crc32(image) & 0xFFFFFFFF)
        )
        with pytest.raises(StorageError, match=f"version {version}"):
            read_snapshot(str(path), SketchRegistry())

    def test_current_version_reads(self, tmp_path):
        registry = SketchRegistry()
        registry.create("m", MetricConfig(engine="kll"))
        registry.ingest("m", np.arange(100.0))
        path = str(tmp_path / "snapshot.bin")
        write_snapshot(path, registry, seq=4)
        assert read_snapshot(path, SketchRegistry()) == 4
