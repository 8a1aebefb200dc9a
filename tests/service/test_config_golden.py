"""Golden bytes for every record that carries a metric configuration.

The expected bytes below were captured once and are never regenerated:
a codec change that moves a single byte of a CREATE or RESTORE frame or
of a journal record fails here, however consistent its encoder and
decoder are with each other.  The snapshot image has its own golden
file (``tests/service/test_snapshot.py::TestGolden``).
"""

from __future__ import annotations

import pytest

from repro.service import protocol
from repro.service.journal import IngestJournal, read_journal
from repro.service.protocol import MetricConfig, Opcode, Request

TOKEN = 0x0102030405060708

#: one metric per config shape: name -> CREATE fields
CONFIGS = {
    "g/paper": dict(kind="fixed", epsilon=0.01, n=10**6, policy="new"),
    "g/adaptive": dict(
        kind="adaptive", epsilon=0.005, policy="munro-paterson"
    ),
    "g/kll": dict(kind="fixed", epsilon=0.02, engine="kll"),
    "g/frugal": dict(kind="fixed", epsilon=0.05, engine="frugal"),
    "g/windowed": dict(
        kind="fixed", epsilon=0.05, window_s=60.0, slide_s=30.0
    ),
    "g/tumbling": dict(
        kind="fixed", epsilon=0.05, engine="kll", window_s=60.0
    ),
    "g/decayed": dict(
        kind="fixed", epsilon=0.05, engine="kll", decay_s=120.0
    ),
}

RESTORE_PAYLOAD = b"KLLSKT01" + bytes(range(16))
RESTORE_CONFIG = dict(
    kind="fixed", epsilon=0.005, n=None, policy="new", engine="kll"
)

CREATE_FRAMES = {
    "g/paper": (
        "010700672f70617065720807060504030201007b14ae47e17a843f40420f0000"
        "00000003006e6577"
    ),
    "g/adaptive": (
        "010a00672f61646170746976650807060504030201017b14ae47e17a743f0000"
        "0000000000000e006d756e726f2d7061746572736f6e"
    ),
    "g/kll": (
        "010500672f6b6c6c0807060504030201007b14ae47e17a943f00000000000000"
        "0003006e657701"
    ),
    "g/frugal": (
        "010800672f66727567616c0807060504030201009a9999999999a93f00000000"
        "0000000003006e657702"
    ),
    "g/windowed": (
        "010a00672f77696e646f7765640807060504030201009a9999999999a93f0000"
        "00000000000003006e657700010000000000004e400000000000003e40"
    ),
    "g/tumbling": (
        "010a00672f74756d626c696e670807060504030201009a9999999999a93f0000"
        "00000000000003006e657701010000000000004e400000000000004e40"
    ),
    "g/decayed": (
        "010900672f646563617965640807060504030201009a9999999999a93f000000"
        "000000000003006e657701020000000000005e400000000000000000"
    ),
}

RESTORE_FRAME = (
    "0c0900672f726573746f72650807060504030201007b14ae47e17a743f00000000"
    "0000000003006e657701180000004b4c4c534b543031000102030405060708090a"
    "0b0c0d0e0f"
)

#: the whole journal file: header, the seven CREATEs in CONFIGS order,
#: then one RESTORE
JOURNAL_FILE = (
    "4d524c4a524e303102000000000000000000000000000000b991b1f83000000001"
    "000000000000000108070605040302010700672f7061706572007b14ae47e17a84"
    "3f40420f000000000003006e6577ef3a3b073e0000000200000000000000010807"
    "0605040302010a00672f6164617074697665017b14ae47e17a743f000000000000"
    "00000e006d756e726f2d7061746572736f6e318444d02f00000003000000000000"
    "000108070605040302010500672f6b6c6c007b14ae47e17a943f00000000000000"
    "0003006e65770188564d263200000004000000000000000108070605040302010800"
    "672f66727567616c009a9999999999a93f000000000000000003006e6577021da0"
    "f5c34500000005000000000000000108070605040302010a00672f77696e646f77"
    "6564009a9999999999a93f000000000000000003006e657700010000000000004e"
    "400000000000003e40e8ebffa6450000000600000000000000010807060504030201"
    "0a00672f74756d626c696e67009a9999999999a93f000000000000000003006e65"
    "7701010000000000004e400000000000004e401e098e02440000000700000000000000"
    "0108070605040302010900672f64656361796564009a9999999999a93f00000000"
    "0000000003006e657701020000000000005e40000000000000000000e3c0be4f00"
    "000008000000000000000308070605040302010900672f726573746f7265007b14"
    "ae47e17a743f000000000000000003006e657701180000004b4c4c534b54303100"
    "0102030405060708090a0b0c0d0e0f"
)


def create_request(name: str) -> Request:
    return Request(
        opcode=Opcode.CREATE, name=name, token=TOKEN,
        config=MetricConfig(**CONFIGS[name]),
    )


def restore_request() -> Request:
    return Request(
        opcode=Opcode.RESTORE, name="g/restore", token=TOKEN,
        payload=RESTORE_PAYLOAD, config=MetricConfig(**RESTORE_CONFIG),
    )


def write_journal(path: str) -> None:
    journal = IngestJournal(path)
    for name, fields in CONFIGS.items():
        journal.append_create(name, MetricConfig(**fields), TOKEN)
    journal.append_restore(
        "g/restore", MetricConfig(**RESTORE_CONFIG), RESTORE_PAYLOAD, TOKEN
    )
    journal.close()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_create_frame(name):
    assert protocol.encode_request(create_request(name)).hex() == (
        CREATE_FRAMES[name]
    )


@pytest.mark.parametrize("name", list(CONFIGS))
def test_create_frame_decodes_to_its_request(name):
    raw = bytes.fromhex(CREATE_FRAMES[name])
    assert protocol.encode_request(protocol.decode_request(raw)) == raw


def test_restore_frame():
    assert protocol.encode_request(restore_request()).hex() == RESTORE_FRAME
    raw = bytes.fromhex(RESTORE_FRAME)
    assert protocol.encode_request(protocol.decode_request(raw)) == raw


def test_journal_file(tmp_path):
    path = str(tmp_path / "journal.log")
    write_journal(path)
    with open(path, "rb") as fh:
        assert fh.read().hex() == JOURNAL_FILE


def test_golden_journal_replays_its_records(tmp_path):
    path = str(tmp_path / "journal.log")
    with open(path, "wb") as fh:
        fh.write(bytes.fromhex(JOURNAL_FILE))
    scan = read_journal(path)
    assert not scan.damaged
    assert [r.name for r in scan.records] == [*CONFIGS, "g/restore"]
    assert [r.token for r in scan.records] == [TOKEN] * 8
    assert scan.records[-1].payload == RESTORE_PAYLOAD
