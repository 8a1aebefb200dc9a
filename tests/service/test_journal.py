"""Journal write/read/truncate tests: the write-ahead half of recovery."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.service.journal import (
    CREATE_RECORD,
    INGEST_RECORD,
    RESTORE_RECORD,
    IngestJournal,
    read_journal,
)
from repro.service.protocol import MetricConfig


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "journal.log")


def write_sample(path: str, *, fsync: bool = False) -> IngestJournal:
    j = IngestJournal(path, fsync=fsync)
    j.append_create("api/latency", MetricConfig("adaptive", 0.01))
    j.append_ingest("api/latency", np.arange(100.0))
    j.append_create(
        "db/rows", MetricConfig("fixed", 0.001, 10**6, "munro-paterson")
    )
    j.append_ingest("db/rows", np.array([3.5, -1.0, 7.25]))
    return j


class TestRoundtrip:
    def test_records_survive_bitwise(self, path):
        write_sample(path).close()
        scan = read_journal(path)
        assert not scan.damaged
        assert [r.seq for r in scan.records] == [1, 2, 3, 4]
        assert [r.type for r in scan.records] == [
            CREATE_RECORD, INGEST_RECORD, CREATE_RECORD, INGEST_RECORD,
        ]
        create = scan.records[2]
        assert create.name == "db/rows"
        assert create.config == MetricConfig(
            "fixed", 0.001, 10**6, "munro-paterson"
        )
        np.testing.assert_array_equal(
            scan.records[3].values, [3.5, -1.0, 7.25]
        )
        np.testing.assert_array_equal(
            scan.records[1].values, np.arange(100.0)
        )

    def test_empty_journal(self, path):
        IngestJournal(path).close()
        scan = read_journal(path)
        assert scan.records == []
        assert not scan.damaged

    def test_start_seq_round_trips(self, path):
        IngestJournal(path, start_seq=41).append_ingest(
            "m", np.array([1.0])
        )
        scan = read_journal(path)
        assert scan.start_seq == 41
        assert scan.records[0].seq == 42

    def test_reopen_resumes_sequence(self, path):
        write_sample(path).close()
        j = IngestJournal(path)
        assert j.seq == 4
        assert j.append_ingest("api/latency", np.array([1.0])) == 5
        j.close()
        assert len(read_journal(path).records) == 5


class TestTornTail:
    def test_every_truncation_point_keeps_valid_prefix(self, path):
        from repro.service.journal import _FILE_HEADER

        write_sample(path).close()
        full = read_journal(path)
        with open(path, "rb") as fh:
            raw = fh.read()
        ends = _record_ends(full, raw)
        clean_cuts = set(ends) | {_FILE_HEADER.size}
        # cut at every byte offset past the file header: the scan must
        # never raise and must recover exactly the records whose bytes
        # fully survive
        torn = str(path) + ".torn"
        for cut in range(_FILE_HEADER.size, len(raw)):
            with open(torn, "wb") as fh:
                fh.write(raw[:cut])
            scan = read_journal(torn)
            assert scan.damaged == (cut not in clean_cuts)
            for got, want in zip(scan.records, full.records):
                assert got.seq == want.seq
                assert got.name == want.name
            assert len(scan.records) == sum(1 for e in ends if e <= cut)

    def test_reopen_truncates_torn_tail(self, path):
        write_sample(path).close()
        with open(path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() - 5)  # tear the last record
        j = IngestJournal(path)
        assert j.seq == 3  # record 4 was torn away
        j.append_ingest("api/latency", np.array([9.0]))
        j.close()
        scan = read_journal(path)
        assert not scan.damaged
        assert [r.seq for r in scan.records] == [1, 2, 3, 4]

    def test_flipped_bit_stops_scan(self, path):
        write_sample(path).close()
        with open(path, "r+b") as fh:
            fh.seek(40)
            byte = fh.read(1)
            fh.seek(40)
            fh.write(bytes([byte[0] ^ 0xFF]))
        scan = read_journal(path)
        assert scan.damaged
        assert len(scan.records) < 4


def _record_ends(scan, raw):
    """Byte offsets where each record of a full scan ends."""
    from repro.service.journal import _FILE_HEADER, _RECORD_HEADER

    pos = _FILE_HEADER.size
    ends = []
    for _ in scan.records:
        (_, body_len) = _RECORD_HEADER.unpack(
            raw[pos : pos + _RECORD_HEADER.size]
        )
        pos += _RECORD_HEADER.size + body_len
        ends.append(pos)
    return ends


class TestRotation:
    def test_rotate_empties_and_preserves_seq(self, path):
        j = write_sample(path)
        j.rotate(start_seq=4)
        assert j.seq == 4
        assert j.append_ingest("api/latency", np.array([1.0])) == 5
        j.close()
        scan = read_journal(path)
        assert scan.start_seq == 4
        assert [r.seq for r in scan.records] == [5]


class TestRestoreRecord:
    """Type-3 records: the full-state installs a re-sync writes."""

    def test_restore_round_trips_bitwise(self, path):
        payload = b"KLLSKT01" + bytes(range(200))
        j = write_sample(path)
        seq = j.append_restore(
            "db/rows",
            MetricConfig("fixed", 0.001, None, "munro-paterson", "kll"),
            payload,
            token=0xABCD,
        )
        j.close()
        assert seq == 5
        scan = read_journal(path)
        assert not scan.damaged
        rec = scan.records[-1]
        assert rec.type == RESTORE_RECORD
        assert (rec.seq, rec.name, rec.token) == (5, "db/rows", 0xABCD)
        assert rec.config == MetricConfig(
            "fixed", 0.001, None, "munro-paterson", "kll"
        )
        assert rec.payload == payload

    def test_restore_none_n_encodes_as_zero(self, path):
        j = IngestJournal(path)
        j.append_restore("m", MetricConfig(engine="frugal"), b"\x01")
        j.close()
        rec = read_journal(path).records[0]
        assert rec.config.n is None
        assert rec.config.engine == "frugal"

    def test_reopen_resumes_sequence_past_restore(self, path):
        j = IngestJournal(path)
        j.append_restore("m", MetricConfig(), b"MRL")
        j.close()
        j = IngestJournal(path)
        assert j.seq == 1
        assert j.append_ingest("m", np.array([1.0])) == 2
        j.close()
        assert [r.type for r in read_journal(path).records] == [
            RESTORE_RECORD, INGEST_RECORD,
        ]

    def test_torn_restore_tail_is_dropped_cleanly(self, path):
        j = write_sample(path)
        j.append_restore("m", MetricConfig(), b"x" * 64)
        j.close()
        with open(path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() - 7)  # tear inside the restore payload
        scan = read_journal(path)
        assert scan.damaged
        assert [r.seq for r in scan.records] == [1, 2, 3, 4]


class TestBadFiles:
    def test_not_a_journal(self, path):
        with open(path, "wb") as fh:
            fh.write(b"definitely not a journal file")
        with pytest.raises(StorageError, match="magic"):
            read_journal(path)

    def test_too_short(self, path):
        with open(path, "wb") as fh:
            fh.write(b"abc")
        with pytest.raises(StorageError, match="short"):
            read_journal(path)

    def test_fsync_mode_writes_identical_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.log"), str(tmp_path / "b.log")
        write_sample(p1, fsync=False).close()
        write_sample(p2, fsync=True).close()
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
