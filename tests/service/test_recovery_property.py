"""Crash-recovery property: replay is bit-identical to never crashing.

The durability contract of the service is that after a kill -- including
one that tears the journal mid-record -- restarting from the latest
snapshot plus the surviving journal prefix yields *exactly* the answers
an uninterrupted run would give for every acknowledged batch: same
quantile values, same certified Lemma 5 error bounds, same counts.

This leans on the PR-2 SketchBank property (batched ingest is
bit-identical to per-sketch sequential ingest), so it must hold across
all three collapse policies and with the fast kernels on or off.  The
test drives the same journal/snapshot/registry components the server
uses, tearing the journal at hypothesis-chosen byte offsets.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.service.journal import (
    CREATE_RECORD,
    INGEST_RECORD,
    IngestJournal,
    read_journal,
)
from repro.service.protocol import MetricConfig
from repro.service.registry import SketchRegistry
from repro.service.snapshot import read_snapshot, write_snapshot

POLICIES = ["new", "munro-paterson", "alsabti-ranka-singh"]
PHIS = [0.05, 0.25, 0.5, 0.75, 0.95]
_RUN_COUNTER = __import__("itertools").count()


@pytest.fixture(params=[True, False], ids=["kernels-on", "kernels-off"])
def kernels_mode(request):
    previous = kernels.is_enabled()
    kernels.set_enabled(request.param)
    try:
        yield request.param
    finally:
        kernels.set_enabled(previous)


def _metrics(policy):
    return [
        ("svc/fixed", MetricConfig(kind="fixed", epsilon=0.03, n=20_000,
                                   policy=policy)),
        ("svc/adaptive", MetricConfig(kind="adaptive", epsilon=0.03,
                                      policy=policy)),
    ]


def _make_batches(seed, n_batches):
    rng = np.random.default_rng(seed)
    names = ["svc/fixed", "svc/adaptive"]
    return [
        (names[i % 2], rng.normal(size=int(rng.integers(50, 400))))
        for i in range(n_batches)
    ]


def _run_with_journal(tmp_path, policy, batches, snapshot_after):
    """Mimic the server's write path: journal-then-apply each mutation,
    snapshot + rotate after ``snapshot_after`` batches."""
    journal_path = str(tmp_path / "journal.log")
    snapshot_path = str(tmp_path / "snapshot.bin")
    registry = SketchRegistry(n_shards=2)
    journal = IngestJournal(journal_path)
    for name, config in _metrics(policy):
        journal.append_create(name, config)
        registry.create(name, config)
    for i, (name, values) in enumerate(batches):
        journal.append_ingest(name, values)
        registry.ingest(name, values)
        if i + 1 == snapshot_after:
            write_snapshot(snapshot_path, registry, seq=journal.seq)
            journal.rotate(start_seq=journal.seq)
    journal.close()
    return registry, journal_path, snapshot_path


def _recover(journal_path, snapshot_path):
    """The server's recovery path: snapshot, then replay seq > snap_seq."""
    registry = SketchRegistry(n_shards=2)
    seq = 0
    if os.path.exists(snapshot_path):
        seq = read_snapshot(snapshot_path, registry)
    acked_batches = 0
    scan = read_journal(journal_path)
    for record in scan.records:
        if record.seq <= seq:
            continue
        if record.type == CREATE_RECORD:
            registry.create(record.name, record.config)
        elif record.type == INGEST_RECORD:
            registry.ingest(record.name, record.values)
            acked_batches += 1
    return registry, acked_batches


def _reference(policy, batches):
    """The uninterrupted run: same batches, no durability machinery."""
    registry = SketchRegistry(n_shards=2)
    for name, config in _metrics(policy):
        registry.create(name, config)
    for name, values in batches:
        registry.ingest(name, values)
    return registry


def assert_bit_identical(recovered, reference):
    assert recovered.names() == reference.names()
    for name in reference.names():
        v_rec, bound_rec, n_rec = recovered.quantiles(name, PHIS)
        v_ref, bound_ref, n_ref = reference.quantiles(name, PHIS)
        assert v_rec == v_ref, f"{name}: quantile values diverged"
        assert bound_rec == bound_ref, f"{name}: certified bound diverged"
        assert n_rec == n_ref


@pytest.mark.parametrize("policy", POLICIES)
def test_clean_kill_recovers_bit_identical(tmp_path, policy, kernels_mode):
    """Kill after the last append completed: every batch survives."""
    batches = _make_batches(seed=1, n_batches=12)
    _, journal_path, snapshot_path = _run_with_journal(
        tmp_path, policy, batches, snapshot_after=7
    )
    recovered, acked = _recover(journal_path, snapshot_path)
    assert_bit_identical(recovered, _reference(policy, batches))


@pytest.mark.parametrize("policy", POLICIES)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**16),
    torn_bytes=st.integers(1, 2000),
    snapshot_after=st.integers(0, 12),
)
def test_torn_tail_recovers_acked_prefix(
    tmp_path, policy, kernels_mode, seed, torn_bytes, snapshot_after
):
    """Kill mid-append: the surviving prefix replays bit-identically.

    Truncating the journal ``torn_bytes`` before its end tears the final
    record(s); recovery must reproduce exactly the uninterrupted run over
    the batches whose records fully survive.
    """
    from repro.service.journal import _FILE_HEADER

    batches = _make_batches(seed, n_batches=12)
    run_dir = tmp_path / f"run-{next(_RUN_COUNTER)}"
    run_dir.mkdir()
    _, journal_path, snapshot_path = _run_with_journal(
        run_dir, policy, batches, snapshot_after=snapshot_after
    )
    # tear the tail; the file header itself cannot be torn by a crash
    # (it was flushed long before), so never cut into it
    size = os.path.getsize(journal_path)
    with open(journal_path, "r+b") as fh:
        fh.truncate(max(size - torn_bytes, _FILE_HEADER.size))

    recovered, replayed = _recover(journal_path, snapshot_path)
    surviving = snapshot_after + replayed if snapshot_after else replayed
    assert surviving <= len(batches)
    assert_bit_identical(
        recovered, _reference(policy, batches[:surviving])
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "crash_point", ["rotation-tmp-created", "after-rotation-replace"]
)
def test_crash_points_inside_snapshot_rotation(
    tmp_path, policy, kernels_mode, crash_point
):
    """A reset *inside* the snapshot/rotation sequence must recover
    bit-identically.

    ``_write_snapshot`` renames the snapshot into place and then rotates
    the journal (write ``journal.log.tmp``, ``os.replace`` it over the
    old file).  A fault-injected connection reset -- or a kill -- can
    land between any two of those steps.  Two windows beyond the
    already-tested snapshot-without-rotation one:

    * ``rotation-tmp-created``: the fresh journal exists only as the
      stray ``.tmp`` file; the full old journal is still in place.
      Replay must skip the snapshotted prefix and ignore the stray.
    * ``after-rotation-replace``: the rotation completed but the process
      died before doing anything else; the journal is empty with
      ``start_seq`` = snapshot seq.

    In both, recovery must also leave a journal that *continues*
    correctly: appending post-recovery batches and recovering again
    stays bit-identical.
    """
    from repro.service.journal import _FILE_HEADER, _MAGIC, _VERSION

    batches = _make_batches(seed=9, n_batches=10)
    pre_crash = batches[:6]
    journal_path = str(tmp_path / "journal.log")
    snapshot_path = str(tmp_path / "snapshot.bin")
    registry = SketchRegistry(n_shards=2)
    journal = IngestJournal(journal_path)
    for name, config in _metrics(policy):
        journal.append_create(name, config)
        registry.create(name, config)
    for name, values in pre_crash:
        journal.append_ingest(name, values)
        registry.ingest(name, values)
    write_snapshot(snapshot_path, registry, seq=journal.seq)
    if crash_point == "rotation-tmp-created":
        # rotate() died after writing the tmp header, before os.replace
        with open(journal_path + ".tmp", "wb") as fh:
            fh.write(_FILE_HEADER.pack(_MAGIC, _VERSION, journal.seq))
        journal.close()
    else:
        journal.rotate(start_seq=journal.seq)
        journal.close()

    recovered, replayed = _recover(journal_path, snapshot_path)
    assert replayed == 0  # every surviving record is inside the snapshot
    assert_bit_identical(recovered, _reference(policy, pre_crash))

    # the recovered journal must keep working: append the remaining
    # batches the way a restarted server would, then recover once more
    journal2 = IngestJournal(journal_path)
    assert journal2.seq == 2 + len(pre_crash)
    for name, values in batches[6:]:
        journal2.append_ingest(name, values)
        recovered.ingest(name, values)
    journal2.close()
    recovered2, replayed2 = _recover(journal_path, snapshot_path)
    assert replayed2 == len(batches) - len(pre_crash)
    assert_bit_identical(recovered2, _reference(policy, batches))


@pytest.mark.parametrize("policy", POLICIES)
def test_crash_between_snapshot_and_rotation(tmp_path, policy, kernels_mode):
    """A snapshot that lands without its journal rotation must not double
    apply: replay skips records with seq <= snapshot seq."""
    batches = _make_batches(seed=5, n_batches=10)
    journal_path = str(tmp_path / "journal.log")
    snapshot_path = str(tmp_path / "snapshot.bin")
    registry = SketchRegistry(n_shards=2)
    journal = IngestJournal(journal_path)
    for name, config in _metrics(policy):
        journal.append_create(name, config)
        registry.create(name, config)
    for i, (name, values) in enumerate(batches):
        journal.append_ingest(name, values)
        registry.ingest(name, values)
        if i == 5:
            # crash window: snapshot renamed into place, rotation never ran
            write_snapshot(snapshot_path, registry, seq=journal.seq)
    journal.close()

    recovered, _ = _recover(journal_path, snapshot_path)
    assert_bit_identical(recovered, _reference(policy, batches))
