"""Server memory follows sketch state, not traffic.

The server decodes INGEST values as zero-copy views into whole socket
reads.  If any engine kept such a view, every metric that received one
batch would pin a receive chunk (up to ``READ_CHUNK``) until its next
batch -- possibly forever -- and resident memory would grow with the
traffic a server has seen rather than with what it summarises.

The same holds for the per-request ledgers -- the exactly-once token
window and the recent-rate window -- whose memory follows their size in
bytes, not a count of Python objects.

These tests measure Python-level allocations with ``tracemalloc`` (numpy
reports its buffers to it), so they are exact and do not depend on the
allocator returning pages to the OS.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.service import metrics as service_metrics
from repro.service.client import QuantileClient
from repro.service.metrics import RecentRate
from repro.service.registry import DEFAULT_DEDUP_CAPACITY, DedupWindow
from repro.service.server import ServerThread

KIB = 1 << 10
MIB = 1 << 20
ROUNDS = 40


@pytest.fixture
def traced():
    gc.collect()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _retained() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_cold_kll_metrics_do_not_pin_receive_chunks(traced):
    rng = np.random.default_rng(5)
    big = rng.lognormal(size=MIB // 8)  # one 1 MiB batch
    small = rng.lognormal(size=64)
    with ServerThread(n_shards=2) as server:
        with QuantileClient("127.0.0.1", server.port) as client:
            client.create("mem/paper", eps=0.01, n=1 << 30)
            for i in range(ROUNDS):
                client.create(f"mem/kll/{i}", engine="kll", eps=0.01)
            # one warm-up round: first-use allocations (buffers, caches,
            # the paper metric's first NEW buffers) are not growth
            client.ingest_nowait("mem/paper", big)
            client.drain()
            before = _retained()
            for i in range(ROUNDS):
                # pipelined, so both frames share the server's socket
                # reads: the 64 values are a view into a ~1 MiB chunk
                client.ingest_nowait("mem/paper", big)
                client.ingest_nowait(f"mem/kll/{i}", small)
                client.drain()
            growth = _retained() - before
            for i in range(ROUNDS):
                assert client.describe(f"mem/kll/{i}")["n"] == small.size
    # sketch state for 40 x 64 values plus the paper metric's b x k
    # buffers is well under a MiB; one pinned chunk per KLL metric
    # would be tens of MiB
    assert growth < 8 * MIB, f"retained {growth / MIB:.1f} MiB"


def _filled_window(n_tokens: int) -> DedupWindow:
    window = DedupWindow()
    token_high = 0x5EED5EED << 32  # the client's token layout
    for i in range(n_tokens):
        window.record(token_high | (i + 1), {"seq": i + 1, "count": 64})
    return window


def test_full_dedup_window_is_compact(traced):
    before = _retained()
    window = _filled_window(DEFAULT_DEDUP_CAPACITY)
    size = _retained() - before
    assert len(window) == DEFAULT_DEDUP_CAPACITY
    # flat columns plus the index: ~33 B per token, not a Python
    # object per entry (~170 B)
    assert size <= 4 * MIB, f"window holds {size / MIB:.2f} MiB"
    assert window.nbytes <= size


def test_small_dedup_window_does_not_preallocate(traced):
    # a cluster node sees a few thousand tokens: its ring must follow
    # them, not the 65 536-token capacity
    before = _retained()
    window = _filled_window(1000)
    size = _retained() - before
    assert len(window) == 1000
    assert size <= 128 * KIB, f"window holds {size / KIB:.0f} KiB"


class _FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def test_recent_rate_is_a_constant_size_window(traced, monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(service_metrics.time, "monotonic", clock)
    recent = RecentRate()
    assert recent.rate() == 0.0
    # a steady 100 elements every 10 ms: 10 000 elements/s
    for _ in range(2000):
        recent.add(100)
        clock.now += 0.01
    assert recent.rate() == pytest.approx(10_000, rel=0.02)
    # 10 s after the last event every bucket has left the window
    clock.now += 10.0
    assert recent.rate() == 0.0
    # 100 k more batches retain nothing: the ring is fixed-size
    recent.add(1)
    before = _retained()
    for _ in range(100_000):
        recent.add(64)
        clock.now += 0.001
    growth = _retained() - before
    assert growth <= 4 * KIB, f"retained {growth} B"
    assert recent.rate() == pytest.approx(64_000, rel=0.02)
