"""Server memory follows sketch state, not traffic.

The server decodes INGEST values as zero-copy views into whole socket
reads.  If any engine kept such a view, every metric that received one
batch would pin a receive chunk (up to ``READ_CHUNK``) until its next
batch -- possibly forever -- and resident memory would grow with the
traffic a server has seen rather than with what it summarises.

The same holds for the per-request ledgers -- the exactly-once token
window and the recent-rate window -- whose memory follows their size in
bytes, not a count of Python objects; for the banks' partition step,
which must not keep its peak size; and for the bookkeeping around each
small sketch, which must not cost much more than the sketch's data.

These tests measure Python-level allocations with ``tracemalloc`` (numpy
reports its buffers to it), so they are exact and do not depend on the
allocator returning pages to the OS.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kll as kll_module
from repro.core import serialize
from repro.core.bank import SketchBank
from repro.core.framework import QuantileFramework
from repro.core.frugal import FrugalBank
from repro.core.kll import KLLSketch
from repro.core.policies import POLICY_NAMES, make_policy
from repro.obs import hooks
from repro.obs.metrics import MetricsRegistry
from repro.service import metrics as service_metrics
from repro.service.client import QuantileClient
from repro.service.metrics import RecentRate
from repro.service.protocol import MetricConfig
from repro.service.registry import (
    DEFAULT_DEDUP_CAPACITY,
    DedupWindow,
    SketchRegistry,
)
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


# -- per-metric footprint ---------------------------------------------------

#: metrics per engine in the footprint measurement
N_METRICS = 600
#: one 64-value batch per metric: 512 B of data
BATCH = 64


def _config(engine: str) -> MetricConfig:
    # a fresh object per CREATE, as the wire decoder makes them
    if engine == "paper":
        return MetricConfig("fixed", 0.01, 10_000_000, "new", "paper")
    return MetricConfig("fixed", 0.01, None, "new", engine)


@pytest.fixture
def observed():
    # obs on, as ``repro serve`` runs it
    hooks.reset()
    hooks.enable(registry=MetricsRegistry())
    try:
        yield
    finally:
        hooks.reset()


# Bytes per metric beyond its 512 B of data, with everything a metric
# brings counted: name, registry entry, config, sketch object, its
# containers and its obs stats.  Measured (Python 3.11, x86_64): paper
# 1 136 before configs were shared and the sketch objects slotted, 696
# after; KLL 1 042 and 718.  Frugal holds no buffer, so its whole
# footprint is bounded: about 420 B, and about 1 500 here when the bank
# kept a partition scratch sized to the largest drain.
@pytest.mark.parametrize(
    "engine, data_bytes, bound",
    [("paper", 8 * BATCH, 900), ("kll", 8 * BATCH, 900), ("frugal", 0, 640)],
)
def test_metric_costs_its_data(observed, engine, data_bytes, bound):
    registry = SketchRegistry(n_shards=4)
    values = np.random.default_rng(3).lognormal(size=BATCH)
    # warm-up metrics: first-use caches, handles and bank growth are
    # not per-metric
    for i in range(64):
        registry.create(f"warm/{i}", _config(engine))
        registry.enqueue(f"warm/{i}", values.copy())
    registry.apply_all()
    gc.collect()
    tracemalloc.start()
    try:
        before = _retained()
        for i in range(N_METRICS):
            name = f"fleet/{engine}/{i}"
            registry.create(name, _config(engine))
            registry.enqueue(name, values.copy())
        registry.apply_all()
        per_metric = (_retained() - before) / N_METRICS
    finally:
        tracemalloc.stop()
    assert registry.get(f"fleet/{engine}/0").count == BATCH
    beyond = per_metric - data_bytes
    assert beyond <= bound, f"{engine}: {beyond:.0f} B beyond data"


def test_equal_configs_share_one_object():
    registry = SketchRegistry(n_shards=2)
    entries = [
        registry.create(f"m/{engine}/{i}", _config(engine))[0]
        for engine in ("paper", "kll", "frugal")
        for i in range(3)
    ]
    for group in (entries[0:3], entries[3:6], entries[6:9]):
        assert all(e.config is group[0].config for e in group)
    assert entries[0].config is not entries[3].config
    # a restore installs under the shared config too
    payload = registry.fetch_serialized("m/kll/0")
    registry.install_serialized("m/kll/new", _config("kll"), payload)
    assert registry.get("m/kll/new").config is entries[3].config


def test_policies_are_shared_instances():
    for name in POLICY_NAMES:
        assert make_policy(name) is make_policy(name)
    assert make_policy("mp") is make_policy("munro-paterson")
    assert make_policy("ARS") is make_policy("alsabti-ranka-singh")
    a, b = QuantileFramework(4, 8), QuantileFramework(5, 9)
    assert a.policy is b.policy is make_policy("new")


_chunks = st.lists(
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=0,
        max_size=40,
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(POLICY_NAMES),
    b=st.integers(2, 7),
    k=st.integers(1, 9),
    first=_chunks,
    second=_chunks,
)
def test_shared_policy_frameworks_match_independent_ones(
    policy, b, k, first, second
):
    # two frameworks on the one shared policy, fed interleaved, each
    # against a framework with a policy instance of its own
    shared = [QuantileFramework(b, k, policy=policy) for _ in range(2)]
    own = [
        QuantileFramework(b, k, policy=type(make_policy(policy))())
        for _ in range(2)
    ]
    assert shared[0].policy is shared[1].policy
    assert own[0].policy is not shared[0].policy
    for i in range(max(len(first), len(second))):
        for stream, pair in zip((first, second), zip(shared, own)):
            if i < len(stream):
                for fw in pair:
                    fw.extend(np.asarray(stream[i], dtype=np.float64))
    for mine, theirs in zip(shared, own):
        assert serialize.dumps(mine) == serialize.dumps(theirs)
        if mine.n:
            phis = [0.0, 0.1, 0.5, 0.9, 1.0]
            assert mine.quantiles(phis) == theirs.quantiles(phis)
            assert mine.error_bound() == theirs.error_bound()


@settings(max_examples=60, deadline=None)
@given(
    first=_chunks,
    second=_chunks,
    k=st.sampled_from([2, 4, 8]),
)
def test_kll_never_writes_the_shared_empty_level(first, second, k):
    empty = kll_module._EMPTY_LEVEL
    a, b = KLLSketch(k=k, seed=1), KLLSketch(k=k, seed=2)
    assert a._levels[0] is empty
    for chunk in first:
        a.extend(np.asarray(chunk, dtype=np.float64))
    for chunk in second:
        b.extend(np.asarray(chunk, dtype=np.float64))
    a.absorb(b)
    restored = KLLSketch.from_bytes(a.to_bytes())
    assert restored.to_bytes() == a.to_bytes()
    assert empty.size == 0 and not empty.flags.writeable
    for sketch in (a, b, restored):
        for level in sketch._levels:
            # an empty level is the shared one; a kept one is private
            assert level is empty if not len(level) else level.flags.owndata
    with pytest.raises(ValueError):
        empty.resize(4)


def _bank_growth(bank, ids: np.ndarray, values: np.ndarray) -> int:
    before = _retained()
    bank.extend(ids, values)
    return _retained() - before


def test_frugal_bank_keeps_no_partition_scratch(traced):
    bank = FrugalBank(n_sketches=512)
    rng = np.random.default_rng(11)
    ids = rng.integers(0, 512, size=1 << 20)
    values = rng.lognormal(size=1 << 20)
    growth = _bank_growth(bank, ids, values)
    # every row already existed: the 1 M-element chunk leaves nothing
    # behind (a kept scratch would be 16 MiB)
    assert growth <= 64 * KIB, f"retained {growth / KIB:.0f} KiB"
    assert int(bank.counts().sum()) == 1 << 20


def test_sketch_bank_keeps_no_partition_scratch(traced):
    bank = SketchBank(0.01, n=1 << 20, n_sketches=64)
    rng = np.random.default_rng(12)
    ids = rng.integers(0, 64, size=1 << 20)
    values = rng.lognormal(size=1 << 20)
    growth = _bank_growth(bank, ids, values)
    sketches = [bank.sketch(i) for i in range(64)]
    buffers = [buf for fw in sketches for buf in fw.full_buffers]
    state = sum(buf.values.nbytes for buf in buffers)
    state += sum(fw._remainder.nbytes for fw in sketches)
    # the sketches' buffers plus a few hundred bytes of object per
    # buffer -- not the 16 MiB of a scratch sized to the chunk
    slack = 64 * KIB + 512 * len(buffers)
    assert growth <= state + slack, (growth, state)
