"""Windowed & time-decayed sketches: semantics, merge identity, wire.

The load-bearing claims from :mod:`repro.windows`:

* a :class:`WindowedSketch` query is *bit-identical* to the offline
  §4.9 ``merge_serialized`` of its live bucket payloads -- values and
  certified ``error_bound()`` both;
* time is event time: liveness follows the watermark, replaying the
  same ``(values, t)`` batches reproduces the ring bit-for-bit, and
  queries never mutate state;
* serialisation round-trips exactly for both wrapper classes over all
  three inner engines, including the empty-ring and single-bucket
  edge cases, and the engine registry dispatches on the magic;
* :class:`ExpDecaySketch` weights generation ``g`` by
  ``2 ** (-age_g / half_life)``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.engines import dumps_any, engine_of, loads_any
from repro.core.errors import (
    ConfigurationError,
    EmptySummaryError,
    StorageError,
)
from repro.core.serialize import merge_serialized
from repro.windows import (
    DECAY_MAGIC,
    MIN_BUCKET_S,
    WINDOW_MAGIC,
    ExpDecaySketch,
    WindowedSketch,
    parse_duration,
    window_config,
)

T0 = 1_000_000.0  # fixed event-time origin, aligned to whole buckets
PHIS = [0.1, 0.25, 0.5, 0.75, 0.9]

ENGINES = ["paper", "kll", "frugal"]
MERGEABLE = ["paper", "kll"]


def _windowed(engine, *, window=60.0, slide=None, clock=None):
    if engine == "frugal" and slide not in (None, window):
        pytest.skip("frugal windows are tumbling-only")
    return WindowedSketch(
        eps=0.02, window=window, slide=slide, engine=engine, clock=clock
    )


def _decay(engine, *, half_life=60.0, clock=None):
    return ExpDecaySketch(
        eps=0.02, half_life=half_life, engine=engine, clock=clock
    )


# -- duration / config parsing ------------------------------------------------


def test_parse_duration_spellings():
    assert parse_duration(300) == 300.0
    assert parse_duration("300") == 300.0
    assert parse_duration("250ms") == 0.25
    assert parse_duration("5m") == 300.0
    assert parse_duration("1.5h") == 5400.0
    assert parse_duration("2d") == 172800.0


@pytest.mark.parametrize("bad", ["", "5x", "abc", -1, 0, float("inf"), None])
def test_parse_duration_rejects(bad):
    with pytest.raises(ConfigurationError):
        parse_duration(bad)


def test_window_config_validation():
    assert window_config("5m", "1m", None) == (300.0, 60.0, 0.0)
    assert window_config(None, None, "1h") == (0.0, 0.0, 3600.0)
    assert window_config(None, None, None) == (0.0, 0.0, 0.0)
    with pytest.raises(ConfigurationError, match="mutually exclusive"):
        window_config("5m", None, "1h")
    with pytest.raises(ConfigurationError, match="slide= requires"):
        window_config(None, "1m", None)


def test_window_construction_rejects_bad_grids():
    with pytest.raises(ConfigurationError, match="cannot exceed"):
        WindowedSketch(window=60.0, slide=120.0)
    with pytest.raises(ConfigurationError, match="divide"):
        WindowedSketch(window=60.0, slide=7.0)
    with pytest.raises(ConfigurationError, match="tumbling"):
        WindowedSketch(window=60.0, slide=10.0, engine="frugal")


def test_bucket_width_floor():
    """A bucket below 1 ms indexes no real timestamp: refused where the
    ring is built, so the facade refuses it and ``extend`` never sees it."""
    assert MIN_BUCKET_S == 0.001
    for make in (
        lambda: WindowedSketch(window=1e-300),
        lambda: WindowedSketch(window=1.0, slide=0.0005),
        lambda: ExpDecaySketch(half_life="3ms"),  # generations of 0.75 ms
        lambda: repro.Sketch(eps=0.01, window=1e-300),
        lambda: repro.Sketch(eps=0.01, decay=0.002),
    ):
        with pytest.raises(ConfigurationError, match="bucket width"):
            make()
    assert WindowedSketch(window="6ms", slide="1ms").n_buckets == 6
    assert ExpDecaySketch(half_life="4ms").bucket_s == MIN_BUCKET_S


@pytest.mark.parametrize(
    "sketch,fields,narrow",
    [
        (WindowedSketch(window=60.0, slide=10.0), (60.0, 10.0), (0.003, 0.0005)),
        (ExpDecaySketch(half_life=60.0), (60.0, 0.0), (0.002, 0.0)),
    ],
    ids=["window", "decay"],
)
def test_decoded_narrow_bucket_is_storage_error(sketch, fields, narrow):
    raw = sketch.to_bytes()
    at = raw.index(struct.pack("<dd", *fields))
    bad = raw[:at] + struct.pack("<dd", *narrow) + raw[at + 16 :]
    with pytest.raises(StorageError, match="bucket width"):
        loads_any(bad)
    with pytest.raises(StorageError, match="bucket width"):
        type(sketch).from_bytes(bad)


# -- window == offline §4.9 merge ---------------------------------------------


@pytest.mark.parametrize("engine", MERGEABLE)
def test_sliding_query_is_offline_merge_bit_identical(engine):
    """The windowed answer == merge_serialized of the live buckets."""
    rng = np.random.default_rng(7)
    win = _windowed(engine, window=60.0, slide=10.0)
    offline = {}  # bucket index -> standalone sketch fed the same data
    for i in range(6):
        batch = rng.normal(size=400)
        t = T0 + i * 10.0 + 3.0
        win.extend_at(batch, t)
        ref = _windowed(engine, window=60.0, slide=10.0)
        ref.extend_at(batch, t)
        offline[i] = dumps_any(ref._pairs()[0][1])
    merged = merge_serialized([offline[i] for i in range(6)])
    assert win.n == merged.n == 2400
    assert win.quantiles(PHIS) == merged.quantiles(PHIS)
    assert win.error_bound() == float(merged.error_bound())
    assert win.cdf(0.0) == merged.cdf(0.0)


def test_tumbling_window_is_single_bucket():
    win = _windowed("paper", window=60.0)
    assert win.n_buckets == 1
    win.extend_at(np.arange(1000.0), T0)
    assert win.n == 1000
    # no collapses at this size: bound 0, answer exact up to rank rounding
    assert abs(float(win.quantile(0.5)) - 500) <= max(win.error_bound(), 1.0)


# -- event-time semantics: watermark, expiry, out-of-order --------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_expiry_follows_watermark_not_wall_clock(engine):
    win = _windowed(engine, window=60.0, clock=lambda: T0)
    win.extend_at(np.full(100, 1.0), T0)
    # a much later batch advances the watermark; the old bucket expires
    win.extend_at(np.full(50, 9.0), T0 + 600.0)
    assert win.n == 50
    assert float(win.quantile(0.5)) == pytest.approx(9.0, abs=1e-9)


def test_out_of_order_within_span_lands_in_its_bucket():
    win = _windowed("paper", window=60.0, slide=10.0)
    win.extend_at(np.full(100, 5.0), T0 + 50.0)
    win.extend_at(np.full(100, 1.0), T0 + 15.0)  # late but still live
    assert win.n == 200
    assert win.dropped == 0
    assert sorted(idx for idx, _ in win._live()) == sorted(
        int((T0 + dt) // 10.0) for dt in (15.0, 50.0)
    )


def test_too_old_batches_are_dropped_and_counted():
    win = _windowed("paper", window=60.0, slide=10.0)
    win.extend_at(np.full(10, 1.0), T0 + 600.0)
    win.extend_at(np.full(25, 2.0), T0)  # older than the ring span
    assert win.dropped == 25
    assert win.total == 10  # dropped batches never count as ingested
    assert win.n == 10


def test_queries_do_not_mutate_the_ring():
    win = _windowed("paper", window=60.0, slide=10.0)
    win.extend_at(np.arange(500.0), T0)
    before = win.to_bytes()
    win.quantiles(PHIS)
    win.describe()
    win.cdf([10.0, 250.0])
    assert win.to_bytes() == before


def test_empty_window_raises_empty_summary():
    win = _windowed("paper", window=60.0)
    assert win.n == 0
    with pytest.raises(EmptySummaryError):
        win.quantile(0.5)
    dec = _decay("paper")
    assert dec.n == 0
    with pytest.raises(EmptySummaryError):
        dec.quantile(0.5)


def test_plain_extend_stamps_injected_clock():
    now = [T0]
    win = _windowed("paper", window=60.0, slide=10.0, clock=lambda: now[0])
    win.extend(np.full(10, 1.0))
    now[0] = T0 + 600.0  # window has fully passed on the fake clock
    win.extend(np.full(10, 2.0))
    assert win.n == 10
    assert float(win.quantile(0.5)) == pytest.approx(2.0, abs=1e-9)


# -- exponential decay semantics ----------------------------------------------


def test_decay_halves_weight_per_half_life():
    dec = _decay("paper", half_life=60.0)
    dec.extend_at(np.zeros(1000), T0)
    dec.extend_at(np.ones(1000), T0 + 60.0)  # old batch now one HL aged
    # weighted mass: 0.5 * 1000 zeros + 1.0 * 1000 ones
    assert dec.raw_n == 2000
    assert dec.n == 1500
    assert dec.cdf(0.5) == pytest.approx(500.0 / 1500.0, abs=0.02)
    assert dec.rank(0.5) == pytest.approx(500, abs=1500 * 0.03)


def test_decay_quantile_inverts_weighted_rank():
    dec = _decay("paper", half_life=60.0)
    dec.extend_at(np.zeros(1000), T0)
    dec.extend_at(np.ones(1000), T0 + 60.0)
    # phi above the zeros' weighted share must land on the new value
    assert float(dec.quantile(0.9)) == pytest.approx(1.0, abs=1e-6)
    assert float(dec.quantile(0.1)) == pytest.approx(0.0, abs=1e-6)


def test_decay_generations_fall_off_the_ring():
    dec = _decay("paper", half_life=1.0)
    dec.extend_at(np.zeros(100), T0)
    # 20 half-lives later: weight 2**-20 is far past the 2**-10 horizon
    dec.extend_at(np.ones(100), T0 + 20.0)
    assert dec.raw_n == 100
    assert float(dec.quantile(0.5)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("engine", MERGEABLE)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decay_quantiles_against_exact_weighted_oracle(engine, seed):
    """Generation g of G carries weight 2**-((G-1-g)/4) (one generation
    per quarter half-life).  ``quantile(0)`` is the stream minimum, and
    every answer's exact weighted rank interval lies within
    ``error_bound()`` of ``phi * W``."""
    rng = np.random.default_rng(seed)
    half_life = 60.0
    dec = _decay(engine, half_life=half_life)
    generations = [rng.lognormal(0.0, 1.5, 1500) for _ in range(4)]
    step = half_life / 4
    for g, values in enumerate(generations):
        dec.extend_at(values, T0 + g * step)
    weights = [2.0 ** (-(len(generations) - 1 - g) / 4) for g in range(4)]
    sorted_gens = [np.sort(v) for v in generations]
    total = sum(w * len(v) for w, v in zip(weights, generations))
    bound = dec.error_bound()
    assert dec.quantile(0.0) == min(v.min() for v in generations)
    for phi in [0.0, 0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0]:
        q = dec.quantile(phi)
        below = sum(
            w * np.searchsorted(v, q, side="left")
            for w, v in zip(weights, sorted_gens)
        )
        below_eq = sum(
            w * np.searchsorted(v, q, side="right")
            for w, v in zip(weights, sorted_gens)
        )
        target = phi * total
        error = max(0.0, below - target, target - below_eq)
        assert error <= bound, (phi, q, error, bound)


@pytest.mark.parametrize("engine", MERGEABLE)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decay_extremes_are_the_stream_extremes(engine, seed):
    """``quantile(1)`` is the stream maximum, not the largest value a
    generation still stores, just as ``quantile(0)`` is the minimum."""
    rng = np.random.default_rng(seed)
    dec = _decay(engine)
    # enough values that neither engine still stores every maximum
    generations = [rng.lognormal(0.0, 1.5, 5000) for _ in range(4)]
    for g, values in enumerate(generations):
        dec.extend_at(values, T0 + g * 15.0)
    assert dec.quantile(1.0) == max(v.max() for v in generations)
    assert dec.quantile(0.0) == min(v.min() for v in generations)
    assert dec.quantiles([0.0, 1.0]) == [dec.quantile(0.0), dec.quantile(1.0)]


# -- absorb (cluster fan-in path) ---------------------------------------------


@pytest.mark.parametrize("engine", MERGEABLE)
def test_absorb_same_grid_equals_union_ring(engine):
    rng = np.random.default_rng(11)
    a = _windowed(engine, window=60.0, slide=10.0)
    b = _windowed(engine, window=60.0, slide=10.0)
    union = _windowed(engine, window=60.0, slide=10.0)
    for i in range(5):
        batch_a = rng.normal(size=300)
        batch_b = rng.normal(size=200)
        t = T0 + i * 10.0
        a.extend_at(batch_a, t)
        b.extend_at(batch_b, t + 2.0)  # same bucket, different offset
        union.extend_at(batch_a, t)
        union.extend_at(batch_b, t + 2.0)
    b_before = b.to_bytes()
    a.absorb(b)
    assert b.to_bytes() == b_before  # absorb must not consume its arg
    assert a.n == union.n
    assert a.quantiles(PHIS) == union.quantiles(PHIS)
    assert a.error_bound() == union.error_bound()


def test_absorb_rejects_config_mismatch():
    a = _windowed("paper", window=60.0, slide=10.0)
    b = _windowed("paper", window=60.0, slide=20.0)
    with pytest.raises(ConfigurationError, match="different"):
        a.absorb(b)
    with pytest.raises(ConfigurationError, match="different"):
        _decay("paper", half_life=60.0).absorb(_decay("paper", half_life=30.0))


def test_absorb_overlapping_frugal_buckets_refused():
    a = _windowed("frugal", window=60.0)
    b = _windowed("frugal", window=60.0)
    a.extend_at(np.arange(10.0), T0)
    b.extend_at(np.arange(10.0), T0)
    with pytest.raises(ConfigurationError, match="not mergeable"):
        a.absorb(b)


def test_absorb_disjoint_frugal_buckets_allowed():
    # tumbling frugal rings CAN fold when their buckets don't collide
    a = _windowed("frugal", window=60.0)
    b = _windowed("frugal", window=60.0)
    a.extend_at(np.arange(100.0), T0)
    b.extend_at(np.arange(100.0, 200.0), T0 + 60.0)
    a.absorb(b)
    assert a.n == 100  # b's newer bucket expired a's older one


# -- serialisation ------------------------------------------------------------

_CASES = [
    pytest.param(cls, engine, id=f"{cls.__name__}-{engine}")
    for cls in (WindowedSketch, ExpDecaySketch)
    for engine in ENGINES
]


def _build(cls, engine):
    if cls is WindowedSketch:
        slide = None if engine == "frugal" else 10.0
        return WindowedSketch(
            eps=0.02, window=60.0, slide=slide, engine=engine
        )
    return ExpDecaySketch(eps=0.02, half_life=60.0, engine=engine)


@pytest.mark.parametrize("cls,engine", _CASES)
def test_roundtrip_empty_ring(cls, engine):
    sk = _build(cls, engine)
    raw = sk.to_bytes()
    back = cls.from_bytes(raw)
    assert back.to_bytes() == raw
    assert back.n == 0
    with pytest.raises(EmptySummaryError):
        back.quantile(0.5)


@pytest.mark.parametrize("cls,engine", _CASES)
def test_roundtrip_single_bucket(cls, engine):
    sk = _build(cls, engine)
    sk.extend_at(np.arange(500.0), T0)
    raw = sk.to_bytes()
    back = cls.from_bytes(raw)
    assert back.to_bytes() == raw
    assert back.n == sk.n
    assert back.quantiles(PHIS) == sk.quantiles(PHIS)


@pytest.mark.parametrize("cls,engine", _CASES)
def test_roundtrip_multi_bucket_via_registry(cls, engine):
    if cls is WindowedSketch and engine == "frugal":
        step = 60.0  # tumbling: advance whole windows
    else:
        step = 10.0
    sk = _build(cls, engine)
    rng = np.random.default_rng(3)
    for i in range(4):
        sk.extend_at(rng.normal(size=200), T0 + i * step)
    raw = dumps_any(sk)
    assert engine_of(raw) == (
        "windowed" if cls is WindowedSketch else "expdecay"
    )
    back = loads_any(raw)
    assert type(back) is cls
    assert back.to_bytes() == sk.to_bytes()
    assert back.n == sk.n
    assert back.quantiles(PHIS) == sk.quantiles(PHIS)
    assert back.error_bound() == sk.error_bound()
    assert back.total == sk.total and back.dropped == sk.dropped


def test_magic_constants_match_registry():
    assert WINDOW_MAGIC == b"WINSKT01"
    assert DECAY_MAGIC == b"EXDSKT01"
    win = WindowedSketch(window=60.0)
    assert win.to_bytes()[:8] == WINDOW_MAGIC
    dec = ExpDecaySketch(half_life=60.0)
    assert dec.to_bytes()[:8] == DECAY_MAGIC


# -- replay determinism (the journal-recovery contract) -----------------------

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

#: (values, dt) batches: uneven sizes, timestamps that move forward and
#: backward inside (and occasionally beyond) the ring span
batches = st.lists(
    st.tuples(
        st.lists(finite_floats, min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


@COMMON
@given(batches=batches, engine=st.sampled_from(MERGEABLE))
def test_replay_reproduces_ring_bit_identically(batches, engine):
    """Feeding the same (values, t) pairs twice gives identical bytes --
    the property journal recovery relies on."""
    a = _windowed(engine, window=60.0, slide=10.0)
    b = _windowed(engine, window=60.0, slide=10.0)
    for values, dt in batches:
        arr = np.asarray(values, dtype=np.float64)
        a.extend_at(arr, T0 + dt)
    for values, dt in batches:
        arr = np.asarray(values, dtype=np.float64)
        b.extend_at(arr, T0 + dt)
    assert a.to_bytes() == b.to_bytes()
    # ... and a serialised copy keeps answering identically
    back = loads_any(dumps_any(a))
    if a.n:
        assert back.quantiles(PHIS) == a.quantiles(PHIS)


@COMMON
@given(batches=batches)
def test_decay_roundtrip_property(batches):
    sk = _decay("paper", half_life=30.0)
    for values, dt in batches:
        sk.extend_at(np.asarray(values, dtype=np.float64), T0 + dt)
    back = ExpDecaySketch.from_bytes(sk.to_bytes())
    assert back.to_bytes() == sk.to_bytes()
    assert back.n == sk.n
    if sk.raw_n:
        assert back.quantiles(PHIS) == sk.quantiles(PHIS)
        assert back.error_bound() == sk.error_bound()
