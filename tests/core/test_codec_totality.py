"""Every sketch decoder is total on hostile bytes.

All six formats decode through one checked reader and end with a state
check, so a payload either raises :class:`StorageError` or loads a
sketch that answers a query, an extend and a re-load.  One small sample
per format; every truncation, and every single-byte value at every
position.  For the two ring formats only the ring's own fields mutate
-- its header and the bucket records -- because the bytes of each inner
payload are the inner format's own case.
"""

from __future__ import annotations

import io
import struct
import tracemalloc

import numpy as np
import pytest

import repro
from repro.core.engines import dumps_any, load_any_from, loads_any
from repro.core.errors import (
    ConfigurationError,
    EmptySummaryError,
    StorageError,
)
from repro.core.framework import QuantileFramework
from repro.core.frugal import FrugalSketch
from repro.core.kll import KLLSketch
from repro import windows
from repro.windows import ExpDecaySketch, WindowedSketch

PHIS = [0.0, 0.5, 1.0]
T0 = 1_000_000.0
#: the most buckets a window ring may hold (docs/api.md)
RING_CAP = 1 << 16


def _values(n, seed=3):
    return np.random.default_rng(seed).lognormal(size=n)


def _paper():
    fw = QuantileFramework.from_accuracy(0.1, 1_000)
    fw.extend(_values(150))  # full buffers and a staged tail
    return fw


def _kll():
    sk = KLLSketch(k=8, seed=1)
    sk.extend(_values(200))
    return sk


def _frugal():
    sk = FrugalSketch(seed=1)
    sk.extend(_values(200))
    return sk


def _window():
    sk = WindowedSketch(eps=0.1, window=30.0, slide=10.0, n=1_000)
    for i in range(3):
        sk.extend_at(_values(60, seed=i), T0 + 10 * i)
    return sk


def _decay():
    sk = ExpDecaySketch(eps=0.1, half_life=20.0, engine="kll")
    for i in range(2):
        sk.extend_at(_values(60, seed=i), T0 + 10 * i)
    return sk


def _adaptive():
    """Three closed stages and a staged tail."""
    sk = repro.Sketch(eps=0.1, initial_capacity=16)
    sk.extend(_values(200))
    assert sk.n_stages == 4
    return sk


SAMPLES = {
    b"MRLSKT01": _paper,
    b"KLLSKT01": _kll,
    b"FRGSKT01": _frugal,
    b"WINSKT01": _window,
    b"EXDSKT01": _decay,
    b"ADPSKT01": _adaptive,
}
MAGICS = [pytest.param(magic, id=magic.decode()) for magic in SAMPLES]


def _sample(magic):
    raw = dumps_any(SAMPLES[magic]())
    assert raw[:8] == magic
    return raw


def _ring_fields(raw):
    """Positions of a ring payload's own bytes: the header and every
    bucket record, skipping the inner payloads."""
    pos = 8 + 2 + 1 + 8 + 8
    pos += 2 + struct.unpack_from("<H", raw, pos)[0] + 4
    pos += 2 + 8 * struct.unpack_from("<H", raw, pos)[0] + 4 * 8
    (n_buckets,) = struct.unpack_from("<I", raw, pos)
    fields = list(range(pos + 4))
    pos += 4
    for _ in range(n_buckets):
        fields.extend(range(pos, pos + 12))
        pos += 12 + struct.unpack_from("<I", raw, pos + 8)[0]
    assert pos == len(raw)
    return fields


def _answers(sk, certified):
    try:
        assert len(sk.quantiles(PHIS)) == len(PHIS)
    except EmptySummaryError:
        assert sk.n == 0
    bound = sk.error_bound()
    assert np.isfinite(bound) if certified else bound == np.inf


def _decode_or_refuse(raw, certified):
    try:
        sk = loads_any(raw)
    except StorageError:
        return
    _answers(sk, certified)
    more = np.arange(5.0)
    if hasattr(sk, "extend_at"):
        # into the newest bucket, or at 0 if its start is out of range
        t = max(sk.watermark_index, 0) * sk.bucket_s
        sk.extend_at(more, t if np.isfinite(t) else 0.0)
    else:
        sk.extend(more)
    _answers(loads_any(dumps_any(sk)), certified)


@pytest.mark.parametrize("magic", MAGICS)
def test_every_truncation_is_refused(magic):
    raw = _sample(magic)
    for cut in range(len(raw)):
        with pytest.raises(StorageError):
            loads_any(raw[:cut])
        with pytest.raises(StorageError):
            load_any_from(io.BytesIO(raw[:cut]))


@pytest.mark.parametrize("byte", [0x00, 0x01, 0x7F, 0x80, 0xFF])
@pytest.mark.parametrize("magic", MAGICS)
def test_every_single_byte_value_at_every_position(magic, byte):
    raw = _sample(magic)
    ring = magic in (b"WINSKT01", b"EXDSKT01")
    for pos in _ring_fields(raw) if ring else range(len(raw)):
        if raw[pos] == byte:
            continue  # no mutation: the sample itself
        mutated = bytearray(raw)
        mutated[pos] = byte
        _decode_or_refuse(bytes(mutated), magic != b"FRGSKT01")


def test_ring_bucket_cap():
    with pytest.raises(ConfigurationError, match="buckets"):
        WindowedSketch(window=RING_CAP + 1, slide=1.0)
    with pytest.raises(ConfigurationError, match="buckets"):
        WindowedSketch(window=1e300, slide=1e-300)  # window/slide is inf
    assert WindowedSketch(window=RING_CAP, slide=1.0).n_buckets == RING_CAP
    assert windows.MAX_RING_BUCKETS == RING_CAP


def test_hostile_ring_size_is_refused_before_allocating():
    """An empty tumbling ring is 86 bytes; rewriting its window to
    60 * 2**22 s asks for a 2**22-bucket ring."""
    raw = bytearray(WindowedSketch(window=60.0).to_bytes())
    assert len(raw) == 86
    window_at = 8 + 2 + 1 + 8 + 8 + 2 + len(b"new") + 4 + 2
    assert struct.unpack_from("<d", raw, window_at)[0] == 60.0
    struct.pack_into("<d", raw, window_at, 60.0 * 2**22)
    tracemalloc.start()
    try:
        with pytest.raises(StorageError):
            loads_any(bytes(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
