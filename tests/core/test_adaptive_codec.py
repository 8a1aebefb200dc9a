"""The ``ADPSKT01`` exchange format of the adaptive (unknown-N) sketch.

The default sketch, ``repro.Sketch(eps=...)``, goes through the engine
dispatch like every other format, comes back bit-identical, and its
decoder is total: hostile bytes raise :class:`StorageError` or load a
sketch that answers.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

import repro
from repro.core.adaptive import ADAPTIVE_MAGIC, AdaptiveQuantileSketch
from repro.core.engines import (
    dumps_any,
    engine_of,
    load_any_from,
    loads_any,
)
from repro.core.errors import ConfigurationError, StorageError
from repro.core.serialize import merge_serialized

PHIS = [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]


def _sketch(n, *, eps=0.01, seed=3, **kwargs):
    sk = repro.Sketch(eps=eps, **kwargs)
    sk.extend(np.random.default_rng(seed).lognormal(size=n))
    return sk


def _same(a, b):
    assert dumps_any(a) == dumps_any(b)
    assert a.n == b.n and a.n_stages == b.n_stages
    assert a.error_bound() == b.error_bound()
    if a.n:
        assert a.quantiles(PHIS) == b.quantiles(PHIS)


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 30_000])
def test_default_sketch_round_trips_through_every_entry_point(n):
    sk = _sketch(n)
    assert isinstance(sk, AdaptiveQuantileSketch)
    raw = dumps_any(sk)
    assert raw[:8] == ADAPTIVE_MAGIC
    assert engine_of(raw) == "paper"
    _same(loads_any(raw), sk)
    stream = io.BytesIO(raw + b"next record")
    _same(load_any_from(stream), sk)
    assert stream.read() == b"next record"
    # further ingest stays bit-identical to the original
    back = loads_any(raw)
    more = np.random.default_rng(9).normal(size=9_000)
    sk.extend(more)
    back.extend(more)
    _same(back, sk)


@pytest.mark.parametrize("policy", ["new", "munro-paterson", "ars"])
def test_policy_and_capacity_survive(policy):
    sk = _sketch(3_000, eps=0.05, policy=policy, initial_capacity=64)
    back = loads_any(dumps_any(sk))
    assert back.initial_capacity == 64 and back.n_stages == sk.n_stages
    _same(back, sk)


def test_one_adaptive_payload_merges_two_refuse():
    raw = dumps_any(_sketch(5_000))
    _same(merge_serialized([raw]), loads_any(raw))
    with pytest.raises(ConfigurationError, match="not mergeable"):
        merge_serialized([raw, raw])
    fixed = dumps_any(repro.Sketch(eps=0.01, n=10_000))
    with pytest.raises(ConfigurationError, match="not mergeable"):
        merge_serialized([fixed, raw])


@pytest.mark.parametrize(
    "eps, policy, values",
    [
        (0.05, "munro-paterson", np.random.default_rng(0).normal(size=1000)),
        (0.003, "new", np.arange(8.0)),
    ],
)
def test_stored_pads_that_crowd_out_genuine_ranks(eps, policy, values):
    """A small odd first stage stores a collapsed pad at its output
    weight, so fewer genuine ranks are stored than were ingested.
    Ingest reaches this state: the decoder takes it, and every answer is
    a stored element within the certified bound of its rank."""
    sk = AdaptiveQuantileSketch(eps, initial_capacity=7, policy=policy)
    sk.extend(values)
    genuine = sum(
        b.weight * (len(b) - b.n_low_pad - b.n_high_pad)
        for s in (*sk._closed, sk._active)
        for b in s._snapshot_buffers()
    )
    assert genuine < sk.n
    ordered = np.sort(values)
    answers = sk.quantiles(PHIS)
    assert np.isin(answers, values).all()  # never a pad
    for phi, answer in zip(PHIS, answers):
        rank = max(int(np.ceil(phi * sk.n)), 1)
        low = np.searchsorted(ordered, answer, "left") + 1
        high = np.searchsorted(ordered, answer, "right")
        assert low - sk.error_bound() <= rank <= high + sk.error_bound()
    _same(loads_any(dumps_any(sk)), sk)


def _sample() -> bytes:
    """A small payload with three closed stages and a staged tail."""
    sk = _sketch(200, eps=0.1, initial_capacity=16)
    assert sk.n_stages == 4
    return dumps_any(sk)


def _decode_or_refuse(raw: bytes) -> None:
    try:
        sk = loads_any(raw)
    except StorageError:
        return
    answers = sk.quantiles(PHIS)
    assert len(answers) == len(PHIS)
    assert np.isfinite(sk.error_bound())


def test_every_truncation_is_refused():
    raw = _sample()
    for cut in range(len(raw)):
        with pytest.raises(StorageError):
            loads_any(raw[:cut])
        with pytest.raises(StorageError):
            load_any_from(io.BytesIO(raw[:cut]))


@pytest.mark.parametrize("byte", [0x00, 0x01, 0x7F, 0x80, 0xFF])
def test_every_single_byte_value_at_every_position(byte):
    raw = _sample()
    for pos in range(len(raw)):
        mutated = bytearray(raw)
        mutated[pos] = byte
        _decode_or_refuse(bytes(mutated))
