"""Frugal-2U engine: bank/sketch equivalence, determinism, wire format."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, EmptySummaryError
from repro.core.frugal import (
    DEFAULT_BANK_PHIS,
    FRUGAL_MAGIC,
    FrugalBank,
    FrugalSketch,
)

N = 50_000


@pytest.fixture(scope="module")
def stream():
    # integer-scale data: the regime Frugal-2U's unit steps are built for
    return np.random.default_rng(9).permutation(N).astype(np.float64)


def _rank_error_fraction(data, est, phi):
    true_rank = np.searchsorted(np.sort(data), est, side="right")
    return abs(true_rank - phi * len(data)) / len(data)


def test_tracked_fractions_converge(stream):
    sk = FrugalSketch(phis=(0.25, 0.5, 0.75), seed=0)
    sk.extend(stream)
    assert sk.n == N
    for phi in (0.25, 0.5, 0.75):
        assert _rank_error_fraction(stream, sk.quantile(phi), phi) <= 0.12


def test_memory_is_constant(stream):
    sk = FrugalSketch(seed=0)
    before = sk.memory_elements
    sk.extend(stream)
    assert sk.memory_elements == before  # ingest never grows the state


def test_bank_matches_per_sketch_bit_identical(stream):
    """One vectorised bank pass == feeding each sketch its subsequence."""
    n_metrics = 64
    rng = np.random.default_rng(4)
    ids = rng.integers(0, n_metrics, stream.size)
    bank = FrugalBank(DEFAULT_BANK_PHIS, seed=0)
    bank.extend(ids, stream)
    solo = FrugalBank(DEFAULT_BANK_PHIS, seed=0)
    for i in range(n_metrics):
        solo.extend_single(i, stream[ids == i])
    for i in range(n_metrics):
        assert bank.quantiles(i, [0.5, 0.99]) == solo.quantiles(i, [0.5, 0.99])
        assert bank.n_of(i) == solo.n_of(i)


def test_chunking_invariance(stream):
    """Counter-mode randomness: state is independent of batch boundaries."""
    whole = FrugalSketch(seed=3)
    whole.extend(stream)
    chunked = FrugalSketch(seed=3)
    for part in np.array_split(stream, 137):
        chunked.extend(part)
    assert chunked.to_bytes() == whole.to_bytes()


def test_memory_bytes_per_metric():
    bank = FrugalBank(DEFAULT_BANK_PHIS, seed=0)
    bank.extend_single(9_999, [1.0])  # materialise 10k metrics
    assert bank.memory_bytes / len(bank) <= 64


def test_error_bound_is_uncertified(stream):
    sk = FrugalSketch(seed=0)
    sk.extend(stream[:100])
    assert sk.error_bound() == float("inf")
    assert sk.describe()["error_bound"] == float("inf")


def test_empty_and_invalid():
    sk = FrugalSketch(seed=0)
    with pytest.raises(EmptySummaryError):
        sk.quantile(0.5)
    with pytest.raises(ConfigurationError):
        sk.extend([np.inf])
    with pytest.raises(ConfigurationError):
        FrugalSketch(phis=(1.5,))


def test_serialization_roundtrip(stream):
    sk = FrugalSketch(phis=(0.5, 0.9), seed=11)
    sk.extend(stream[:10_000])
    raw = sk.to_bytes()
    assert raw[:8] == FRUGAL_MAGIC
    back = FrugalSketch.from_bytes(raw)
    assert back.to_bytes() == raw
    assert back.quantiles([0.5, 0.9]) == sk.quantiles([0.5, 0.9])
    # identical behaviour under further ingest (seed + counters restored)
    sk.extend(stream[10_000:11_000])
    back.extend(stream[10_000:11_000])
    assert back.to_bytes() == sk.to_bytes()


def test_read_from_stops_at_payload_end(stream):
    sk = FrugalSketch(seed=2)
    sk.extend(stream[:500])
    buf = io.BytesIO(sk.to_bytes() + b"XYZ")
    back = FrugalSketch.read_from(buf)
    assert back.n == sk.n
    assert buf.read() == b"XYZ"


def test_adopt_preserves_history_and_future(stream):
    sk = FrugalSketch(phis=DEFAULT_BANK_PHIS, seed=0)
    sk.extend(stream[:5_000])
    before = sk.quantiles([0.5, 0.99])
    bank = FrugalBank(DEFAULT_BANK_PHIS, seed=0)
    row = bank.adopt(sk)
    assert sk.quantiles([0.5, 0.99]) == before
    sk.extend(stream[5_000:6_000])
    assert bank.n_of(row) == 6_000


def test_new_sketch_is_a_fresh_adopted_sketch(stream):
    """A row taken by ``new_sketch`` behaves exactly like a standalone
    sketch adopted into the bank, through growth of the row arrays."""
    built, adopted = FrugalBank(seed=3), FrugalBank(seed=3)
    views = [built.new_sketch() for _ in range(9)]
    solos = [FrugalSketch(DEFAULT_BANK_PHIS, seed=3) for _ in range(9)]
    assert [adopted.adopt(sk) for sk in solos] == [v._row for v in views]
    assert [v._row for v in views] == list(range(9))
    ids = np.random.default_rng(1).integers(0, 9, 4_000)
    built.extend(ids, stream[:4_000])
    adopted.extend(ids, stream[:4_000])
    for view, solo in zip(views, solos):
        assert view.to_bytes() == solo.to_bytes()


def test_adopt_rejects_mismatched_config():
    bank = FrugalBank(DEFAULT_BANK_PHIS, seed=0)
    with pytest.raises(ConfigurationError):
        bank.adopt(FrugalSketch(phis=(0.25,), seed=0))
    with pytest.raises(ConfigurationError):
        bank.adopt(FrugalSketch(phis=DEFAULT_BANK_PHIS, seed=1))
