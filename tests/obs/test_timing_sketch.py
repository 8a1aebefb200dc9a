"""``TimingSketch`` buffers observations and feeds its sketch in batches.

Batched ingest into the MRL framework is bit-identical to one value at
a time, so the buffer must be invisible: after any number of flush
boundaries the percentiles *and* the certified rank bound equal those
of an ``AdaptiveQuantileSketch(epsilon=0.01)`` fed with ``update``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveQuantileSketch
from repro.obs.metrics import _FLUSH_AT, _TIMING_PHIS, TimingSketch


def _expected(reference: AdaptiveQuantileSketch) -> dict:
    values = reference.quantiles(list(_TIMING_PHIS))
    out = {
        f"p{int(phi * 100)}": round(float(v), 4)
        for phi, v in zip(_TIMING_PHIS, values)
    }
    out["n"] = reference.n
    out["certified_rank_bound_fraction"] = round(
        reference.error_bound_fraction(), 6
    )
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_buffered_observe_matches_one_at_a_time(seed):
    values = np.random.default_rng(seed).lognormal(size=50_000)
    assert values.size > 40 * _FLUSH_AT  # many flush boundaries
    timing = TimingSketch()
    reference = AdaptiveQuantileSketch(epsilon=0.01)
    for v in values:
        value = float(v)
        timing.observe(value)
        reference.update(value)
    assert timing.n == reference.n == values.size
    got = timing.percentiles()
    assert got == _expected(reference)
    assert got["certified_rank_bound_fraction"] > 0.0


def test_read_before_flush_counts_buffered_values():
    timing = TimingSketch()
    assert timing.n == 0 and timing.percentiles() is None
    reference = AdaptiveQuantileSketch(epsilon=0.01)
    for v in range(_FLUSH_AT + 10):  # one flush, then ten buffered
        timing.observe(v)
        reference.update(v)
    assert timing.n == _FLUSH_AT + 10
    assert timing.percentiles() == _expected(reference)
    assert timing.percentiles()["n"] == _FLUSH_AT + 10


def test_time_records_milliseconds():
    timing = TimingSketch()
    with timing.time():
        time.sleep(0.02)
    pcts = timing.percentiles()
    assert pcts["n"] == 1
    assert 20.0 <= pcts["p50"] < 20_000.0  # ms, not s
