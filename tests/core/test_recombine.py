"""Every query-time merge of summaries against an exact oracle.

Paper summaries merge by §4.9's recombination
(:func:`repro.core.parallel.recombine`): root buffers concatenate under
one OUTPUT and the bound is Lemma 5 over the forest.  For each merged
path -- windowed paper and KLL, ``merge_serialized`` / ``merge_tagged``
over paper payloads, :class:`ParallelQuantileEngine` with and without
``combine_fanin``, :class:`AdaptiveQuantileSketch` -- the streams are
permutations of ``0..n-1`` (the value of rank ``r`` is ``r - 1``), so:

* every answer's observed rank error is at most ``error_bound()``;
* for paper inputs, the certified bound is no looser than the bound of
  an explicit ``absorb`` fold over copies of the same inputs;
* reading never changes the inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import merge_tagged
from repro.core import serialize
from repro.core.adaptive import AdaptiveQuantileSketch
from repro.core.errors import ConfigurationError, EmptySummaryError
from repro.core.framework import QuantileFramework
from repro.core.parallel import ParallelQuantileEngine, recombine
from repro.windows import WindowedSketch

PHIS = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
T0 = 1_000_000.0


def observed_errors(sketch, n):
    """Rank error of each ``PHIS`` answer on a permutation of 0..n-1."""
    errors = []
    for phi, value in zip(PHIS, sketch.quantiles(PHIS)):
        target = min(max(math.ceil(phi * n), 1), n)
        errors.append(abs(float(value) + 1 - target))
    for value in (0.0, n / 3, n / 2, n - 1.0):
        errors.append(abs(sketch.rank(value) - (math.floor(value) + 1)))
    return errors


def assert_certified(sketch, n):
    bound = sketch.error_bound()
    assert max(observed_errors(sketch, n)) <= bound


def absorb_fold_bound(frameworks):
    """The bound of an ``absorb`` fold over copies of *frameworks*."""
    copies = [serialize.loads(serialize.dumps(fw)) for fw in frameworks]
    fold = copies[0]
    for other in copies[1:]:
        fold.absorb(other)
    return fold.error_bound()


def shards(n, parts, *, epsilon=0.01, design_n=100_000, seed=3):
    data = np.random.default_rng(seed).permutation(n).astype(float)
    frameworks = []
    for part in np.array_split(data, parts):
        fw = QuantileFramework.from_accuracy(epsilon, design_n)
        fw.extend(part)
        frameworks.append(fw)
    return frameworks


# -- windows -----------------------------------------------------------------


def _filled_window(engine, n_buckets=6, per_bucket=20_000):
    n = n_buckets * per_bucket
    data = np.random.default_rng(11).permutation(n).astype(float)
    win = WindowedSketch(
        0.01, window=10.0 * n_buckets, slide=10.0, engine=engine,
        n=100_000,
    )
    for i, part in enumerate(np.split(data, n_buckets)):
        win.extend_at(part[:7], T0 + 10.0 * i)
        win.extend_at(part[7:], T0 + 10.0 * i + 5.0)
    return win, n


@pytest.mark.parametrize("engine", ["paper", "kll"])
def test_window_is_certified(engine):
    win, n = _filled_window(engine)
    assert win.n == n
    assert win.error_bound() > 0
    assert_certified(win, n)


def test_window_bound_no_looser_than_absorb():
    win, _ = _filled_window("paper")
    buckets = [sk for _, sk in win._live()]
    before = [serialize.dumps(sk) for sk in buckets]
    assert win.error_bound() <= absorb_fold_bound(buckets)
    assert [serialize.dumps(sk) for sk in buckets] == before


# -- payload fan-in ----------------------------------------------------------


@pytest.mark.parametrize("parts", [2, 5, 12])
def test_merge_serialized_is_certified(parts):
    n = 120_000
    frameworks = shards(n, parts)
    payloads = [serialize.dumps(fw) for fw in frameworks]
    merged = serialize.merge_serialized(payloads)
    assert merged.n == n
    assert_certified(merged, n)
    assert merged.error_bound() <= absorb_fold_bound(frameworks)


def test_merge_tagged_is_certified():
    n = 90_000
    frameworks = shards(n, 3)
    tagged = [
        (f"n{i}", serialize.dumps(fw)) for i, fw in enumerate(frameworks)
    ]
    merged = merge_tagged(tagged)
    assert_certified(merged, n)
    assert merged.error_bound() <= absorb_fold_bound(frameworks)
    reference = serialize.merge_serialized(raw for _, raw in tagged)
    assert serialize.dumps(merged) == serialize.dumps(reference)


# -- parallel engine ---------------------------------------------------------


@pytest.mark.parametrize("fanin", [None, 2, 8])
def test_parallel_engine_is_certified(fanin):
    n = 150_037  # not buffer-aligned: every worker holds a staged tail
    data = np.random.default_rng(5).permutation(n).astype(float)
    engine = ParallelQuantileEngine(8, b=5, k=200, combine_fanin=fanin)
    for chunk in np.array_split(data, 7):
        engine.dispatch(chunk)
    assert_certified(engine, n)
    assert engine.error_bound() <= absorb_fold_bound(engine.workers)


# -- adaptive ----------------------------------------------------------------


@pytest.mark.parametrize("n", [3_000, 50_000, 200_003])
def test_adaptive_is_certified(n):
    data = np.random.default_rng(9).permutation(n).astype(float)
    sk = AdaptiveQuantileSketch(0.02, initial_capacity=2048)
    for chunk in np.array_split(data, 9):
        sk.extend(chunk)
    before = sk.to_bytes()
    assert_certified(sk, n)
    assert sk.to_bytes() == before


# -- recombine itself --------------------------------------------------------


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    sizes=st.lists(st.integers(0, 3_000), min_size=1, max_size=5),
    fanin=st.sampled_from([None, 2, 3]),
    seed=st.integers(0, 2**16),
)
def test_recombine_reads_without_mutating(sizes, fanin, seed):
    """recombine leaves every input byte-identical and certifies the
    union; its answers do not depend on how often it ran before."""
    n = sum(sizes)
    data = np.random.default_rng(seed).permutation(n).astype(float)
    frameworks, start = [], 0
    for size in sizes:
        fw = QuantileFramework(4, 64)
        fw.extend(data[start : start + size])
        frameworks.append(fw)
        start += size
    before = [serialize.dumps(fw) for fw in frameworks]
    if n == 0:
        with pytest.raises(EmptySummaryError):
            recombine(frameworks, combine_fanin=fanin)
        return
    first = recombine(frameworks, combine_fanin=fanin)
    assert_certified(first, n)
    again = recombine(frameworks, combine_fanin=fanin)
    assert serialize.dumps(again) == serialize.dumps(first)
    assert [serialize.dumps(fw) for fw in frameworks] == before


def test_forest_bound_counts_every_trees_alternation():
    """Four workers each run one weight-2 COLLAPSE at the low offset, so
    their half-rank drifts add up in one direction: the answer for rank
    20 is off by 4, beyond the single-alternation ``(W - C - 1)/2 +
    w_max`` = 3.5.  Lemma 5 per collapsed tree certifies 5."""
    parts = [
        [26, 7, 27, 22, 14, 21],
        [16, 3, 2, 12, 20, 9],
        [5, 4, 15, 23, 19, 1],
        [24, 0, 11, 13, 25, 6],
        [18, 17, 10, 8],
    ]
    frameworks = []
    for part in parts:
        fw = QuantileFramework(2, 2)
        fw.extend(np.array(part, dtype=float))
        frameworks.append(fw)
    sum_w = sum(fw.sum_collapse_weights for fw in frameworks)
    sum_c = sum(fw.n_collapses for fw in frameworks)
    assert (sum_w, sum_c) == (8, 4)
    merged = recombine(frameworks)
    (answer,) = merged.quantiles([19.5 / 28])
    assert abs(answer + 1 - 20) == 4 > (sum_w - sum_c - 1) / 2 + 2
    assert merged.error_bound() == 4 * (2 - 1 + 1) / 2 + 2 - 1 == 5.0


def test_recombine_single_summary_keeps_its_bound():
    (fw,) = shards(40_000, 1)
    merged = recombine([fw])
    assert merged.error_bound() == fw.error_bound()
    assert merged.quantiles(PHIS) == fw.quantiles(PHIS)


def test_recombine_rejects_small_fanin():
    with pytest.raises(ConfigurationError, match="combine_fanin"):
        recombine(shards(1_000, 2), combine_fanin=1)


def test_mixed_k_recombines_but_does_not_serialise():
    small = QuantileFramework(3, 32)
    large = QuantileFramework(3, 64)
    small.extend(np.arange(0.0, 500.0))
    large.extend(np.arange(500.0, 1_000.0))
    merged = recombine([small, large])
    assert_certified(merged, 1_000)
    with pytest.raises(ConfigurationError, match="different k"):
        serialize.dumps(merged)
    with pytest.raises(ConfigurationError, match="capacity k"):
        recombine([small, large], combine_fanin=3)
