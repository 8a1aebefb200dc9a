"""Property suite: engines copy what they keep.

The server feeds engines zero-copy ``np.frombuffer`` views of whole
socket reads, and library callers hand over slices of their own
arrays.  An engine that stores such a view instead of a copy both pins
the caller's buffer (memory that follows traffic, not sketch state) and
aliases it: a later write to the source silently rewrites the summary.

For every engine and every composite wrapper, feed slices of one
writable float64 array, overwrite the source with other finite values,
and require the summary -- wire bytes and quantile answers -- to be
bit-identical to a twin that was fed a private copy of the same data.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import serialize
from repro.core.adaptive import AdaptiveQuantileSketch
from repro.core.bank import SketchBank
from repro.core.framework import QuantileFramework
from repro.core.frugal import FrugalBank, FrugalSketch
from repro.core.kll import KLLSketch
from repro.windows import ExpDecaySketch, WindowedSketch

PHIS = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]

COMMON = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _adaptive_state(sk: AdaptiveQuantileSketch) -> bytes:
    closed = b"".join(
        buf.values.tobytes() for stage in sk._closed for buf in stage.buffers
    )
    return closed + serialize.dumps(sk._active)


class _Subject:
    """One engine behind a uniform feed / state / answers face."""

    def __init__(
        self,
        make: Callable[[], Any],
        feed: Callable[[Any, np.ndarray, float], None],
        state: Callable[[Any], bytes],
        answers: Callable[[Any], List[float]],
    ) -> None:
        self.make = make
        self.feed = feed
        self.state = state
        self.answers = answers


def _plain(make: Callable[[], Any], state: Callable[[Any], bytes]) -> _Subject:
    return _Subject(
        make,
        lambda sk, values, t: sk.extend(values),
        state,
        lambda sk: sk.quantiles(PHIS),
    )


def _timed(make: Callable[[], Any]) -> _Subject:
    return _Subject(
        make,
        lambda sk, values, t: sk.extend_at(values, t),
        lambda sk: sk.to_bytes(),
        lambda sk: sk.quantiles(PHIS),
    )


SUBJECTS = {
    "framework": _plain(
        lambda: QuantileFramework(b=6, k=128), serialize.dumps
    ),
    "bank.extend_single": _Subject(
        lambda: SketchBank(0.02, n=1 << 20, n_sketches=2),
        lambda bank, values, t: bank.extend_single(1, values),
        lambda bank: serialize.dumps(bank.sketch(1)),
        lambda bank: bank.quantiles(1, PHIS),
    ),
    "kll": _plain(lambda: KLLSketch(eps=0.05), lambda sk: sk.to_bytes()),
    "frugal.bank": _Subject(
        lambda: FrugalBank(n_sketches=2, seed=3),
        lambda bank, values, t: bank.extend_single(1, values),
        lambda bank: bank.counts().tobytes()
        + np.asarray(bank.quantiles(1, bank.phis)).tobytes(),
        lambda bank: bank.quantiles(1, bank.phis),
    ),
    "frugal.sketch": _Subject(
        lambda: FrugalSketch(seed=3),
        lambda sk, values, t: sk.extend(values),
        lambda sk: sk.to_bytes(),
        lambda sk: sk.quantiles(sk.phis),
    ),
    "adaptive": _plain(
        lambda: AdaptiveQuantileSketch(0.05, initial_capacity=512),
        _adaptive_state,
    ),
}
for _engine in ("paper", "kll", "frugal"):
    # frugal buckets do not merge, so frugal windows must be tumbling
    _slide = 60.0 if _engine == "frugal" else 20.0
    SUBJECTS[f"window.{_engine}"] = _timed(
        lambda e=_engine, s=_slide: WindowedSketch(
            0.05, window=60.0, slide=s, engine=e, n=1 << 20
        )
    )
    SUBJECTS[f"decay.{_engine}"] = _timed(
        lambda e=_engine: ExpDecaySketch(
            0.05, half_life=60.0, engine=e, n=1 << 20
        )
    )


def _summaries(
    subject: _Subject, sizes: List[int], seed: int
) -> Tuple[Tuple[bytes, bytes], Tuple[bytes, bytes]]:
    rng = np.random.default_rng(seed)
    # one extra leading value, so even the first slice is a view with an
    # offset into the source, the shape of a frame inside a socket read
    source = rng.lognormal(mean=4.0, sigma=1.0, size=sum(sizes) + 1)
    private = source.copy()
    fed, twin = subject.make(), subject.make()
    pos = 1
    for i, size in enumerate(sizes):
        t = 10.0 * i
        subject.feed(fed, source[pos : pos + size], t)
        subject.feed(twin, private[pos : pos + size].copy(), t)
        pos += size
    # the caller reuses its buffer: every value changes, all stay finite
    source[:] = rng.uniform(-1e6, -1e3, size=source.size)

    def freeze(sk: Any) -> Tuple[bytes, bytes]:
        answers = np.asarray(subject.answers(sk), dtype=np.float64)
        return subject.state(sk), answers.tobytes()

    return freeze(fed), freeze(twin)


batch_sizes = st.lists(
    st.integers(min_value=1, max_value=6000), min_size=1, max_size=4
)


@pytest.mark.parametrize("name", sorted(SUBJECTS))
@COMMON
@given(sizes=batch_sizes, seed=st.integers(0, 2**16))
@example(sizes=[5], seed=0)  # one small batch: nothing compacts
@example(sizes=[3000, 7], seed=1)  # a compaction leaves a view residue
def test_summary_does_not_alias_its_input(name, sizes, seed):
    (fed_state, fed_answers), (twin_state, twin_answers) = _summaries(
        SUBJECTS[name], sizes, seed
    )
    assert fed_state == twin_state, f"{name}: serialized state aliased input"
    assert fed_answers == twin_answers, f"{name}: answers aliased input"


def test_kll_keeps_no_view_of_an_ingest_chunk():
    # the memory half of the rule: a small batch cut from a large chunk
    # must not keep that chunk alive through level 0
    chunk = np.arange(1 << 16, dtype=np.float64)
    sk = KLLSketch(eps=0.05)
    sk.extend(chunk[100:164])
    sk.extend(chunk[1000:4000])
    for level in sk._levels:
        assert not np.shares_memory(level, chunk)
        assert level.base is None or level.base.nbytes < chunk.nbytes
