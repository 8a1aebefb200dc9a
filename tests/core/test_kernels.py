"""Kernel-vs-argsort equivalence: the sorted-run kernels must be exact.

The vectorised kernels of :mod:`repro.core.kernels` exist purely for
speed; every one of them must return *bit-identical* results to the
reference global-argsort implementation for any valid input.  Hypothesis
drives random buffer sets -- mixed weights, duplicated values, odd/even
capacities, and ``+/-inf`` padding sentinels -- through both paths.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.buffer import Buffer
from repro.core.framework import QuantileFramework
from repro.core.frugal import FrugalBank
from repro.core.operations import OffsetSelector, collapse, weighted_select

COMMON = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def buffer_sets(draw, same_k: bool = True, min_c: int = 1):
    """A list of sorted weighted runs plus matching Buffer objects.

    Values are small integers (cast to float64) so duplicates across and
    within runs are common -- ties are where stability bugs hide.  Some
    runs are padded with ``-inf`` / ``+inf`` sentinels at the edges,
    mirroring the partially-filled leaf buffers of the framework.
    """
    c = draw(st.integers(min_value=min_c, max_value=6))
    k = draw(st.integers(min_value=1, max_value=24))
    buffers = []
    for _ in range(c):
        length = k if same_k else draw(st.integers(min_value=1, max_value=24))
        n_low = draw(st.integers(min_value=0, max_value=max(length - 1, 0)))
        n_high = draw(
            st.integers(min_value=0, max_value=max(length - 1 - n_low, 0))
        )
        n_real = length - n_low - n_high
        body = sorted(
            draw(
                st.lists(
                    st.integers(min_value=-50, max_value=50),
                    min_size=n_real,
                    max_size=n_real,
                )
            )
        )
        values = np.concatenate(
            [
                np.full(n_low, -np.inf),
                np.asarray(body, dtype=np.float64),
                np.full(n_high, np.inf),
            ]
        )
        weight = draw(st.integers(min_value=1, max_value=7))
        buffers.append(
            Buffer(
                values=values,
                weight=weight,
                n_low_pad=n_low,
                n_high_pad=n_high,
            )
        )
    return buffers


def _targets_for(draw_total: int, rng: np.random.Generator) -> np.ndarray:
    count = int(rng.integers(1, 8))
    return np.sort(rng.integers(1, draw_total + 1, size=count))


class TestSelectEquivalence:
    @COMMON
    @given(data=st.data())
    def test_weighted_select_runs_matches_argsort(self, data):
        buffers = data.draw(buffer_sets())
        runs = [b.values for b in buffers]
        weights = [b.weight for b in buffers]
        total = sum(b.weighted_count for b in buffers)
        n_targets = data.draw(st.integers(min_value=1, max_value=8))
        targets = np.sort(
            np.asarray(
                data.draw(
                    st.lists(
                        st.integers(min_value=1, max_value=total),
                        min_size=n_targets,
                        max_size=n_targets,
                    )
                ),
                dtype=np.int64,
            )
        )
        got = kernels.weighted_select_runs(runs, weights, targets)
        ref = kernels.weighted_select_argsort(runs, weights, targets)
        assert np.array_equal(got, ref)

    def test_signed_zero_ties_select_bit_identically(self):
        """-0.0 and 0.0 sort as ties but differ in bits: across runs of
        unequal weight the runs kernel must still pick the zero the
        stable reference picks, at every target."""
        runs = [
            np.array([-1.0, -0.0, -0.0, 0.0, 2.0]),
            np.array([0.0, 0.0, -0.0, 3.0, 4.0]),
            np.array([-0.0, 0.0, 0.0, 0.0, 5.0]),
        ]
        weights = [3, 1, 2]
        targets = np.arange(1, 5 * sum(weights) + 1, dtype=np.int64)
        got = kernels.weighted_select_runs(runs, weights, targets)
        ref = kernels.weighted_select_argsort(runs, weights, targets)
        assert got.tobytes() == ref.tobytes()

    @COMMON
    @given(data=st.data())
    def test_collapse_select_matches_argsort(self, data):
        buffers = data.draw(buffer_sets())
        runs = [b.values for b in buffers]
        weights = [b.weight for b in buffers]
        k = len(runs[0])
        out_weight = sum(weights)
        offset = data.draw(st.integers(min_value=1, max_value=out_weight))
        got = kernels.collapse_select_runs(runs, weights, out_weight, offset, k)
        targets = np.arange(k, dtype=np.int64) * out_weight + offset
        ref = kernels.weighted_select_argsort(runs, weights, targets)
        assert np.array_equal(got, ref)

    @COMMON
    @given(data=st.data())
    def test_collapse_pads_match_value_scan(self, data):
        buffers = data.draw(buffer_sets(min_c=2))
        k = len(buffers[0].values)
        out_weight = sum(b.weight for b in buffers)
        offset = data.draw(st.integers(min_value=1, max_value=out_weight))
        out = collapse(buffers, offset)
        # the arithmetic pad counts must equal what a scan of the output sees
        assert out.n_low_pad == int(np.isneginf(out.values).sum())
        assert out.n_high_pad == int(np.isposinf(out.values).sum())
        assert len(out.values) == k


class TestFallback:
    def test_disabled_kernels_route_through_argsort(self):
        rng = np.random.default_rng(5)
        buffers = [
            Buffer(values=np.sort(rng.integers(0, 20, 9).astype(np.float64)), weight=w)
            for w in (1, 3, 2)
        ]
        targets = [1, 5, 20, 54]
        kernels.set_enabled(False)
        try:
            assert not kernels.is_enabled()
            off = weighted_select(buffers, targets)
        finally:
            kernels.set_enabled(True)
        on = weighted_select(buffers, targets)
        assert np.array_equal(np.asarray(on), np.asarray(off))

    def test_disabled_kernels_identical_framework_state(self):
        data = np.random.default_rng(11).permutation(20_000).astype(np.float64)

        def run():
            fw = QuantileFramework(b=5, k=73, policy="new")
            for i in range(0, len(data), 1717):
                fw.extend(data[i : i + 1717])
            return fw

        kernels.set_enabled(False)
        try:
            ref = run()
        finally:
            kernels.set_enabled(True)
        fast = run()
        assert len(fast.full_buffers) == len(ref.full_buffers)
        for a, b in zip(fast.full_buffers, ref.full_buffers):
            assert np.array_equal(a.values, b.values)
            assert (a.weight, a.level, a.n_low_pad, a.n_high_pad) == (
                b.weight,
                b.level,
                b.n_low_pad,
                b.n_high_pad,
            )
        phis = [0.01, 0.25, 0.5, 0.75, 0.99]
        assert fast.quantiles(phis) == ref.quantiles(phis)
        assert fast.error_bound() == ref.error_bound()

    def test_single_run_short_circuit(self):
        values = np.sort(np.random.default_rng(3).random(16))
        got = kernels.weighted_select_runs([values], [4], np.asarray([1, 17, 64]))
        ref = kernels.weighted_select_argsort([values], [4], np.asarray([1, 17, 64]))
        assert np.array_equal(got, ref)


class TestCollapseOffsetAlternation:
    def test_alternation_preserved_through_kernel_path(self):
        # the offset selector state must advance identically however the
        # selection is computed
        sel_fast = OffsetSelector()
        sel_ref = OffsetSelector()
        rng = np.random.default_rng(9)
        for _ in range(6):
            bufs = [
                Buffer(values=np.sort(rng.random(8)), weight=1)
                for _ in range(2)
            ]
            kernels.set_enabled(False)
            try:
                ref = collapse([b for b in bufs], sel_ref)
            finally:
                kernels.set_enabled(True)
            fast = collapse([b for b in bufs], sel_fast)
            assert np.array_equal(fast.values, ref.values)
            assert fast.weight == ref.weight


class TestFrugalSwitch:
    """``set_enabled(False)`` is the only way to the scalar Frugal-2U
    reference; with enough runs per chunk the kernels take the vector
    rounds path, and every bank state array must match bit for bit."""

    STATE = ("_m", "_step", "_sign", "_n", "_min", "_max")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_runs=st.integers(kernels._FRUGAL_ROUNDS_MIN_RUNS, 96),
        zipf_a=st.floats(1.2, 3.0),
        n_chunks=st.integers(1, 3),
        phis=st.sampled_from([(0.5, 0.99), (0.01, 0.25, 0.9), (0.5,)]),
        integer_values=st.booleans(),
    )
    def test_rounds_match_scalar_bit_for_bit(
        self, seed, n_runs, zipf_a, n_chunks, phis, integer_values
    ):
        rng = np.random.default_rng(seed)
        chunks = []
        for _ in range(n_chunks):
            # distinct ids per chunk: one run each, so the chunk has
            # n_runs runs; Zipf-skewed lengths give a few long hot runs
            ids = rng.choice(2 * n_runs, size=n_runs, replace=False)
            lengths = np.minimum(rng.zipf(zipf_a, size=n_runs), 300)
            chunks.append(
                [
                    (
                        int(i),
                        np.floor(rng.normal(0, 50, n))
                        if integer_values
                        else rng.lognormal(0, 2, n),
                    )
                    for i, n in zip(ids, lengths)
                ]
            )

        def run(enabled):
            bank = FrugalBank(phis, seed=seed)
            previous = kernels.is_enabled()
            kernels.set_enabled(enabled)
            try:
                for pairs in chunks:
                    bank.extend_pairs(pairs)
            finally:
                kernels.set_enabled(previous)
            return bank

        rounds, scalar = run(True), run(False)
        for name in self.STATE:
            a, b = getattr(rounds, name), getattr(scalar, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
