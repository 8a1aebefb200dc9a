"""Tests for the Section 4.9 parallel/partitioned mode."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, EmptySummaryError
from repro.core.framework import QuantileFramework
from repro.core.parallel import ParallelQuantileEngine, recombine


def rank_err(value, phi, n):
    target = min(max(math.ceil(phi * n), 1), n)
    return abs((value + 1) - target) / n


class TestMergeFrameworks:
    """Worker frameworks merged by :func:`recombine`."""

    def test_two_workers_cover_disjoint_ranges(self, rng):
        n = 60_000
        data = rng.permutation(n).astype(np.float64)
        w1 = QuantileFramework(b=6, k=256)
        w2 = QuantileFramework(b=6, k=256)
        w1.extend(data[: n // 2])
        w2.extend(data[n // 2 :])
        (med,) = recombine([w1, w2]).quantiles([0.5])
        assert rank_err(med, 0.5, n) < 0.02

    def test_idle_workers_ignored(self, rng):
        data = rng.permutation(10_000).astype(np.float64)
        w1 = QuantileFramework(b=5, k=128)
        w2 = QuantileFramework(b=5, k=128)
        w1.extend(data)
        (med,) = recombine([w1, w2]).quantiles([0.5])
        assert rank_err(med, 0.5, 10_000) < 0.05

    def test_all_empty_raises(self):
        with pytest.raises(EmptySummaryError):
            recombine([QuantileFramework(b=3, k=8)])


class TestParallelEngine:
    @pytest.mark.parametrize("n_workers", [1, 4, 24])
    def test_accuracy_across_parallelism(self, n_workers, rng):
        n = 120_000
        data = rng.permutation(n).astype(np.float64)
        engine = ParallelQuantileEngine(n_workers, b=6, k=256)
        for i in range(0, n, 10_000):
            engine.dispatch(data[i : i + 10_000])
        assert engine.n == n
        for phi in (0.1, 0.5, 0.9):
            assert rank_err(engine.query(phi), phi, n) < 0.02

    def test_static_partitioning(self, rng):
        n = 30_000
        data = rng.permutation(n).astype(np.float64)
        engine = ParallelQuantileEngine(3, b=5, k=128)
        third = n // 3
        for w in range(3):
            engine.extend_worker(w, data[w * third : (w + 1) * third])
        assert rank_err(engine.query(0.5), 0.5, n) < 0.05

    def test_high_parallelism_two_stage(self, rng):
        # the >100-node regime: pre-combine root buffers in groups
        n = 200_000
        data = rng.permutation(n).astype(np.float64)
        engine = ParallelQuantileEngine(
            64, b=4, k=64, combine_fanin=8
        )
        engine.dispatch(data)
        med = engine.query(0.5)
        assert rank_err(med, 0.5, n) < 0.05

    def test_memory_is_per_worker(self):
        engine = ParallelQuantileEngine(10, b=5, k=100)
        assert engine.memory_elements == 10 * 500

    def test_empty_engine_raises(self):
        engine = ParallelQuantileEngine(2, b=3, k=8)
        with pytest.raises(EmptySummaryError):
            engine.query(0.5)

    def test_error_bound_certifies(self, rng):
        n = 100_000
        data = rng.permutation(n).astype(np.float64)
        engine = ParallelQuantileEngine(8, b=6, k=256)
        engine.dispatch(data)
        bound = engine.error_bound()
        for phi in (0.25, 0.5, 0.75):
            err = rank_err(engine.query(phi), phi, n) * n
            assert err <= bound + 1

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ParallelQuantileEngine(0, b=3, k=8)
        with pytest.raises(ConfigurationError):
            ParallelQuantileEngine(2, b=3, k=8, combine_fanin=1)

    def test_repeated_queries_stable(self, rng):
        data = rng.permutation(20_000).astype(np.float64)
        engine = ParallelQuantileEngine(4, b=5, k=128)
        engine.dispatch(data)
        assert engine.query(0.5) == engine.query(0.5)


class TestRecombinedReads:
    """Queries read the workers through ``recombine`` and change nothing."""

    @pytest.mark.parametrize(
        "n_workers, b, k, fanin",
        [(8, 4, 64, 8), (16, 5, 100, 4), (64, 3, 50, 2)],
    )
    def test_bound_counts_every_collapse(self, n_workers, b, k, fanin, rng):
        """Lemma 5 per collapsed tree: every worker's collapses and the
        pre-combine collapses, whose alternation is a tree of its own."""
        n = n_workers * k * 12 + 37
        engine = ParallelQuantileEngine(
            n_workers, b=b, k=k, combine_fanin=fanin
        )
        engine.dispatch(rng.permutation(n).astype(np.float64))
        roots = [
            buf for fw in engine.workers for buf in fw._snapshot_buffers()
        ]
        groups = [roots[i : i + fanin] for i in range(0, len(roots), fanin)]
        pre = [[buf.weight for buf in g] for g in groups if len(g) > 1]
        trees = [
            (fw.sum_collapse_weights, fw.n_collapses)
            for fw in engine.workers
            if fw.n_collapses
        ]
        trees.append((sum(map(sum, pre)), len(pre)))
        w_max = max(sum(buf.weight for buf in g) for g in groups)
        expected = sum((w - c + 1) / 2 for w, c in trees) + w_max - 1
        assert engine.error_bound() == expected
        for phi in (0.01, 0.5, 0.99):
            assert rank_err(engine.query(phi), phi, n) * n <= expected

    @pytest.mark.parametrize("fanin", [None, 2])
    def test_interleaved_queries_match_across_backends(self, fanin, rng):
        """Mid-stream queries are reads: sync and process answer
        bit-identically, and so does an engine never queried before."""
        data = rng.permutation(4_120).astype(np.float64)
        phis = [0.1, 0.5, 0.9]
        kw = dict(b=3, k=50, combine_fanin=fanin)
        quiet = ParallelQuantileEngine(4, **kw)
        sync = ParallelQuantileEngine(4, **kw)
        with ParallelQuantileEngine(4, backend="process", **kw) as proc:
            for chunk in np.array_split(data, 5):
                for engine in (quiet, sync, proc):
                    engine.dispatch(chunk)
                reads = [
                    (e.error_bound(), e.quantiles(phis), e.rank(2_000.0))
                    for e in (sync, proc)
                ]
                assert reads[0] == reads[1]
            final = [
                (e.error_bound(), e.quantiles(phis), e.cdf([1e3, 3e3]))
                for e in (quiet, sync, proc)
            ]
        assert final[0] == final[1] == final[2]


class TestProcessBackend:
    """backend="process": true multiprocessing workers (Section 4.9)."""

    def test_agrees_with_sync_backend(self, rng):
        n = 30_000
        data = rng.permutation(n).astype(np.float64)
        sync = ParallelQuantileEngine(3, b=5, k=128)
        with ParallelQuantileEngine(3, b=5, k=128, backend="process") as proc:
            for i in range(0, n, 4096):
                sync.dispatch(data[i : i + 4096])
                proc.dispatch(data[i : i + 4096])
            assert proc.n == sync.n == n
            # certified bound and quantiles must agree exactly: the process
            # backend replays the identical buffer dataflow
            assert proc.error_bound() == sync.error_bound()
            phis = [0.05, 0.25, 0.5, 0.75, 0.95]
            assert proc.quantiles(phis) == sync.quantiles(phis)

    def test_snapshot_queries_do_not_disturb_ingest(self, rng):
        data = rng.permutation(12_000).astype(np.float64)
        with ParallelQuantileEngine(2, b=5, k=64, backend="process") as engine:
            engine.dispatch(data[:6_000])
            first = engine.query(0.5)
            assert first is not None
            engine.dispatch(data[6_000:])
            assert engine.n == 12_000
            med = engine.query(0.5)
            assert rank_err(med, 0.5, 12_000) < 0.05

    def test_extend_worker_routing(self, rng):
        data = rng.permutation(8_000).astype(np.float64)
        with ParallelQuantileEngine(2, b=5, k=64, backend="process") as engine:
            engine.extend_worker(0, data[:4_000])
            engine.extend_worker(1, data[4_000:])
            assert engine.n == 8_000
            med = engine.query(0.5)
            assert rank_err(med, 0.5, 8_000) < 0.05

    def test_combine_fanin_supported(self, rng):
        n = 40_000
        data = rng.permutation(n).astype(np.float64)
        with ParallelQuantileEngine(
            8, b=4, k=64, backend="process", combine_fanin=4
        ) as engine:
            engine.dispatch(data)
            med = engine.query(0.5)
            assert rank_err(med, 0.5, n) < 0.05

    def test_generic_streams_rejected(self):
        with ParallelQuantileEngine(2, b=3, k=8, backend="process") as engine:
            with pytest.raises(ConfigurationError, match="numeric"):
                engine.dispatch(["a", "b", "c"])

    def test_closed_engine_rejects_ingest(self):
        engine = ParallelQuantileEngine(2, b=3, k=8, backend="process")
        engine.close()
        with pytest.raises(ConfigurationError, match="closed"):
            engine.dispatch(np.arange(8.0))
        engine.close()  # idempotent

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelQuantileEngine(2, b=3, k=8, backend="threads")

    def test_custom_policy_instance_rejected(self):
        from repro.core.policies import NewPolicy

        with pytest.raises(ConfigurationError, match="named policy"):
            ParallelQuantileEngine(
                2, b=3, k=8, backend="process", policy=NewPolicy()
            )

    def test_empty_process_engine_raises(self):
        with ParallelQuantileEngine(2, b=3, k=8, backend="process") as engine:
            with pytest.raises(EmptySummaryError):
                engine.query(0.5)
