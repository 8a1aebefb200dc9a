"""Registry tests: creation semantics, sharding, batched-apply identity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveQuantileSketch
from repro.core.errors import ConfigurationError, EmptySummaryError
from repro.core.framework import QuantileFramework
from repro.service.protocol import MetricConfig
from repro.service.registry import SketchRegistry, shard_of

PHIS = [0.1, 0.5, 0.9]

BAD_EPSILONS = [7.0, -1, 0, 1.0, float("nan")]


class TestCreate:
    def test_create_and_get(self):
        registry = SketchRegistry()
        entry, created = registry.create(
            "ns/m", MetricConfig(kind="adaptive")
        )
        assert created
        assert registry.get("ns/m") is entry
        assert "ns/m" in registry
        assert len(registry) == 1

    def test_idempotent_same_config(self):
        registry = SketchRegistry()
        config = MetricConfig(kind="fixed", epsilon=0.01, n=1000)
        first, created = registry.create("m", config)
        again, created_again = registry.create(
            "m", MetricConfig(kind="fixed", epsilon=0.01, n=1000)
        )
        assert created and not created_again
        assert again is first

    def test_conflicting_config_rejected(self):
        registry = SketchRegistry()
        registry.create("m", MetricConfig(kind="fixed", epsilon=0.01, n=1000))
        with pytest.raises(ConfigurationError, match="exists"):
            registry.create(
                "m", MetricConfig(kind="fixed", epsilon=0.05, n=1000)
            )

    def test_unknown_metric(self):
        with pytest.raises(ConfigurationError, match="unknown metric"):
            SketchRegistry().get("nope")

    def test_kinds(self):
        registry = SketchRegistry()
        fixed, _ = registry.create("f", MetricConfig(kind="fixed", n=10_000))
        adaptive, _ = registry.create("a", MetricConfig(kind="adaptive"))
        assert isinstance(fixed.sketch, QuantileFramework)
        assert isinstance(adaptive.sketch, AdaptiveQuantileSketch)


class TestSharding:
    def test_stable_assignment(self):
        assert shard_of("api/latency", 4) == shard_of("api/latency", 4)
        assert 0 <= shard_of("anything", 4) < 4

    def test_entries_distributed(self):
        registry = SketchRegistry(n_shards=4)
        for i in range(40):
            registry.create(f"ns/m{i}", MetricConfig(kind="adaptive"))
        shards = {registry.get(f"ns/m{i}").shard for i in range(40)}
        assert len(shards) > 1  # not everything on one shard


class TestBatchedApply:
    """The recovery keystone: queued cross-metric batches applied as one
    vectorized bank super-batch equal per-metric sequential ingest."""

    @pytest.mark.parametrize("kind", ["fixed", "adaptive"])
    def test_enqueue_apply_equals_direct(self, kind):
        rng = np.random.default_rng(3)
        n_kw = {"n": 60_000} if kind == "fixed" else {}
        batched = SketchRegistry(n_shards=1)
        direct = SketchRegistry(n_shards=1)
        for reg in (batched, direct):
            reg.create("a", MetricConfig(kind=kind, epsilon=0.01, **n_kw))
            reg.create("b", MetricConfig(kind=kind, epsilon=0.01, **n_kw))
        for _ in range(5):
            for name in ("a", "b", "a"):
                chunk = rng.normal(size=997)
                batched.enqueue(name, chunk)
                direct.ingest(name, chunk)
        assert batched.pending_batches() == 15
        batched.apply_all()
        assert batched.pending_batches() == 0
        for name in ("a", "b"):
            assert batched.quantiles(name, PHIS) == \
                direct.quantiles(name, PHIS)

    def test_shard_count_does_not_change_answers(self):
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        one = SketchRegistry(n_shards=1)
        many = SketchRegistry(n_shards=8)
        for reg in (one, many):
            for i in range(6):
                reg.create(f"m{i}", MetricConfig(kind="fixed", n=20_000))
        for _ in range(4):
            for i in range(6):
                one.enqueue(f"m{i}", rng_a.uniform(size=500))
                many.enqueue(f"m{i}", rng_b.uniform(size=500))
        one.apply_all()
        many.apply_all()
        for i in range(6):
            assert one.quantiles(f"m{i}", PHIS) == \
                many.quantiles(f"m{i}", PHIS)


class TestValidation:
    def test_rejects_non_finite(self):
        registry = SketchRegistry()
        registry.create("m", MetricConfig(kind="adaptive"))
        with pytest.raises(ConfigurationError, match="finite"):
            registry.ingest("m", np.array([1.0, np.nan]))

    def test_rejects_multidimensional(self):
        registry = SketchRegistry()
        registry.create("m", MetricConfig(kind="adaptive"))
        with pytest.raises(ConfigurationError):
            registry.ingest("m", np.ones((3, 3)))

    @pytest.mark.parametrize("engine", ["paper", "kll", "frugal"])
    @pytest.mark.parametrize("eps", BAD_EPSILONS)
    def test_create_rejects_epsilon_outside_unit_interval(self, engine, eps):
        registry = SketchRegistry()
        with pytest.raises(ConfigurationError, match="epsilon"):
            registry.create(
                "m", MetricConfig(kind="fixed", epsilon=eps, engine=engine)
            )
        assert "m" not in registry
        # nothing half-built: no bank row was taken by the failed CREATE
        assert all(len(s.fbank) == 0 for s in registry._shards)

    @pytest.mark.parametrize("engine", ["paper", "kll", "frugal"])
    @pytest.mark.parametrize("eps", BAD_EPSILONS)
    def test_install_rejects_epsilon_outside_unit_interval(
        self, engine, eps
    ):
        donor = SketchRegistry()
        donor.create(
            "m", MetricConfig(kind="fixed", epsilon=0.05, engine=engine)
        )
        donor.ingest("m", np.arange(100, dtype=float))
        payload = donor.fetch_serialized("m")
        registry = SketchRegistry()
        with pytest.raises(ConfigurationError, match="epsilon"):
            registry.install_serialized(
                "m",
                MetricConfig(kind="fixed", epsilon=eps, engine=engine),
                payload,
            )
        assert "m" not in registry

    def test_empty_batch_is_noop(self):
        registry = SketchRegistry()
        registry.create("m", MetricConfig(kind="adaptive"))
        registry.ingest("m", np.empty(0))
        assert registry.get("m").count == 0


class TestQueries:
    def test_quantiles_with_certified_bound(self):
        registry = SketchRegistry()
        registry.create(
            "m", MetricConfig(kind="fixed", epsilon=0.05, n=10_000)
        )
        values = np.random.default_rng(0).permutation(10_000).astype(float)
        registry.ingest("m", values)
        (median,), bound, n = registry.quantiles("m", [0.5])
        assert n == 10_000
        assert abs(median - 5000) <= bound  # certified a-posteriori bound
        assert bound <= 0.05 * 10_000

    def test_cdf(self):
        registry = SketchRegistry()
        registry.create("m", MetricConfig(kind="adaptive", epsilon=0.02))
        registry.ingest("m", np.arange(1000.0))
        rank, fraction, bound, n = registry.cdf("m", 500.0)
        assert n == 1000
        assert abs(fraction - 0.5) < 0.1

    def test_query_empty_metric_raises(self):
        registry = SketchRegistry()
        registry.create("m", MetricConfig(kind="adaptive"))
        with pytest.raises(EmptySummaryError):
            registry.quantiles("m", [0.5])

    def test_fetch_serialized_round_trips(self):
        from repro.core import serialize

        registry = SketchRegistry()
        registry.create("m", MetricConfig(kind="fixed", epsilon=0.02, n=5_000))
        registry.ingest("m", np.random.default_rng(1).normal(size=5_000))
        fw = serialize.loads(registry.fetch_serialized("m"))
        v_reg, _, _ = registry.quantiles("m", PHIS)
        assert fw.quantiles(PHIS) == v_reg

    @settings(max_examples=25, deadline=None)
    @given(
        length=st.integers(0, 9_000),
        more=st.integers(0, 3_000),
        policy=st.sampled_from(["new", "munro-paterson"]),
        seed=st.integers(0, 2**16),
    )
    def test_fetch_adaptive_round_trips(self, length, more, policy, seed):
        """FETCH -> RESTORE moves an adaptive metric exactly: an initial
        capacity of 256 rolls a stage at 256, 768, 1792, 3840, 7936."""
        config = MetricConfig(
            kind="adaptive", epsilon=0.05, n=256, policy=policy
        )
        rng = np.random.default_rng(seed)
        donor = SketchRegistry()
        donor.create("m", config)
        donor.ingest("m", rng.normal(size=length))
        payload = donor.fetch_serialized("m")
        registry = SketchRegistry()
        assert registry.install_serialized("m", config, payload) is False
        assert registry.get("m").config == config
        for step in range(2):
            assert registry.fetch_serialized("m") == payload
            src, dst = donor.get("m").sketch, registry.get("m").sketch
            assert isinstance(dst, AdaptiveQuantileSketch)
            assert dst.n == src.n and dst.n_stages == src.n_stages
            assert dst.error_bound() == src.error_bound()
            if src.n:
                assert registry.quantiles("m", PHIS) == \
                    donor.quantiles("m", PHIS)
            batch = rng.normal(size=more)
            donor.ingest("m", batch)
            registry.ingest("m", batch)
            payload = donor.fetch_serialized("m")

    def test_install_adaptive_refuses_another_metric(self):
        donor = SketchRegistry()
        donor.create("m", MetricConfig(kind="adaptive", epsilon=0.02))
        donor.ingest("m", np.arange(5000.0))
        payload = donor.fetch_serialized("m")
        registry = SketchRegistry()
        for config in (
            MetricConfig(kind="adaptive", epsilon=0.03),
            MetricConfig(kind="adaptive", epsilon=0.02, policy="mp"),
            MetricConfig(kind="fixed", epsilon=0.02),
        ):
            with pytest.raises(ConfigurationError, match="corrupt install"):
                registry.install_serialized("m", config, payload)
        assert "m" not in registry

