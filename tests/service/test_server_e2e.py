"""End-to-end server tests over real TCP: concurrency, crash recovery.

Mirrors the CI smoke: concurrent clients batch-ingest, queries return
certified answers matching an offline sketch fed the same data, and a
non-graceful stop (the in-process stand-in for SIGKILL; the CI script
does the real kill) recovers bit-identically from snapshot + journal.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.service import QuantileClient, ServerThread
from repro.service.protocol import MetricConfig
from repro.service.registry import SketchRegistry

PHIS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]


@pytest.fixture
def server(tmp_path):
    with ServerThread(
        data_dir=str(tmp_path / "data"), n_shards=2,
        snapshot_interval_s=None,
    ) as srv:
        yield srv


def client_for(server):
    return QuantileClient("127.0.0.1", server.port)


class TestBasics:
    def test_create_ingest_query(self, server):
        with client_for(server) as client:
            assert client.create("t/m", kind="adaptive", eps=0.02)
            assert not client.create("t/m", kind="adaptive", eps=0.02)
            client.ingest("t/m", np.arange(1000.0))
            values, bound, n = client.query("t/m", [0.5])
            assert n == 1000
            assert abs(values[0] - 500) <= max(bound, 0.02 * 1000)

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_ports_outside_the_tcp_range_are_refused(self, port):
        # the resolver takes a port modulo 65536: 70000 would be 4464
        from repro.service import QuantileService

        with pytest.raises(ConfigurationError, match="0-65535"):
            QuantileService(port=port)
        with pytest.raises(ConfigurationError, match="0-65535"):
            QuantileClient("127.0.0.1", port, timeout=1.0, max_retries=0)

    def test_unknown_metric_is_clean_error(self, server):
        with client_for(server) as client:
            with pytest.raises(ConfigurationError, match="unknown metric"):
                client.query("missing", [0.5])
            # the connection survives the error frame
            client.create("t/m", kind="adaptive")
            assert client.list_metrics()[0]["name"] == "t/m"

    def test_conflicting_create_rejected(self, server):
        with client_for(server) as client:
            client.create("t/m", kind="fixed", eps=0.01, n=1000)
            with pytest.raises(ConfigurationError, match="exists"):
                client.create("t/m", kind="fixed", eps=0.05, n=1000)

    def test_pipelined_ingest(self, server):
        with client_for(server) as client:
            client.create("t/m", kind="adaptive")
            for i in range(50):
                client.ingest_nowait("t/m", np.full(100, float(i)))
            last_seq = client.flush()
            assert last_seq >= 50
            _, _, n = client.query("t/m", [0.5])
            assert n == 5000

    def test_stats_shape(self, server):
        with client_for(server) as client:
            client.create("t/m", kind="adaptive")
            client.ingest("t/m", np.arange(100.0))
            client.query("t/m", [0.5])
            stats = client.stats()
            assert stats["ingest"]["elements"] == 100
            assert stats["queries"]["count"] == 1
            assert stats["registry"]["metrics"] == 1
            assert len(stats["shards"]) == 2

    def test_fetch_round_trips(self, server):
        with client_for(server) as client:
            client.create("t/m", kind="fixed", eps=0.02, n=10_000)
            data = np.random.default_rng(0).normal(size=10_000)
            client.ingest("t/m", data)
            fw = client.fetch("t/m")
            remote_values, _, _ = client.query("t/m", PHIS)
            assert fw.quantiles(PHIS) == remote_values


class TestConcurrentIngest:
    N_CLIENTS = 4
    BATCHES_PER_CLIENT = 10
    BATCH = 1_000

    def test_matches_offline_sketch(self, server):
        """ISSUE acceptance: >= 4 concurrent clients, certified bound
        matches an offline sketch fed the same data."""
        total = self.N_CLIENTS * self.BATCHES_PER_CLIENT * self.BATCH
        rng = np.random.default_rng(42)
        data = rng.permutation(total).astype(np.float64)
        parts = np.split(data, self.N_CLIENTS)

        with client_for(server) as admin:
            admin.create("load/m", kind="fixed", eps=0.02, n=total)

        errors = []

        def worker(part):
            try:
                with client_for(server) as client:
                    for batch in np.split(part, self.BATCHES_PER_CLIENT):
                        client.ingest_nowait("load/m", batch)
                    client.flush()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(part,)) for part in parts
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        with client_for(server) as client:
            values, bound, n = client.query("load/m", PHIS)
        assert n == total

        offline = SketchRegistry(n_shards=1)
        offline.create(
            "load/m", MetricConfig(kind="fixed", epsilon=0.02, n=total)
        )
        offline.ingest("load/m", data)
        _, offline_bound, offline_n = offline.quantiles("load/m", PHIS)
        # the certified bound depends only on the count-driven collapse
        # schedule, not on arrival order: it must match exactly
        assert bound == offline_bound
        assert n == offline_n
        # and every answer must honour it against the true ranks
        for phi, value in zip(PHIS, values):
            true_rank = phi * total
            assert abs((value + 1) - true_rank) <= bound + 1


class TestCrashRecovery:
    def test_non_graceful_restart_is_bit_identical(self, tmp_path):
        data_dir = str(tmp_path / "data")
        rng = np.random.default_rng(7)
        srv = ServerThread(
            data_dir=data_dir, n_shards=2, snapshot_interval_s=None
        ).start()
        try:
            with client_for(srv) as client:
                client.create("t/fixed", kind="fixed", eps=0.02,
                              n=30_000)
                client.create("t/adaptive", kind="adaptive", eps=0.02)
                for _ in range(5):
                    client.ingest("t/fixed", rng.normal(size=2_000))
                    client.ingest("t/adaptive", rng.exponential(size=800))
                client.snapshot()
                # post-snapshot tail lives only in the journal
                for _ in range(3):
                    client.ingest("t/fixed", rng.normal(size=2_000))
                    client.ingest("t/adaptive", rng.exponential(size=800))
                client.drain()
                before = {
                    name: client.query(name, PHIS)
                    for name in ("t/fixed", "t/adaptive")
                }
        finally:
            srv.stop(graceful=False)  # no final snapshot, journal as-is

        srv2 = ServerThread(
            data_dir=data_dir, n_shards=3, snapshot_interval_s=None
        ).start()
        try:
            with client_for(srv2) as client:
                for name, want in before.items():
                    assert client.query(name, PHIS) == want
                stats = client.stats()
                assert stats["durability"]["journal_records_recovered"] > 0
        finally:
            srv2.stop()

    def test_recovered_server_keeps_ingesting(self, tmp_path):
        data_dir = str(tmp_path / "data")
        srv = ServerThread(data_dir=data_dir, snapshot_interval_s=None)
        srv.start()
        try:
            with client_for(srv) as client:
                client.create("t/m", kind="adaptive")
                client.ingest("t/m", np.arange(500.0))
        finally:
            srv.stop(graceful=False)

        srv2 = ServerThread(data_dir=data_dir, snapshot_interval_s=None)
        srv2.start()
        try:
            with client_for(srv2) as client:
                client.ingest("t/m", np.arange(500.0, 1000.0))
                _, _, n = client.query("t/m", [0.5])
                assert n == 1000
        finally:
            srv2.stop()

    def test_ephemeral_server_has_no_durability(self, tmp_path):
        with ServerThread(snapshot_interval_s=None) as srv:
            with client_for(srv) as client:
                client.create("t/m", kind="adaptive")
                client.ingest("t/m", np.arange(100.0))
                with pytest.raises(ConfigurationError, match="data-dir"):
                    client.snapshot()
