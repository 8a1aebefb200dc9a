"""The single-host cluster: N local nodes with replication 1.

``repro serve --workers N`` is a :class:`ClusterCoordinator` with
``replication=1``: each metric's stream reaches exactly one node (its
ring owner), in order, and the bank's batched ingest is bit-identical
to feeding each sketch its subsequence one record at a time.  Every
per-metric summary -- and so the ``merge_serialized`` fold over any set
of metrics -- is therefore bit-identical to the single-process run of
the same schedule.  CREATE still broadcasts to every node, so the
non-owners hold each metric's (empty) definition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.core import serialize
from repro.core.errors import EngineMismatchError
from repro.service import QuantileClient, ServerThread

NAMES = [f"t/m{i}" for i in range(4)]
PHIS = [0.1, 0.25, 0.5, 0.75, 0.9]
SERVICE_KW = dict(n_shards=2, snapshot_interval_s=None)


def _batches(seed=3, n_batches=24):
    rng = np.random.default_rng(seed)
    return [
        (NAMES[i % len(NAMES)], rng.normal(size=200))
        for i in range(n_batches)
    ]


def _create_all(client):
    for name in NAMES:
        client.create(name, kind="fixed", eps=0.02, n=100_000)


def _counts(batches):
    return {
        name: sum(v.size for b_name, v in batches if b_name == name)
        for name in NAMES
    }


@pytest.fixture(scope="module")
def cluster():
    """One 2-node ephemeral R=1 cluster shared by the read-only tests
    (spawning node processes is the expensive part)."""
    with ClusterCoordinator(nodes=2, replication=1, **SERVICE_KW) as coord:
        with coord.client() as client:
            _create_all(client)
            for name, values in _batches():
                client.ingest(name, values)
            yield client


class TestRouting:
    def test_each_metric_lives_only_on_its_owner(self, cluster):
        holders = {}
        for entry in cluster.list_metrics():
            if entry["n"] > 0:
                holders.setdefault(entry["name"], []).append(entry["node"])
        assert set(holders) == set(NAMES)
        for name, nodes in holders.items():
            assert nodes == cluster.owners_of(name)
        # both nodes own something, so the test exercises real routing
        assert {n for nodes in holders.values() for n in nodes} == {
            "node-0",
            "node-1",
        }

    def test_per_metric_query_routes_to_owner(self, cluster):
        expected = _counts(_batches())
        for name in NAMES:
            _, _, n = cluster.query(name, [0.5])
            assert n == expected[name]

    def test_merged_query_covers_the_union(self, cluster):
        values, bound, n = cluster.query_merged(NAMES, PHIS)
        total = sum(v.size for _, v in _batches())
        assert n == total
        assert bound < 0.1 * total
        # normal(0,1) union: the median must sit near 0 and the
        # quantile values must be sorted
        assert abs(values[PHIS.index(0.5)]) < 0.2
        assert values == sorted(values)


class TestBitExactness:
    def test_cluster_state_bit_identical_to_single_process(self):
        """Node count must not change any metric's summary bytes."""
        batches = _batches(seed=11)
        with ServerThread(**SERVICE_KW) as single_srv:
            with QuantileClient("127.0.0.1", single_srv.port) as single:
                _create_all(single)
                for name, values in batches:
                    single.ingest(name, values)
                single_raw = {n: single.fetch_raw(n) for n in NAMES}
        with ClusterCoordinator(
            nodes=2, replication=1, **SERVICE_KW
        ) as coord:
            with coord.client() as client:
                _create_all(client)
                for name, values in batches:
                    client.ingest(name, values)
                cluster_raw = {n: client.fetch_raw(n) for n in NAMES}
                merged = client.fetch_merged(NAMES)
        for name in NAMES:
            assert cluster_raw[name] == single_raw[name], (
                f"{name}: serialized summary differs between 1-process "
                f"and 2-node runs"
            )
        # and so does the Lemma 5 fold over the union
        reference = serialize.merge_serialized(
            single_raw[n] for n in NAMES
        )
        assert merged.quantiles(PHIS) == reference.quantiles(PHIS)
        assert merged.error_bound() == reference.error_bound()
        assert merged.n == reference.n


class TestDurability:
    def test_graceful_restart_recovers_every_node(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        batches = _batches(seed=5, n_batches=12)
        with ClusterCoordinator(
            nodes=2, replication=1, data_dir=data_dir, **SERVICE_KW
        ) as coord:
            with coord.client() as client:
                _create_all(client)
                for name, values in batches:
                    client.ingest(name, values)
        # SIGTERM -> node drain -> final snapshot, per node
        with ClusterCoordinator(
            nodes=2, replication=1, data_dir=data_dir, **SERVICE_KW
        ) as coord:
            with coord.client() as client:
                for name, want in _counts(batches).items():
                    _, _, n = client.query(name, [0.5])
                    assert n == want


class TestClusterEngines:
    def test_kll_fold_and_mixed_engine_mismatch(self):
        """`fetch_merged` folds same-engine KLL metrics across nodes
        and raises the typed mismatch error across engines."""
        rng = np.random.default_rng(5)
        data = {f"k/m{i}": rng.normal(size=4_000) for i in range(3)}
        with ClusterCoordinator(
            nodes=2, replication=1, n_shards=1, snapshot_interval_s=None
        ) as coord:
            with coord.client() as client:
                for name in data:
                    client.create(name, kind="fixed", eps=0.02, engine="kll")
                client.create("k/paper", kind="fixed", eps=0.02, n=50_000)
                client.create("k/frugal", kind="fixed", engine="frugal")
                for name, values in data.items():
                    client.ingest(name, values)
                client.ingest("k/paper", rng.normal(size=500))
                client.ingest("k/frugal", rng.normal(size=500))
                client.drain()

                merged = client.fetch_merged(list(data))
                union = np.concatenate(list(data.values()))
                assert merged.n == union.size
                est = merged.quantile(0.5)
                true_rank = np.searchsorted(np.sort(union), est)
                assert abs(true_rank - 0.5 * union.size) \
                    <= merged.error_bound()

                for mixed in (["k/m0", "k/frugal"], ["k/paper", "k/frugal"]):
                    with pytest.raises(EngineMismatchError):
                        client.fetch_merged(mixed)
