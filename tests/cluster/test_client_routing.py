"""ClusterClient routing: placement, replication, failover, fan-in.

One module-scoped 3-node cluster (R=2) serves every test here -- spawns
are expensive and the tests use disjoint metric names.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    ClusterClient,
    ClusterCoordinator,
    SyncDriver,
    merge_tagged,
)
from repro.cluster.errors import (
    NodeUnavailableError,
    ReplicaEngineMismatchError,
)
from repro.core.engines import engine_of
from repro.core.errors import EmptySummaryError, EngineMismatchError
from repro.core.serialize import loads
from repro.service import QuantileClient
from repro.service.protocol import MetricConfig
from repro.service.registry import SketchRegistry

PHIS = [0.1, 0.5, 0.9, 0.99]


@pytest.fixture(scope="module")
def coord(tmp_path_factory):
    data_dir = str(tmp_path_factory.mktemp("cluster"))
    with ClusterCoordinator(
        nodes=3,
        replication=2,
        data_dir=data_dir,
        n_shards=1,
        snapshot_interval_s=None,
    ) as c:
        yield c


@pytest.fixture
def client(coord):
    with coord.client() as cl:
        yield cl


def direct(coord, node_id):
    spec = coord.manifest.node(node_id)
    return QuantileClient(spec.host, spec.port)


def node_n(coord, node_id, name):
    """n of *name* on one node, queried out-of-band (0 if absent)."""
    with direct(coord, node_id) as qc:
        for entry in qc.list_metrics():
            if entry["name"] == name:
                return entry["n"]
    return 0


class TestPlacementAndReplication:
    def test_create_broadcasts_to_every_live_node(self, coord, client):
        client.create("place/bcast", kind="fixed", eps=0.02, n=10_000)
        for nid in coord.node_ids:
            with direct(coord, nid) as qc:
                names = [m["name"] for m in qc.list_metrics()]
            assert "place/bcast" in names, nid

    def test_ingest_replicates_to_exactly_the_owners(self, coord, client):
        name = "place/owners"
        client.create(name, kind="fixed", eps=0.02, n=10_000)
        owners = client.owners_of(name)
        assert len(owners) == 2 and len(set(owners)) == 2
        client.ingest(name, np.arange(500.0))
        client.drain()
        for nid in coord.node_ids:
            expected = 500 if nid in owners else 0
            assert node_n(coord, nid, name) == expected, nid

    def test_replicas_hold_identical_streams(self, coord, client):
        name = "place/identical"
        client.create(name, kind="fixed", eps=0.02, n=10_000)
        rng = np.random.default_rng(7)
        for _ in range(4):
            client.ingest(name, rng.standard_normal(800))
        replicas = client.fetch_replicas(name)
        assert len(replicas) == 2
        sketches = [loads(payload) for _, payload in replicas]
        assert sketches[0].n == sketches[1].n == 3200
        assert sketches[0].quantiles(PHIS) == sketches[1].quantiles(PHIS)

    def test_pipelined_ingest_replicates_too(self, coord, client):
        name = "place/pipelined"
        client.create(name, kind="fixed", eps=0.02, n=10_000)
        for chunk in np.split(np.arange(2000.0), 10):
            client.ingest_nowait(name, chunk)
        client.flush()
        client.drain()
        for nid in client.owners_of(name):
            assert node_n(coord, nid, name) == 2000


class TestFailoverReads:
    def test_query_fails_over_to_junior_replica_with_full_state(
        self, coord, client
    ):
        name = "fail/read"
        client.create(name, kind="fixed", eps=0.01, n=50_000)
        data = np.random.default_rng(11).permutation(10_000).astype(float)
        client.ingest(name, data)
        senior, junior = client.owners_of(name)
        values_before, bound_before, n_before = client.query(name, PHIS)
        # simulate the senior replica becoming unreachable
        client.mark_down(senior)
        assert client.owners_of(name)[0] == junior
        values_after, bound_after, n_after = client.query(name, PHIS)
        # the junior replica holds the FULL stream: same n, same bound
        assert n_after == n_before == 10_000
        assert bound_after == bound_before
        assert values_after == values_before
        client.mark_up(senior)

    def test_losing_every_owner_promotes_the_broadcast_successor(
        self, coord, client
    ):
        """When ALL owners die the ring promotes the remaining node;
        the broadcast CREATE means it already knows the metric, so
        ingest continues (history beyond the dead replicas is what R
        is dimensioned against, not this path)."""
        name = "fail/alldown"
        client.create(name, kind="fixed", eps=0.02, n=10_000)
        client.ingest(name, np.arange(100.0))
        owners = list(client.owners_of(name))
        for nid in owners:
            client.mark_down(nid)
        promoted = client.owners_of(name)
        assert promoted == [
            n for n in coord.node_ids if n not in owners
        ]
        client.ingest(name, np.arange(40.0))
        values, _bound, n = client.query(name, [0.5])
        assert n == 40  # the successor's stream starts at promotion
        for nid in coord.node_ids:
            client.mark_up(nid)

    def test_all_nodes_down_is_a_typed_error(self, coord, client):
        name = "fail/typed"
        client.create(name, kind="fixed", eps=0.02, n=10_000)
        client.ingest(name, np.arange(100.0))
        for nid in coord.node_ids:
            client.mark_down(nid)
        with pytest.raises(NodeUnavailableError):
            client.query(name, [0.5])
        for nid in coord.node_ids:
            client.mark_up(nid)

    def test_every_node_down_names_the_cluster_size(self, coord):
        with coord.client() as cl:
            for nid in coord.node_ids:
                cl.mark_down(nid)
            with pytest.raises(NodeUnavailableError, match="3 node"):
                cl.owners_of("any/metric")


class TestCertifiedFanIn:
    def test_query_merged_matches_offline_merge(self, coord, client):
        """Cluster fan-in == offline §4.9 merge of the same streams."""
        rng = np.random.default_rng(23)
        streams = {}
        for i in range(3):
            name = f"fanin/part-{i}"
            streams[name] = rng.standard_normal(4000) * (i + 1)
            client.create(name, kind="fixed", eps=0.01, n=50_000)
            client.ingest(name, streams[name])
        client.drain()
        values, bound, n = client.query_merged(list(streams), PHIS)
        assert n == 12_000

        offline = SketchRegistry()
        for name, data in streams.items():
            offline.create(
                name, MetricConfig(kind="fixed", epsilon=0.01, n=50_000)
            )
            offline.ingest(name, data)
        merged = merge_tagged(
            [(name, offline.fetch_serialized(name)) for name in streams]
        )
        assert n == merged.n
        assert bound == float(merged.error_bound())
        assert values == [float(v) for v in merged.quantiles(PHIS)]

    def test_fan_in_survives_a_marked_down_senior(self, coord, client):
        name = "fanin/solo"
        client.create(name, kind="fixed", eps=0.01, n=50_000)
        client.ingest(name, np.arange(5000.0))
        senior = client.owners_of(name)[0]
        client.mark_down(senior)
        values, bound, n = client.query_merged([name], [0.5])
        assert n == 5000
        client.mark_up(senior)

    def test_merge_tagged_empty_is_typed(self):
        with pytest.raises(EmptySummaryError):
            merge_tagged([])


class TestEngineMismatchSurfacing:
    """ISSUE-8 satellite 1: replica engine disagreement names names."""

    def _mixed_metric(self, coord, client, name, *, kll_on_senior=False):
        """Create *name* with a different engine on each of its two
        owners (out-of-band, against routing -- operator error)."""
        owner_a, owner_b = client.owners_of(name)
        paper_node, kll_node = (
            (owner_b, owner_a) if kll_on_senior else (owner_a, owner_b)
        )
        with direct(coord, paper_node) as qc:
            qc.create(name, kind="fixed", eps=0.02, n=10_000)
            qc.ingest(name, np.arange(100.0))
        with direct(coord, kll_node) as qc:
            qc.create(name, kind="fixed", engine="kll")
            qc.ingest(name, np.arange(100.0))
        return paper_node, kll_node

    def test_check_replicas_names_node_and_engine(self, coord, client):
        paper_node, kll_node = self._mixed_metric(coord, client, "mix/m")
        with pytest.raises(ReplicaEngineMismatchError) as err:
            client.check_replicas("mix/m")
        msg = str(err.value)
        assert f"{paper_node}=paper" in msg
        assert f"{kll_node}=kll" in msg
        assert "re-create the metric" in msg
        # and it still IS an EngineMismatchError for existing handlers
        assert isinstance(err.value, EngineMismatchError)
        assert dict(err.value.tagged) == {
            paper_node: "paper",
            kll_node: "kll",
        }

    def test_fetch_merged_mixed_engines_names_nodes(self, coord, client):
        # the kll copy sits on the SENIOR owner, so the fan-in's
        # per-metric senior payloads disagree across metrics
        self._mixed_metric(
            coord, client, "mix/fanin", kll_on_senior=True
        )
        client.create("mix/clean", kind="fixed", eps=0.02, n=10_000)
        client.ingest("mix/clean", np.arange(100.0))
        with pytest.raises(ReplicaEngineMismatchError) as err:
            client.fetch_merged(["mix/clean", "mix/fanin"])
        assert "mix/clean" in str(err.value.metric)
        assert len(err.value.tagged) == 2

    def test_agreeing_replicas_pass_the_check(self, coord, client):
        client.create("mix/ok", kind="fixed", eps=0.02, n=10_000)
        client.ingest("mix/ok", np.arange(50.0))
        tagged = client.check_replicas("mix/ok")
        assert [eng for _, eng in tagged] == ["paper", "paper"]


class TestMixedEngineResync:
    """ISSUE-9 satellite 3: engine safety on the re-sync transfer path.

    The :class:`SyncDriver` moves whole serialized summaries between
    nodes; a transfer must carry the engine byte along unchanged and
    refuse -- naming names -- to install across an engine disagreement,
    whether the target already holds the metric under another engine or
    the donor itself is corrupt (its declared config contradicts its
    payload magic).
    """

    @pytest.mark.parametrize("engine", ["kll", "frugal"])
    def test_transfer_preserves_engine_byte_and_bits(
        self, coord, client, engine
    ):
        name = f"mixsync/{engine}"
        client.create(name, kind="fixed", eps=0.02, engine=engine)
        client.ingest(
            name, np.random.default_rng(5).standard_normal(1500)
        )
        client.drain()
        owners = client.owners_of(name)
        bystander = next(
            n for n in coord.node_ids if n not in owners
        )
        with SyncDriver(coord.manifest) as driver:
            report = driver.sync_metric(name, owners[0], bystander)
        assert report.verified
        assert report.engine == engine
        with direct(coord, owners[0]) as dc, direct(
            coord, bystander
        ) as bc:
            donor_payload = dc.fetch_raw(name)
            target_payload = bc.fetch_raw(name)
        assert target_payload == donor_payload
        assert engine_of(target_payload) == engine

    def test_target_under_other_engine_refuses_named(self, coord, client):
        """Out-of-band, the two owners hold 'the same' metric under
        different engines; a sync between them must not clobber."""
        name = "mixsync/clash"
        owner_a, owner_b = client.owners_of(name)
        with direct(coord, owner_a) as qc:
            qc.create(name, kind="fixed", eps=0.02, n=10_000)
            qc.ingest(name, np.arange(200.0))
        with direct(coord, owner_b) as qc:
            qc.create(name, kind="fixed", engine="kll")
            qc.ingest(name, np.arange(200.0))
        with SyncDriver(coord.manifest) as driver:
            with pytest.raises(ReplicaEngineMismatchError) as err:
                driver.sync_metric(name, owner_a, owner_b)
        assert dict(err.value.tagged) == {
            owner_a: "paper",
            owner_b: "kll",
        }
        # nothing was installed: the kll copy survives untouched
        with direct(coord, owner_b) as qc:
            assert engine_of(qc.fetch_raw(name)) == "kll"

    def test_corrupt_donor_config_vs_bytes_refuses(self, coord, client):
        """A donor whose declared engine contradicts its payload magic
        is corrupt; installing either interpretation would guess, so
        the driver refuses and names the donor's config explicitly."""
        offline = SketchRegistry()
        offline.create(
            "evil/m", MetricConfig(kind="fixed", epsilon=0.02, n=10_000)
        )
        offline.ingest("evil/m", np.arange(300.0))
        paper_payload = offline.fetch_serialized("evil/m")

        class CorruptDonor:
            def sync_pull(self, name, after_seq=0):
                return {
                    "rebase": False,
                    # ...but the bytes say paper
                    "config": MetricConfig(epsilon=0.02, engine="kll"),
                    "seq": 1,
                    "payload": paper_payload,
                    "records": [],
                }

        target = coord.node_ids[0]
        with SyncDriver(coord.manifest) as driver:
            driver._clients["evil-donor"] = CorruptDonor()
            with pytest.raises(ReplicaEngineMismatchError) as err:
                driver.sync_metric("evil/m", "evil-donor", target)
            driver._clients.pop("evil-donor")
        assert dict(err.value.tagged) == {
            "evil-donor(config)": "kll",
            "evil-donor": "paper",
        }
        # the refusal happened before any install reached the target
        with direct(coord, target) as qc:
            names = [m["name"] for m in qc.list_metrics()]
        assert "evil/m" not in names


class TestClusterWideReads:
    def test_status_and_stats_and_list(self, coord, client):
        client.create("wide/m", kind="fixed", eps=0.02, n=10_000)
        client.ingest("wide/m", np.arange(10.0))
        client.drain()
        rows = client.status()
        assert [r["id"] for r in rows] == coord.node_ids
        assert all(r["alive"] for r in rows)
        assert all(r["epoch"] == coord.epoch for r in rows)
        stats = client.stats()
        assert {s["node_id"] for s in stats} == set(coord.node_ids)
        listed = [
            m for m in client.list_metrics() if m["name"] == "wide/m"
        ]
        # the broadcast CREATE puts the definition on every node; only
        # the ring owners hold the stream
        owners = client.owners_of("wide/m")
        assert sorted(m["node"] for m in listed) == coord.node_ids
        assert sorted(
            m["node"] for m in listed if m["n"] > 0
        ) == sorted(owners)
        assert all(m["owners"] == owners for m in listed)

    def test_replication_override_must_fit(self, coord):
        from repro.cluster.errors import ClusterConfigError

        with pytest.raises(ClusterConfigError, match="replication"):
            ClusterClient(coord.manifest, replication=4)
        with pytest.raises(ClusterConfigError, match="replication"):
            ClusterClient(coord.manifest, replication=0)
