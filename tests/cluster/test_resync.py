"""ISSUE-9 tentpole + satellite 1: crash, re-sync, rejoin -- proven end to end.

One module-scoped 3-node R=2 cluster runs the whole recovery story in
order (classes below depend on the earlier ones having run):

* a `scenario` fixture SIGKILLs the senior owner of a chaos-proxied
  metric mid-ingest (lost acks force token resends first), keeps
  ingesting into the survivors, then relaunches the corpse and re-syncs
  it -- full-payload install + journal-tail catch-up under the donors'
  idempotency tokens;
* the tests then assert the hard guarantees: the resynced node's
  serialized state is **bit-identical** to its donor's for every metric
  it owns (across paper/kll/frugal engines), the cluster-wide ``n`` is
  *exactly* the number ingested (zero lost, zero duplicated), and the
  cluster fan-in equals the offline Sec. 4.9 merge of the same streams;
* planned membership follows on the same cluster: ``add_node`` /
  ``remove_node`` migrate only the ring-moved metrics while counts stay
  exact;
* the ``repro cluster status`` exit-code contract (ISSUE-9 satellite 4)
  is pinned: 0 all up, 4 alive-but-syncing, 1 anything dead or down --
  a re-sync window must not page as an outage.
"""

from __future__ import annotations

import json
import os
import socket
import types

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cluster import (
    ClusterCoordinator,
    ClusterManifest,
    SyncDriver,
    merge_tagged,
)
from repro.cluster.errors import ClusterConfigError, ClusterSyncError
from repro.obs import hooks as obs_hooks
from repro.service import ChaosProxy, FaultEvent, FaultSchedule, QuantileClient
from repro.service.protocol import MetricConfig
from repro.service.registry import SketchRegistry

BATCH = 500
N_BATCHES = 8  # half before the kill, half while the victim is down
TOTAL = BATCH * N_BATCHES
PHIS = [0.1, 0.5, 0.9, 0.99]

#: name -> engine; the paper trio also feeds the fan-in assertions
METRICS = {
    "rs/chaos": "paper",
    "rs/p0": "paper",
    "rs/p1": "paper",
    "rs/kll": "kll",
    "rs/frugal": "frugal",
}


def create_kwargs(engine):
    if engine == "paper":
        return dict(kind="fixed", epsilon=0.01, n=10 * TOTAL)
    return dict(kind="fixed", epsilon=0.01, engine=engine)


def direct(coord, node_id):
    spec = coord.manifest.node(node_id)
    return QuantileClient(spec.host, spec.port)


def node_n(coord, node_id, name):
    with direct(coord, node_id) as qc:
        for entry in qc.list_metrics():
            if entry["name"] == name:
                return entry["n"]
    return 0


@pytest.fixture(scope="module")
def coord(tmp_path_factory):
    data_dir = str(tmp_path_factory.mktemp("resync-cluster"))
    with ClusterCoordinator(
        nodes=3,
        replication=2,
        data_dir=data_dir,
        n_shards=1,
        snapshot_interval_s=None,
    ) as c:
        yield c


@pytest.fixture(scope="module")
def scenario(coord):
    """Run the kill -> continue-ingest -> restart -> re-sync story once."""
    rng = np.random.default_rng(1998)
    data = {
        name: rng.standard_normal(TOTAL) * (i + 1)
        for i, name in enumerate(METRICS)
    }
    with coord.client() as probe:
        victim = probe.ring.owners("rs/chaos", 2)[0]
    spec = coord.manifest.node(victim)
    # truncate server->client on the first connections: acks are lost
    # for batches the victim already journaled, forcing token resends
    plan = (FaultEvent(kind="truncate", direction="s2c", after_bytes=64),)
    with ChaosProxy(
        spec.host, spec.port, schedule=FaultSchedule([plan, plan, plan])
    ) as proxy:
        client = coord.client(
            endpoint_overrides={victim: (proxy.host, proxy.port)},
            timeout=10.0,
            max_retries=4,
            backoff_base=0.01,
        )
        try:
            for name, engine in METRICS.items():
                kwargs = create_kwargs(engine)
                client.create(name, eps=kwargs.pop("epsilon"), **kwargs)
            half = N_BATCHES // 2
            for i in range(half):
                for name in METRICS:
                    client.ingest(
                        name, data[name][i * BATCH : (i + 1) * BATCH]
                    )
            faults_fired = bool(proxy.faults_injected)
            coord.kill_node(victim)
            epoch_up = coord.epoch
            newly_dead = coord.poll()
            epoch_down = coord.epoch
            # the cluster keeps taking writes while the victim is a corpse
            for i in range(half, N_BATCHES):
                for name in METRICS:
                    client.ingest(
                        name, data[name][i * BATCH : (i + 1) * BATCH]
                    )
            client.drain()
        finally:
            client.close()
    coord.restart_node(victim, resync=False)
    epoch_restarted = coord.epoch
    manifest_while_syncing = ClusterManifest.load(coord.manifest_path)
    resyncs0 = obs_hooks.registry().value("cluster.resyncs")
    report = coord.resync_node(victim)
    resyncs = obs_hooks.registry().value("cluster.resyncs") - resyncs0
    ring = coord.manifest.ring()
    owned = sorted(
        name for name in METRICS if victim in ring.owners(name, 2)
    )
    return types.SimpleNamespace(
        data=data,
        victim=victim,
        faults_fired=faults_fired,
        newly_dead=newly_dead,
        epoch_up=epoch_up,
        epoch_down=epoch_down,
        epoch_restarted=epoch_restarted,
        epoch_final=coord.epoch,
        manifest_while_syncing=manifest_while_syncing,
        report=report,
        resyncs=resyncs,
        ring=ring,
        owned=owned,
    )


class TestCrashAndResync:
    def test_chaos_faults_and_death_detection(self, scenario):
        assert scenario.faults_fired, "no ack loss injected; tune schedule"
        assert scenario.newly_dead == [scenario.victim]
        assert scenario.epoch_down == scenario.epoch_up + 1

    def test_restart_rejoins_as_syncing_not_up(self, scenario):
        m = scenario.manifest_while_syncing
        assert m.node(scenario.victim).status == "syncing"
        assert scenario.victim not in m.live_ids()
        assert scenario.victim in m.syncing_ids()
        assert scenario.epoch_restarted == scenario.epoch_down + 1

    def test_resync_flips_up_and_bumps_epoch(self, coord, scenario):
        assert coord.manifest.node(scenario.victim).status == "up"
        assert scenario.epoch_final > scenario.epoch_restarted
        assert scenario.resyncs >= 1

    def test_every_owned_metric_verified_bit_identical(self, scenario):
        assert scenario.owned, "victim owns nothing; placement surprise"
        synced = {m.name: m for m in scenario.report.synced}
        assert sorted(synced) == scenario.owned
        for m in synced.values():
            assert m.verified, m
            assert m.installs >= 1
            assert m.bytes > 0

    def test_resynced_payloads_equal_donor_payloads(self, coord, scenario):
        """Re-verify identity out-of-band, not trusting the report."""
        for name in scenario.owned:
            owners = scenario.ring.owners(name, 2)
            donor = next(n for n in owners if n != scenario.victim)
            with direct(coord, donor) as dc, direct(
                coord, scenario.victim
            ) as vc:
                dc.drain()
                vc.drain()
                assert dc.fetch_raw(name) == vc.fetch_raw(name), name

    def test_transfer_preserved_each_engine_byte(self, scenario):
        synced = {m.name: m.engine for m in scenario.report.synced}
        for name, engine in synced.items():
            assert engine == METRICS[name], name

    def test_cluster_wide_n_is_exact(self, coord, scenario):
        """Zero lost, zero duplicated, through ack loss + SIGKILL +
        re-sync -- for every engine."""
        with coord.client() as client:
            for name in METRICS:
                _values, _bound, n = client.query(name, [0.5])
                assert n == TOTAL, (name, n)

    def test_fan_in_equals_offline_merge(self, coord, scenario):
        """Cluster fan-in over the recovered topology == offline
        Sec. 4.9 merge of the same full streams."""
        names = ["rs/chaos", "rs/p0", "rs/p1"]
        with coord.client() as client:
            values, bound, n = client.query_merged(names, PHIS)
        offline = SketchRegistry()
        for name in names:
            offline.create(name, MetricConfig(**create_kwargs("paper")))
            offline.ingest(name, scenario.data[name])
        offline.apply_all()
        merged = merge_tagged(
            [(name, offline.fetch_serialized(name)) for name in names]
        )
        assert n == merged.n == 3 * TOTAL
        assert bound == float(merged.error_bound())
        assert values == [float(v) for v in merged.quantiles(PHIS)]

    def test_victim_journal_holds_the_restore_records(self, coord, scenario):
        """The installs are journaled: a second crash right after the
        re-sync replays to the same state."""
        from repro.service.journal import RESTORE_RECORD, read_journal

        restored = set()
        node_dir = os.path.join(coord.data_dir, scenario.victim)
        for root, _dirs, files in os.walk(node_dir):
            for fname in files:
                if not fname.endswith(".log"):
                    continue
                scan = read_journal(os.path.join(root, fname))
                for rec in scan.records:
                    if rec.type == RESTORE_RECORD:
                        restored.add(rec.name)
                        assert rec.payload, rec.name
        assert set(scenario.owned) <= restored

    def test_sync_progress_gauges_published(self, coord, scenario):
        prom = coord.prometheus()
        assert "repro_cluster_resyncs" in prom
        assert "repro_cluster_nodes_syncing 0.0" in prom
        assert "repro_cluster_sync_metrics_total" in prom
        assert "repro_cluster_sync_metrics_done" in prom


class TestSyncDriverEdges:
    def test_sole_copy_is_kept_never_overwritten(self, coord, scenario):
        """When every placement co-owner is gone, the target's local
        journal is the only surviving copy -- re-sync must keep it."""
        name = scenario.owned[0]
        owners = scenario.ring.owners(name, 2)
        target = owners[0]
        bystander = next(
            n for n in coord.node_ids if n not in owners
        )
        with direct(coord, target) as tc:
            before = tc.fetch_raw(name)
        with SyncDriver(coord.manifest) as driver:
            report = driver.resync_node(
                target,
                ring=scenario.ring,
                replication=2,
                live={bystander},  # both owners "dead"
                metrics=[name],
            )
        assert report.kept == [name]
        assert report.synced == []
        with direct(coord, target) as tc:
            assert tc.fetch_raw(name) == before

    def test_no_live_donor_is_a_typed_error(self, coord, scenario):
        with SyncDriver(coord.manifest) as driver:
            with pytest.raises(ClusterSyncError, match="no live donor"):
                driver.resync_node(
                    "node-0",
                    ring=scenario.ring,
                    replication=2,
                    live=set(),
                )

    def test_restart_refuses_a_live_node(self, coord, scenario):
        with pytest.raises(ClusterConfigError, match="still running"):
            coord.restart_node(scenario.victim)

    def test_resync_refuses_a_dead_node(self, tmp_path):
        with ClusterCoordinator(
            nodes=1,
            replication=1,
            data_dir=str(tmp_path / "solo"),
            n_shards=1,
            snapshot_interval_s=None,
        ) as solo:
            solo.kill_node(0)
            with pytest.raises(ClusterSyncError, match="not running"):
                solo.resync_node(0)
            with pytest.raises(ClusterConfigError, match="fewer than"):
                solo.remove_node(0)


def _free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class TestStatusExitCodes:
    """ISSUE-9 satellite 4: `repro cluster status` must tell a node
    that is alive-and-catching-up apart from a dead one."""

    def _edited_manifest(self, coord, tmp_path, edit=None):
        manifest = ClusterManifest.load(coord.manifest_path)
        if edit is not None:
            edit(manifest)
        path = str(tmp_path / "cluster.json")
        manifest.save(path)
        return path

    def test_all_up_exits_zero(self, coord, scenario, tmp_path, capsys):
        path = self._edited_manifest(coord, tmp_path)
        assert cli_main(["cluster", "status", "--manifest", path]) == 0
        out = capsys.readouterr().out
        assert "3/3 nodes up" in out

    def test_syncing_exits_four_not_one(
        self, coord, scenario, tmp_path, capsys
    ):
        """The regression: a node mid-re-sync used to fail status the
        same way a dead node does."""
        path = self._edited_manifest(
            coord, tmp_path, lambda m: m.mark("node-1", "syncing")
        )
        assert cli_main(["cluster", "status", "--manifest", path]) == 4
        out = capsys.readouterr().out
        assert "SYNCING" in out
        assert "1 syncing" in out

    def test_dead_node_exits_one(self, coord, scenario, tmp_path, capsys):
        def point_at_corpse(m):
            m.node("node-1").port = _free_port()

        path = self._edited_manifest(coord, tmp_path, point_at_corpse)
        assert cli_main(["cluster", "status", "--manifest", path]) == 1
        assert "DOWN" in capsys.readouterr().out

    def test_alive_but_marked_down_still_exits_one(
        self, coord, scenario, tmp_path, capsys
    ):
        """An un-swept or never-resynced node is *behind*: answering
        PINGs does not make it healthy."""
        path = self._edited_manifest(
            coord, tmp_path, lambda m: m.mark("node-2", "down")
        )
        assert cli_main(["cluster", "status", "--manifest", path]) == 1
        capsys.readouterr()

    def test_prom_gauges_split_up_and_syncing(
        self, coord, scenario, tmp_path, capsys
    ):
        path = self._edited_manifest(
            coord, tmp_path, lambda m: m.mark("node-1", "syncing")
        )
        assert (
            cli_main(
                ["cluster", "status", "--manifest", path, "--prom"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "repro_cluster_nodes_up 2.0" in out
        assert "repro_cluster_nodes_syncing 1.0" in out
        # the node is alive, just not serving reads: the per-node
        # liveness gauge must still say so
        assert 'repro_cluster_node_up{node="node-1"} 1.0' in out

    def test_json_carries_manifest_status_per_node(
        self, coord, scenario, tmp_path, capsys
    ):
        path = self._edited_manifest(
            coord, tmp_path, lambda m: m.mark("node-1", "syncing")
        )
        cli_main(["cluster", "status", "--manifest", path, "--json"])
        doc = json.loads(capsys.readouterr().out)
        by_id = {row["id"]: row for row in doc["nodes"]}
        assert by_id["node-1"]["manifest_status"] == "syncing"
        assert by_id["node-1"]["alive"] is True


class TestPlannedMembership:
    """Tentpole second half: add-node / remove-node on the same live
    cluster, counts staying exact throughout.  Runs last -- it changes
    the topology the earlier classes pinned."""

    def test_add_node_migrates_only_moved_keys(self, coord, scenario):
        ring_before = coord.manifest.ring()
        epoch0 = coord.epoch
        transfers0 = obs_hooks.registry().value("cluster.rebalance_transfers")
        nid = coord.add_node()
        assert nid == "node-3"
        assert coord.manifest.node(nid).status == "up"
        assert coord.epoch == epoch0 + 2  # join + flip-up
        ring_after = coord.manifest.ring()
        gained = [
            name
            for name in METRICS
            if nid in ring_after.owners(name, 2)
        ]
        assert (
            obs_hooks.registry().value("cluster.rebalance_transfers")
            > transfers0
        )
        for name in METRICS:
            expected = TOTAL if name in gained else 0
            assert node_n(coord, nid, name) == expected, name
        # pre-existing placement of unmoved keys did not shift
        for name in METRICS:
            if name not in gained:
                assert ring_after.owners(name, 2) == ring_before.owners(
                    name, 2
                ), name

    def test_counts_exact_after_join(self, coord, scenario):
        with coord.client() as client:
            for name in METRICS:
                _v, _b, n = client.query(name, [0.5])
                assert n == TOTAL, (name, n)

    def test_remove_node_drains_and_departs(self, coord, scenario):
        leaving = "node-0"
        ring_after = (
            coord.manifest.ring()
        )  # captured before removal for the gained-set check below
        epoch0 = coord.epoch
        migrated = coord.remove_node(leaving)
        assert leaving not in coord.manifest.node_ids()
        assert coord.epoch == epoch0 + 1
        assert not coord.is_alive(leaving)
        # only metrics the leaving node anchored needed to move
        anchored = [
            name
            for name in METRICS
            if leaving in ring_after.owners(name, 2)
        ]
        assert set(migrated) <= set(anchored)
        with coord.client() as client:
            for name in METRICS:
                _v, _b, n = client.query(name, [0.5])
                assert n == TOTAL, (name, n)

    def test_sparse_ids_survive_a_full_restart(self, coord, scenario):
        """After remove(node-0) the ids are sparse (1,2,3); a restart
        over the same data_dir must keep them -- re-deriving node-0..2
        would re-route metrics away from their journals."""
        ids = coord.manifest.node_ids()
        assert ids == ["node-1", "node-2", "node-3"]
        coord.stop()
        relaunched = ClusterCoordinator(
            nodes=3,
            replication=2,
            data_dir=coord.data_dir,
            n_shards=1,
            snapshot_interval_s=None,
        )
        relaunched.start()
        try:
            assert relaunched.manifest.node_ids() == ids
            with relaunched.client() as client:
                for name in METRICS:
                    _v, _b, n = client.query(name, [0.5])
                    assert n == TOTAL, (name, n)
        finally:
            relaunched.stop()
