"""ClusterCoordinator lifecycle: spawn, manifest, supervision, obs.

Real process spawns are expensive (~1s each), so each test does as much
as it can with one cluster; counts stay small (2-3 nodes, 1 shard).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterManifest,
    ClusterSyncError,
    SyncDriver,
)
from repro.cluster.errors import ClusterConfigError
from repro.service import QuantileClient

SERVICE_KW = dict(n_shards=1, snapshot_interval_s=None)

#: what OpenBLAS reads for its pool size, in order of precedence
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"
)


class TestValidation:
    def test_bad_topology_rejected_before_spawn(self):
        with pytest.raises(ClusterConfigError, match="nodes"):
            ClusterCoordinator(nodes=0)
        with pytest.raises(ClusterConfigError, match="replication"):
            ClusterCoordinator(nodes=2, replication=3)
        with pytest.raises(ClusterConfigError, match="replication"):
            ClusterCoordinator(nodes=2, replication=0)
        # node i listens on base_port + i, which must stay a TCP port
        with pytest.raises(ClusterConfigError, match="0-65535"):
            ClusterCoordinator(nodes=2, replication=1, base_port=65535)


class TestLifecycle:
    def test_start_manifest_ping_stop(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        with ClusterCoordinator(
            nodes=2, replication=2, data_dir=data_dir, **SERVICE_KW
        ) as coord:
            # manifest on disk matches the live topology
            manifest = ClusterManifest.load(coord.manifest_path)
            assert manifest.epoch == coord.epoch == 1
            assert manifest.node_ids() == ["node-0", "node-1"]
            assert manifest.replication == 2
            assert coord.ports == [s.port for s in manifest.nodes]
            assert coord.live_ids() == ["node-0", "node-1"]
            # each node knows its identity and launch epoch (PING)
            for spec in manifest.nodes:
                with QuantileClient(spec.host, spec.port) as qc:
                    pong = qc.ping()
                    assert pong["node_id"] == spec.id
                    assert pong["epoch"] == 1
                    assert pong["uptime_s"] >= 0.0
                    assert pong["n_metrics"] == 0
            # per-node durability dirs exist
            for nid in coord.node_ids:
                assert os.path.isdir(os.path.join(data_dir, nid))
        # graceful stop reaps every child
        assert not any(coord.is_alive(n) for n in coord.node_ids)

    def test_ephemeral_mode_has_no_manifest_file(self):
        with ClusterCoordinator(
            nodes=1, replication=1, **SERVICE_KW
        ) as coord:
            assert coord.manifest_path is None
            assert coord.manifest is not None
            assert len(coord.ports) == 1

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs Linux /proc"
    )
    def test_node_process_runs_one_thread(self, monkeypatch):
        """A node defaults numpy's OpenBLAS pool to one thread before
        its first numpy import, as ``repro serve`` does."""
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        with ClusterCoordinator(
            nodes=1, replication=1, **SERVICE_KW
        ) as coord:
            pid = coord._procs["node-0"].pid
            assert os.listdir(f"/proc/{pid}/task") == [str(pid)]

    def test_restart_bumps_epoch_and_pins_topology(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        with ClusterCoordinator(
            nodes=2, replication=2, data_dir=data_dir, **SERVICE_KW
        ):
            pass
        with ClusterCoordinator(
            nodes=2, replication=2, data_dir=data_dir, **SERVICE_KW
        ) as coord:
            assert coord.epoch == 2
        # a different shape over the same journals is refused
        with pytest.raises(ClusterConfigError, match="2-node"):
            ClusterCoordinator(
                nodes=3, replication=2, data_dir=data_dir, **SERVICE_KW
            ).start()
        with pytest.raises(ClusterConfigError, match="replication"):
            ClusterCoordinator(
                nodes=2, replication=1, data_dir=data_dir, **SERVICE_KW
            ).start()
        with pytest.raises(ClusterConfigError, match="vnodes"):
            ClusterCoordinator(
                nodes=2, replication=2, data_dir=data_dir, vnodes=16,
                **SERVICE_KW,
            ).start()


class TestSupervision:
    def test_kill_poll_marks_down_and_bumps_epoch(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        with ClusterCoordinator(
            nodes=3, replication=2, data_dir=data_dir, **SERVICE_KW
        ) as coord:
            assert coord.poll() == []  # healthy sweep is a no-op
            epoch0 = coord.epoch
            killed = coord.kill_node(1)
            assert killed == "node-1"
            assert not coord.is_alive("node-1")
            assert coord.poll() == ["node-1"]
            assert coord.poll() == []  # only *newly* dead reported
            assert coord.epoch == epoch0 + 1
            assert coord.live_ids() == ["node-0", "node-2"]
            # the death reached the on-disk manifest atomically
            manifest = ClusterManifest.load(coord.manifest_path)
            assert manifest.node("node-1").status == "down"
            assert manifest.epoch == coord.epoch
            # ... and the Prometheus exposition
            prom = coord.prometheus()
            assert "repro_cluster_nodes_up 2.0" in prom
            assert "repro_cluster_nodes_total 3.0" in prom
            assert "repro_cluster_node_deaths" in prom
            # survivors keep serving
            with coord.client() as client:
                assert client.status()  # reaches the live nodes

    def test_kill_unknown_node_rejected(self):
        with ClusterCoordinator(
            nodes=1, replication=1, **SERVICE_KW
        ) as coord:
            with pytest.raises(ClusterConfigError, match="unknown node"):
                coord.kill_node("node-7")


def _boom(*_args, **_kwargs):
    raise ClusterSyncError("donor failed mid-sync")


class TestFailedJoin:
    def test_failed_add_node_stops_its_process_and_retry_joins(
        self, tmp_path, monkeypatch
    ):
        """A join whose donor fails mid-sync takes the node out of the
        manifest again, so a retry reuses its id: the first attempt's
        server must be gone before the retry launches the only one."""
        names = [f"join/m{i}" for i in range(4)]
        with ClusterCoordinator(
            nodes=2, replication=2, data_dir=str(tmp_path), **SERVICE_KW
        ) as coord:
            with coord.client() as client:
                for i, name in enumerate(names):
                    client.create(name, kind="adaptive")
                    client.ingest(name, np.arange(100.0) + i)
                client.drain()
            epoch0 = coord.epoch
            launched = []
            launch = coord._launch

            def spy(nid, epoch, ctx=None):
                proc, conn = launch(nid, epoch, ctx)
                launched.append(proc)
                return proc, conn

            monkeypatch.setattr(coord, "_launch", spy)
            with monkeypatch.context() as patch:
                patch.setattr(SyncDriver, "sync_metric", _boom)
                with pytest.raises(ClusterSyncError, match="donor failed"):
                    coord.add_node()
            assert coord.manifest.node_ids() == ["node-0", "node-1"]
            assert coord.epoch == epoch0 + 2  # joined, then undone
            assert len(launched) == 1
            assert not launched[0].is_alive()
            assert not coord.is_alive("node-2")
            assert coord.add_node() == "node-2"
            assert len(launched) == 2 and launched[1].is_alive()
            assert coord.manifest.node("node-2").status == "up"
            with coord.client() as client:
                for name in names:
                    assert client.query(name, [0.5])[2] == 100, name
