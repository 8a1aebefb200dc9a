"""Membership verbs on clusters that used to defeat them.

* Adaptive metrics -- the default kind of ``repro cluster client
  create`` -- re-sync and migrate like every other metric.
* A re-sync or join that fails mid-transfer puts the manifest back: the
  node is not left ``syncing``.
* ``remove-node`` of a node that is dead but still ``up`` in the
  manifest migrates its keys from the live replicas.
* A re-sync from donors without a journal (no ``--data-dir``) installs
  each metric once and verifies it, instead of re-installing until it
  gives up.

Every cluster here is a set of :class:`ServerThread` s behind a
``cluster.json`` written by the test, driven through the shell verbs.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cluster import (
    ClusterClient,
    ClusterManifest,
    ClusterSyncError,
    NodeSpec,
    SyncDriver,
)
from repro.service import QuantileClient, ServerThread

NAMES = [f"rep/m{i:02d}" for i in range(6)]


def values_of(i):
    """Metric *i*'s stream: stage rolls at 4096 and 12 288 values for
    the first two metrics, a few hundred values for the rest."""
    n = 13_000 if i < 2 else 300
    return np.random.default_rng(i).normal(size=n) * (i + 1)


def cluster_cli(capsys, *argv):
    """Run ``repro cluster ...``; returns ``(exit code, stdout lines)``."""
    code = cli_main(["cluster", *argv])
    return code, capsys.readouterr().out.splitlines()


def node_n(manifest, node_id, name):
    spec = manifest.node(node_id)
    with QuantileClient(spec.host, spec.port) as qc:
        qc.drain()
        for entry in qc.list_metrics():
            if entry["name"] == name:
                return entry["n"]
    return 0


def assert_owners_exact(path):
    manifest = ClusterManifest.load(path)
    ring = manifest.ring()
    for i, name in enumerate(NAMES):
        for owner in ring.owners(name, manifest.replication):
            assert node_n(manifest, owner, name) == len(values_of(i)), (
                name,
                owner,
            )


def _closed_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _server(tmp_path, name):
    """A journaled node: a donor needs its journal to serve the catch-up
    rounds of a re-sync."""
    return ServerThread(
        n_shards=1, snapshot_interval_s=None, data_dir=str(tmp_path / name)
    )


def _servers(tmp_path, n):
    return [_server(tmp_path, f"node-{i}") for i in range(n)]


@pytest.fixture
def adaptive_cluster(tmp_path, capsys):
    """3 nodes, R=2, six adaptive metrics created with the default kind;
    yields the manifest path."""
    servers = _servers(tmp_path, 3)
    for server in servers:
        server.start()
    try:
        manifest = ClusterManifest(
            nodes=[
                NodeSpec(f"node-{i}", "127.0.0.1", s.port)
                for i, s in enumerate(servers)
            ],
            replication=2,
        )
        path = str(tmp_path / "cluster.json")
        manifest.save(path)
        for name in NAMES:
            code, out = cluster_cli(
                capsys, "client", "--manifest", path, "create", name
            )
            assert (code, out) == (0, ["created"])
        with ClusterClient(path) as client:
            for i, name in enumerate(NAMES):
                client.ingest(name, values_of(i))
            client.drain()
        yield path
    finally:
        for server in servers:
            server.stop()


def test_adaptive_metrics_resync_and_migrate(
    adaptive_cluster, tmp_path, capsys
):
    path = adaptive_cluster
    manifest = ClusterManifest.load(path)
    spec = manifest.node("node-1")
    with QuantileClient(spec.host, spec.port) as qc:
        kinds = {m["name"]: m["kind"] for m in qc.list_metrics()}
    assert kinds == {name: "adaptive" for name in NAMES}
    # node-1 comes back empty on a fresh port: the re-sync must move
    # every adaptive metric it owns from a donor
    with _server(tmp_path, "fresh") as fresh:
        code, out = cluster_cli(
            capsys,
            "resync",
            "node-1",
            "--endpoint",
            f"127.0.0.1:{fresh.port}",
            "--manifest",
            path,
        )
        assert code == 0
        after = ClusterManifest.load(path)
        assert after.node("node-1").status == "up"
        owned = [n for n in NAMES if "node-1" in after.ring().owners(n, 2)]
        assert owned, "node-1 owns nothing; placement surprise"
        assert out[0].startswith(
            f"node-1 re-synced at epoch {after.epoch}: {len(owned)} "
            "metrics verified bit-identical"
        )
        assert_owners_exact(path)
        with _server(tmp_path, "joiner") as joiner:
            code, out = cluster_cli(
                capsys,
                "add-node",
                "--port",
                str(joiner.port),
                "--manifest",
                path,
            )
            assert code == 0
            grown = ClusterManifest.load(path)
            assert grown.node_ids()[-1] == "node-3"
            assert grown.node("node-3").status == "up"
            assert_owners_exact(path)
            with ClusterClient(path) as client:
                for i, name in enumerate(NAMES):
                    _values, _bound, n = client.query(name, [0.5])
                    assert n == len(values_of(i)), name


def _boom(*_args, **_kwargs):
    raise ClusterSyncError("donor failed mid-sync")


@pytest.mark.parametrize("prior", ["up", "down"])
def test_failed_resync_restores_the_prior_status(
    adaptive_cluster, monkeypatch, capsys, prior
):
    path = adaptive_cluster
    manifest = ClusterManifest.load(path)
    manifest.mark("node-1", prior)
    manifest.save(path)
    monkeypatch.setattr(SyncDriver, "sync_metric", _boom)
    code = cli_main(["cluster", "resync", "node-1", "--manifest", path])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "donor failed mid-sync" in captured.err
    after = ClusterManifest.load(path)
    assert after.node("node-1").status == prior
    assert after.epoch == manifest.epoch + 2  # syncing, then undone


def test_failed_join_removes_the_node_again(
    adaptive_cluster, tmp_path, monkeypatch, capsys
):
    path = adaptive_cluster
    before = ClusterManifest.load(path)
    monkeypatch.setattr(SyncDriver, "sync_metric", _boom)
    with _server(tmp_path, "joiner") as joiner:
        code = cli_main(
            ["cluster", "add-node", "--port", str(joiner.port),
             "--manifest", path]
        )
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "donor failed mid-sync" in captured.err
    after = ClusterManifest.load(path)
    assert after.node_ids() == before.node_ids()
    assert after.epoch == before.epoch + 2  # joined, then undone


def test_remove_dead_node_migrates_from_live_replicas(tmp_path, capsys):
    """4 nodes, R=2; node-1 is ``up`` in the manifest but its port is
    closed.  Every live node knows every metric; only live owners hold
    the values (node-1's copies died with it)."""
    servers = _servers(tmp_path, 3)
    for server in servers:
        server.start()
    try:
        dead = _closed_port()
        ports = [servers[0].port, dead, servers[1].port, servers[2].port]
        manifest = ClusterManifest(
            nodes=[
                NodeSpec(f"node-{i}", "127.0.0.1", port)
                for i, port in enumerate(ports)
            ],
            replication=2,
        )
        path = str(tmp_path / "cluster.json")
        manifest.save(path)
        ring = manifest.ring()
        anchored = [n for n in NAMES if "node-1" in ring.owners(n, 2)]
        assert anchored, "node-1 owns nothing; placement surprise"
        for node_id in ("node-0", "node-2", "node-3"):
            spec = manifest.node(node_id)
            with QuantileClient(spec.host, spec.port) as qc:
                for i, name in enumerate(NAMES):
                    qc.create(name, kind="fixed", eps=0.01, n=20_000)
                    if node_id in ring.owners(name, 2):
                        qc.ingest(name, values_of(i))
        code, out = cluster_cli(
            capsys, "remove-node", "node-1", "--manifest", path
        )
        assert code == 0
        after = ClusterManifest.load(path)
        assert after.epoch == manifest.epoch + 1
        assert after.node_ids() == ["node-0", "node-2", "node-3"]
        assert out == [
            f"node-1 removed at epoch {after.epoch}: "
            f"{len(anchored)}/{len(NAMES)} metrics migrated to new "
            "owners; its process can be stopped now"
        ]
        assert_owners_exact(path)
    finally:
        for server in servers:
            server.stop()


def test_resync_from_donors_without_a_journal(tmp_path, capsys):
    """3 ephemeral nodes, R=2: every SYNCPULL answers ``seq`` 0, so no
    journal tail can follow the full install."""
    servers = [ServerThread(n_shards=1, snapshot_interval_s=None)
               for _ in range(3)]
    for server in servers:
        server.start()
    try:
        manifest = ClusterManifest(
            nodes=[
                NodeSpec(f"node-{i}", "127.0.0.1", s.port)
                for i, s in enumerate(servers)
            ],
            replication=2,
        )
        path = str(tmp_path / "cluster.json")
        manifest.save(path)
        with ClusterClient(path) as client:
            for i, name in enumerate(NAMES):
                client.create(name, kind="fixed", eps=0.01, n=20_000)
                client.ingest(name, values_of(i))
            client.drain()
        owned = [n for n in NAMES if "node-1" in manifest.ring().owners(n, 2)]
        assert owned, "node-1 owns nothing; placement surprise"
        with ServerThread(n_shards=1, snapshot_interval_s=None) as fresh:
            code, out = cluster_cli(
                capsys,
                "resync",
                "node-1",
                "--endpoint",
                f"127.0.0.1:{fresh.port}",
                "--manifest",
                path,
            )
            assert code == 0
            after = ClusterManifest.load(path)
            assert after.node("node-1").status == "up"
            assert out[0].startswith(
                f"node-1 re-synced at epoch {after.epoch}: {len(owned)} "
                "metrics verified bit-identical"
            )
            assert_owners_exact(path)
    finally:
        for server in servers:
            server.stop()
