"""The shell membership verbs refuse a node that does not answer PING.

`repro cluster resync` used to mark such a node ``syncing`` (and, with
no metrics to move, even ``up``) and bump the epoch; `add-node` joined
whatever address it was given.  Both now raise ``ClusterSyncError``
before the first manifest edit: exit code 1, ``cluster.json`` untouched
byte for byte.
"""

from __future__ import annotations

import socket

import pytest

from repro.cli import main as cli_main
from repro.cluster import ClusterManifest, NodeSpec
from repro.service import QuantileClient, ServerThread


def _closed_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


@pytest.fixture(params=[0, 4], ids=["no-metrics", "four-metrics"])
def manifest_path(request, tmp_path):
    """node-0 and node-2 serve (with *param* metrics on both); node-1
    is ``up`` in the manifest, but nothing listens on its port."""
    with ServerThread(n_shards=1, snapshot_interval_s=None) as a, ServerThread(
        n_shards=1, snapshot_interval_s=None
    ) as b:
        for server in (a, b):
            with QuantileClient("127.0.0.1", server.port) as qc:
                for i in range(request.param):
                    qc.create(f"dead/m{i}", kind="fixed", eps=0.01, n=1000)
                    qc.ingest(f"dead/m{i}", [1.0, 2.0, 3.0])
        manifest = ClusterManifest(
            nodes=[
                NodeSpec("node-0", "127.0.0.1", a.port),
                NodeSpec("node-1", "127.0.0.1", _closed_port()),
                NodeSpec("node-2", "127.0.0.1", b.port),
            ],
            replication=2,
            epoch=5,
        )
        path = str(tmp_path / "cluster.json")
        manifest.save(path)
        yield path


@pytest.mark.parametrize(
    "argv",
    [
        ["resync", "node-1"],
        ["resync", "node-1", "--endpoint", "127.0.0.1:{closed}"],
        ["add-node", "--port", "{closed}"],
    ],
    ids=["resync", "resync-endpoint", "add-node"],
)
def test_dead_node_is_refused_and_manifest_untouched(
    manifest_path, argv, capsys
):
    with open(manifest_path, "rb") as fh:
        before = fh.read()
    closed = str(_closed_port())
    argv = [arg.replace("{closed}", closed) for arg in argv]
    code = cli_main(["cluster", *argv, "--manifest", manifest_path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "does not answer PING" in captured.err
    with open(manifest_path, "rb") as fh:
        assert fh.read() == before
