"""`repro cluster resync|add-node|remove-node|client` driven from the shell.

Every test starts a 3-node R=2 :class:`ClusterCoordinator` with a data
dir and no health sweeps, then creates and ingests 12 metrics of 100
values each through ``repro cluster client``.  The membership verbs
rewrite ``cluster.json`` on disk; the assertions read the manifest back
from there, the way every later shell command and client does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cluster import ClusterClient, ClusterCoordinator, ClusterManifest
from repro.service import QuantileClient, ServerThread

N_METRICS = 12
N_VALUES = 100
NAMES = [f"cli/m{i:02d}" for i in range(N_METRICS)]


def values_of(i):
    """Metric *i*'s stream: 0..99 scaled by i + 1."""
    return np.arange(N_VALUES, dtype=np.float64) * (i + 1)


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


def payload(manifest, node_id, name):
    spec = manifest.node(node_id)
    with QuantileClient(spec.host, spec.port) as qc:
        qc.drain()
        return qc.fetch_raw(name)


@pytest.fixture
def cluster(tmp_path, capsys):
    """A populated 3-node R=2 cluster; yields its data dir."""
    data_dir = str(tmp_path / "cluster")
    with ClusterCoordinator(
        nodes=3,
        replication=2,
        data_dir=data_dir,
        n_shards=1,
        snapshot_interval_s=None,
    ):
        client = ("client", "--manifest", data_dir)
        for i, name in enumerate(NAMES):
            code, out = cluster_cli(
                capsys, *client, "create", name, "--n", "1000"
            )
            assert (code, out) == (0, ["created"])
            values = [f"{v:g}" for v in values_of(i)]
            code, out = cluster_cli(capsys, *client, "ingest", name, *values)
            assert code == 0
            assert len(out) == 1
            assert out[0].startswith(f"ingested {N_VALUES} values to replicas")
        code, out = cluster_cli(capsys, *client, "drain")
        assert code == 0
        yield data_dir


def test_add_node_joins_a_running_server(cluster, capsys):
    before = ClusterManifest.load(cluster)
    with ServerThread(n_shards=1, snapshot_interval_s=None) as server:
        code, out = cluster_cli(
            capsys,
            "add-node",
            "--manifest",
            cluster,
            "--port",
            str(server.port),
        )
        assert code == 0
        after = ClusterManifest.load(cluster)
        assert after.epoch == before.epoch + 2
        assert after.node_ids() == ["node-0", "node-1", "node-2", "node-3"]
        assert after.node("node-3").status == "up"
        assert after.node("node-3").port == server.port
        ring = after.ring()
        moved = [
            name
            for name in NAMES
            if ring.owners(name, 2) != before.ring().owners(name, 2)
        ]
        assert moved, "the join moved no metric; placement surprise"
        assert out == [
            f"node-3 (127.0.0.1:{server.port}) joined at epoch "
            f"{after.epoch}: {len(moved)}/{N_METRICS} metrics moved "
            f"({len(moved) / N_METRICS:.1%}), rest defined only"
        ]
        for name in NAMES:
            for owner in ring.owners(name, 2):
                assert node_n(after, owner, name) == N_VALUES, (name, owner)
        # the joined node knows every metric, owned or not
        with QuantileClient("127.0.0.1", server.port) as qc:
            known = sorted(m["name"] for m in qc.list_metrics())
        assert known == NAMES


def test_remove_node_drains_it_and_drops_it(cluster, capsys):
    before = ClusterManifest.load(cluster)
    code, out = cluster_cli(
        capsys, "remove-node", "node-0", "--manifest", cluster
    )
    assert code == 0
    after = ClusterManifest.load(cluster)
    assert after.epoch == before.epoch + 1
    assert after.node_ids() == ["node-1", "node-2"]
    anchored = [
        name for name in NAMES if "node-0" in before.ring().owners(name, 2)
    ]
    assert out == [
        f"node-0 removed at epoch {after.epoch}: "
        f"{len(anchored)}/{N_METRICS} metrics migrated to new owners; "
        f"its process can be stopped now"
    ]
    with ClusterClient(after) as client:
        for name in NAMES:
            _values, _bound, n = client.query(name, [0.5])
            assert n == N_VALUES, name
    for name in NAMES:
        for owner in after.ring().owners(name, 2):
            assert node_n(after, owner, name) == N_VALUES, (name, owner)


def test_resync_makes_the_node_bit_identical(cluster, capsys):
    before = ClusterManifest.load(cluster)
    code, out = cluster_cli(capsys, "resync", "node-1", "--manifest", cluster)
    assert code == 0
    after = ClusterManifest.load(cluster)
    assert after.epoch == before.epoch + 2  # syncing, then up
    assert after.node("node-1").status == "up"
    ring = after.ring()
    owned = [name for name in NAMES if "node-1" in ring.owners(name, 2)]
    assert owned, "node-1 owns nothing; placement surprise"
    assert len(out) == 1
    assert out[0].startswith(
        f"node-1 re-synced at epoch {after.epoch}: "
        f"{len(owned)} metrics verified bit-identical ("
    )
    assert out[0].endswith(
        f"{N_METRICS - len(owned)} defined, 0 kept (sole surviving copy)"
    )
    for name in owned:
        donor = next(n for n in ring.owners(name, 2) if n != "node-1")
        assert payload(after, "node-1", name) == payload(after, donor, name)


def test_client_answer_lines(cluster, capsys):
    client = ("client", "--manifest", cluster)
    manifest = ClusterManifest.load(cluster)
    ring = manifest.ring()

    code, out = cluster_cli(
        capsys, *client, "query", "cli/m03", "--phi", "0.5", "--phi", "0.9"
    )
    assert code == 0
    assert out == [
        "phi=0.5: 196",
        "phi=0.9: 356",
        "n=100, certified rank bound: 0 elements",
    ]

    code, out = cluster_cli(capsys, *client, "cdf", "cli/m01", "50")
    assert code == 0
    assert out == [
        "rank(x <= 50) ~ 26 of 100 (0.260000), certified bound 0 elements"
    ]

    code, out = cluster_cli(
        capsys, *client, "merge", "cli/m00", "cli/m01", "--phi", "0.5"
    )
    assert code == 0
    assert out == [
        "phi=0.5: 66",
        "union of 2 metrics: n=200, certified rank bound: 0 elements "
        "(Sec. 4.9 recombination)",
    ]

    code, out = cluster_cli(capsys, *client, "list")
    assert code == 0
    # one line per replica that knows the metric: every node knows every
    # metric, and only the owners hold its values
    expected = []
    for node_id in manifest.node_ids():
        for name in NAMES:
            owners = ring.owners(name, 2)
            n = N_VALUES if node_id in owners else 0
            expected.append(
                f"{name:<32} {'fixed':<9} n={n:<12} node={node_id} "
                f"owners=[{','.join(owners)}]"
            )
    assert out == expected
