"""cluster.json manifest: round-trip, validation, atomicity."""

from __future__ import annotations

import json
import os

import pytest

from repro.cluster import ClusterManifest, NodeSpec, manifest_path
from repro.cluster.errors import ClusterConfigError


def three_nodes() -> ClusterManifest:
    return ClusterManifest(
        nodes=[
            NodeSpec(id=f"node-{i}", host="127.0.0.1", port=7400 + i)
            for i in range(3)
        ],
        replication=2,
        vnodes=32,
        epoch=5,
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        m = three_nodes()
        again = ClusterManifest.from_dict(m.to_dict())
        assert again.to_dict() == m.to_dict()

    def test_file_round_trip_and_dir_load(self, tmp_path):
        m = three_nodes()
        path = manifest_path(str(tmp_path))
        m.save(path)
        by_file = ClusterManifest.load(path)
        by_dir = ClusterManifest.load(str(tmp_path))
        assert by_file.to_dict() == m.to_dict() == by_dir.to_dict()

    def test_save_is_atomic(self, tmp_path):
        path = manifest_path(str(tmp_path))
        m = three_nodes()
        m.save(path)
        m.epoch += 1
        m.save(path)
        assert not os.path.exists(path + ".tmp")
        assert ClusterManifest.load(path).epoch == 6

    def test_status_round_trips(self, tmp_path):
        m = three_nodes()
        assert m.mark("node-1", "down")
        assert not m.mark("node-1", "down")  # no change reported
        path = manifest_path(str(tmp_path))
        m.save(path)
        again = ClusterManifest.load(path)
        assert again.node("node-1").status == "down"
        assert again.live_ids() == ["node-0", "node-2"]

    def test_ring_covers_down_nodes(self):
        """Placement must not shift when a node is merely down."""
        m = three_nodes()
        before = m.ring().owners("api/x", 3)
        m.mark("node-0", "down")
        assert m.ring().owners("api/x", 3) == before


class TestValidation:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ClusterConfigError, match="at least one"):
            ClusterManifest(nodes=[])
        with pytest.raises(ClusterConfigError, match="duplicate"):
            ClusterManifest(
                nodes=[
                    NodeSpec(id="a", host="h", port=1),
                    NodeSpec(id="a", host="h", port=2),
                ]
            )

    def test_rejects_bad_replication(self):
        nodes = [NodeSpec(id="a", host="h", port=1)]
        with pytest.raises(ClusterConfigError, match="replication"):
            ClusterManifest(nodes=nodes, replication=0)
        with pytest.raises(ClusterConfigError, match="exceeds"):
            ClusterManifest(nodes=nodes, replication=2)

    def test_rejects_bad_status_and_unknown_node(self):
        m = three_nodes()
        with pytest.raises(ClusterConfigError, match="status"):
            m.mark("node-0", "degraded")
        with pytest.raises(ClusterConfigError, match="unknown node"):
            m.node("node-9")

    def test_rejects_wrong_version(self):
        raw = three_nodes().to_dict()
        raw["version"] = 99
        with pytest.raises(ClusterConfigError, match="version"):
            ClusterManifest.from_dict(raw)

    def test_detects_cluster_service_shape(self, tmp_path):
        """The old ``{"workers": N}`` worker-count pin is not a manifest:
        it fails with the typed version error, not a KeyError."""
        path = manifest_path(str(tmp_path))
        with open(path, "w") as fh:
            json.dump({"workers": 4}, fh)
        with pytest.raises(ClusterConfigError, match="version"):
            ClusterManifest.load(path)

    def test_malformed_files(self, tmp_path):
        with pytest.raises(ClusterConfigError, match="no cluster manifest"):
            ClusterManifest.load(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ClusterConfigError, match="not valid JSON"):
            ClusterManifest.load(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ClusterConfigError, match="JSON object"):
            ClusterManifest.load(str(arr))

    def test_rejects_ports_outside_the_tcp_range(self):
        """A port past 65535 would be dialled modulo 65536 (70000 as
        4464), so a manifest naming one is refused on load and on
        validate."""
        raw = three_nodes().to_dict()
        raw["nodes"][1]["port"] = 70000
        with pytest.raises(ClusterConfigError, match="0-65535"):
            NodeSpec.from_dict(raw["nodes"][1])
        with pytest.raises(ClusterConfigError, match="0-65535"):
            ClusterManifest.from_dict(raw)
        m = three_nodes()
        m.nodes[2].port = -1
        with pytest.raises(ClusterConfigError, match="0-65535"):
            m.validate()

    def test_malformed_node_entry(self):
        raw = three_nodes().to_dict()
        raw["nodes"][0] = {"id": "x"}
        with pytest.raises(ClusterConfigError, match="malformed node"):
            ClusterManifest.from_dict(raw)
