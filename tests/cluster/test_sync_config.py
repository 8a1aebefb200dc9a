"""Re-sync copies a metric's whole configuration, window and decay included.

A node that joins, or restarts and re-syncs, learns the definitions of
the metrics it does not own from a donor's SYNCPULL view, and installs
the state of the ones it owns.  The view carries the full config block,
so a windowed or decayed metric arrives on the target exactly as it is
on the donor, and the cluster's later idempotent CREATE broadcast with
the real configuration is accepted there.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterManifest
from repro.cluster.manifest import NodeSpec
from repro.cluster.sync import SyncDriver
from repro.service import QuantileClient, ServerThread

#: metric -> the client's create() keywords
CONFIGS = {
    "w/sliding": dict(eps=0.02, window=60, slide=30),
    "w/tumbling": dict(eps=0.02, engine="kll", window=60),
    "d/decayed": dict(eps=0.02, engine="kll", decay=120),
    "p/plain": dict(eps=0.02, n=10_000),
}

LISTED = ("kind", "engine", "window_s", "slide_s", "decay_s")


@pytest.fixture
def pair(tmp_path):
    """(donor, target, manifest): the donor holds every metric of
    CONFIGS with some data, the target holds nothing."""
    with ServerThread(
        data_dir=str(tmp_path / "donor"), n_shards=2
    ) as donor, ServerThread(
        data_dir=str(tmp_path / "target"), n_shards=2
    ) as target:
        manifest = ClusterManifest(
            nodes=[
                NodeSpec("donor", "127.0.0.1", donor.port),
                NodeSpec("target", "127.0.0.1", target.port),
            ]
        )
        with QuantileClient("127.0.0.1", donor.port) as client:
            for name, kwargs in CONFIGS.items():
                client.create(name, **kwargs)
                client.ingest(name, np.arange(500.0))
        yield donor, target, manifest


def listed(server):
    with QuantileClient("127.0.0.1", server.port) as client:
        return {
            m["name"]: {key: m[key] for key in LISTED}
            for m in client.list_metrics()
        }


def test_define_metric_copies_window_and_decay(pair):
    donor, target, manifest = pair
    with SyncDriver(manifest) as driver:
        for name in CONFIGS:
            driver.define_metric(name, "donor", "target")
    assert listed(target) == listed(donor)
    got = listed(target)
    assert (got["w/sliding"]["window_s"], got["w/sliding"]["slide_s"]) == (
        60.0, 30.0,
    )
    assert got["d/decayed"]["decay_s"] == 120.0
    # the cluster's CREATE broadcast with the real config is accepted
    with QuantileClient("127.0.0.1", target.port) as client:
        for name, kwargs in CONFIGS.items():
            assert client.create(name, **kwargs) is False


def test_sync_metric_installs_windowed_and_decayed_state(pair):
    donor, target, manifest = pair
    with SyncDriver(manifest) as driver:
        reports = [
            driver.sync_metric(name, "donor", "target") for name in CONFIGS
        ]
    assert all(report.verified for report in reports)
    assert listed(target) == listed(donor)
    with QuantileClient("127.0.0.1", target.port) as client:
        for name in CONFIGS:
            assert client.query(name, [0.5])[2] == 500
