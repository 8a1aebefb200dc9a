"""repro.cluster -- the multi-node quantile cluster.

A new layer over :mod:`repro.service`: N independent server processes
(each a full durable :class:`~repro.service.server.QuantileService`),
consistent-hash routing with virtual nodes, R-way replicated ingest
carried by the protocol-v2 idempotency tokens (exactly-once under
failover), and cluster-wide queries answered by the paper's §4.9
recombination so the merged result keeps a certified error bound.

    from repro.cluster import ClusterCoordinator

    with ClusterCoordinator(nodes=3, replication=2,
                            data_dir="./cluster") as coord:
        with coord.client() as client:
            client.create("api/latency_ms", eps=0.005)
            client.ingest("api/latency_ms", batch)      # to 2 replicas
            values, bound, n = client.query("api/latency_ms", [0.5, 0.99])

See docs/cluster.md for topology, the manifest format, failover
semantics and the certified-bound argument for fan-in.
"""

from .client import ClusterClient, merge_tagged
from .coordinator import ClusterCoordinator, publish_ring_gauges
from .errors import (
    ClusterConfigError,
    ClusterError,
    ClusterSyncError,
    NodeUnavailableError,
    ReplicaEngineMismatchError,
)
from .manifest import ClusterManifest, NodeSpec, manifest_path
from .ring import DEFAULT_VNODES, HashRing, OwnershipDelta, ownership_delta
from .sync import MetricSyncReport, NodeSyncReport, SyncDriver, delta_donor

__all__ = [
    "ClusterClient",
    "ClusterCoordinator",
    "publish_ring_gauges",
    "ClusterManifest",
    "NodeSpec",
    "HashRing",
    "OwnershipDelta",
    "ownership_delta",
    "DEFAULT_VNODES",
    "SyncDriver",
    "MetricSyncReport",
    "NodeSyncReport",
    "delta_donor",
    "merge_tagged",
    "manifest_path",
    "ClusterError",
    "ClusterConfigError",
    "ClusterSyncError",
    "NodeUnavailableError",
    "ReplicaEngineMismatchError",
]
