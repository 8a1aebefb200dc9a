"""The ``cluster.json`` manifest: ring layout, replication, epochs.

One JSON document describes everything a client needs to route::

    {
      "version": 1,
      "replication": 2,
      "vnodes": 64,
      "epoch": 3,
      "nodes": [
        {"id": "node-0", "host": "127.0.0.1", "port": 7401, "status": "up"},
        {"id": "node-1", "host": "127.0.0.1", "port": 7402, "status": "down"},
        ...
      ]
    }

Placement is *derived*, never stored: the hash ring is rebuilt from the
node ids + ``vnodes``, so any process holding the manifest computes the
same owners (see :mod:`repro.cluster.ring` on process-stable hashing).
The ring always contains **every** node, up or down -- a dead node keeps
its points so that placement of the survivors does not shift, and
liveness is applied as a filter at lookup time.  ``epoch`` increments on
every membership/status change and on coordinator restart; clients and
PING responses carry it so stale topology is detectable.

The file is written atomically (tmp + ``os.replace``), same discipline
as the service snapshots.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .errors import ClusterConfigError
from .ring import DEFAULT_VNODES, HashRing

__all__ = [
    "NodeSpec",
    "ClusterManifest",
    "MANIFEST_VERSION",
    "MANIFEST_FILE",
    "make_node_id",
    "node_index",
]

MANIFEST_VERSION = 1
MANIFEST_FILE = "cluster.json"

#: node lifecycle: ``up`` serves reads and writes; ``down`` is dead and
#: routed around; ``syncing`` is alive but catching up from a donor --
#: it receives broadcast writes (so it does not fall further behind) but
#: is excluded from the read/query live set until its state verifies
#: bit-identical and the coordinator flips it to ``up``
_STATUSES = ("up", "down", "syncing")


def make_node_id(index: int) -> str:
    """The id of the *index*-th node: ``node-<index>``."""
    return f"node-{index}"


def node_index(nid: str) -> Optional[int]:
    """The ``<i>`` of a ``<name>-<i>`` node id; None for other ids."""
    tail = nid.rsplit("-", 1)[-1]
    return int(tail) if tail.isdecimal() else None


def _check_port(spec: "NodeSpec") -> None:
    if not 0 <= spec.port <= 65535:
        raise ClusterConfigError(
            f"node {spec.id!r} has port {spec.port}, outside 0-65535"
        )


@dataclass
class NodeSpec:
    """One node's identity and endpoint."""

    id: str
    host: str
    port: int
    status: str = "up"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "host": self.host,
            "port": self.port,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "NodeSpec":
        try:
            spec = cls(
                id=str(raw["id"]),
                host=str(raw["host"]),
                port=int(raw["port"]),
                status=str(raw.get("status", "up")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterConfigError(f"malformed node entry {raw!r}") from exc
        if not spec.id:
            raise ClusterConfigError("node id must be non-empty")
        _check_port(spec)
        if spec.status not in _STATUSES:
            raise ClusterConfigError(
                f"node {spec.id!r} has unknown status {spec.status!r} "
                f"(expected one of {_STATUSES})"
            )
        return spec


@dataclass
class ClusterManifest:
    """Topology + replication + epoch for one cluster."""

    nodes: List[NodeSpec] = field(default_factory=list)
    replication: int = 1
    vnodes: int = DEFAULT_VNODES
    epoch: int = 0

    def __post_init__(self) -> None:
        self.validate()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        if not self.nodes:
            raise ClusterConfigError("a cluster needs at least one node")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ClusterConfigError(f"duplicate node ids: {dupes}")
        if self.replication < 1:
            raise ClusterConfigError(
                f"replication must be >= 1, got {self.replication}"
            )
        if self.replication > len(self.nodes):
            raise ClusterConfigError(
                f"replication {self.replication} exceeds the node count "
                f"{len(self.nodes)}"
            )
        if self.vnodes < 1:
            raise ClusterConfigError(
                f"vnodes must be >= 1, got {self.vnodes}"
            )
        if self.epoch < 0:
            raise ClusterConfigError(f"epoch must be >= 0, got {self.epoch}")
        for spec in self.nodes:
            _check_port(spec)

    # -- accessors ---------------------------------------------------------

    def node(self, node_id: str) -> NodeSpec:
        for spec in self.nodes:
            if spec.id == node_id:
                return spec
        raise ClusterConfigError(f"unknown node id {node_id!r}")

    def node_ids(self) -> List[str]:
        return [n.id for n in self.nodes]

    def live_ids(self) -> List[str]:
        return [n.id for n in self.nodes if n.status == "up"]

    def syncing_ids(self) -> List[str]:
        return [n.id for n in self.nodes if n.status == "syncing"]

    def next_node_id(self) -> str:
        """The next free ``node-<i>`` id: one past the highest index
        among the ids (``node-<len(nodes)>`` when no id has one)."""
        indices = [node_index(spec.id) for spec in self.nodes]
        known = [i for i in indices if i is not None]
        return make_node_id(max(known) + 1 if known else len(self.nodes))

    def ring(self) -> HashRing:
        """The placement ring over *all* nodes (liveness filters later)."""
        return HashRing(self.node_ids(), vnodes=self.vnodes)

    def mark(self, node_id: str, status: str) -> bool:
        """Set *node_id*'s status; True if it changed (epoch untouched --
        the coordinator bumps it once per membership event)."""
        if status not in _STATUSES:
            raise ClusterConfigError(f"unknown status {status!r}")
        spec = self.node(node_id)
        if spec.status == status:
            return False
        spec.status = status
        return True

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": MANIFEST_VERSION,
            "replication": self.replication,
            "vnodes": self.vnodes,
            "epoch": self.epoch,
            "nodes": [n.to_dict() for n in self.nodes],
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ClusterManifest":
        version = raw.get("version")
        if version != MANIFEST_VERSION:
            raise ClusterConfigError(
                f"unsupported manifest version {version!r} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        try:
            nodes_raw = list(raw["nodes"])
            replication = int(raw["replication"])
            vnodes = int(raw.get("vnodes", DEFAULT_VNODES))
            epoch = int(raw.get("epoch", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterConfigError(f"malformed manifest: {exc}") from exc
        return cls(
            nodes=[NodeSpec.from_dict(n) for n in nodes_raw],
            replication=replication,
            vnodes=vnodes,
            epoch=epoch,
        )

    def save(self, path: str) -> None:
        """Atomic write: tmp file + ``os.replace``."""
        self.validate()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "ClusterManifest":
        if os.path.isdir(path):
            path = os.path.join(path, MANIFEST_FILE)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ClusterConfigError(
                f"no cluster manifest at {path!r}"
            ) from None
        except json.JSONDecodeError as exc:
            raise ClusterConfigError(
                f"cluster manifest {path!r} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(raw, dict):
            raise ClusterConfigError(
                f"cluster manifest {path!r} must be a JSON object"
            )
        return cls.from_dict(raw)


def manifest_path(data_dir: str) -> str:
    return os.path.join(data_dir, MANIFEST_FILE)
