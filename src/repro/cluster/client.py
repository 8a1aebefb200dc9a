"""The cluster client: consistent-hash routing, replication, fan-in.

Routing
    A metric's replica set is the first ``replication`` distinct *live*
    nodes clockwise of its hash on the ring (:mod:`repro.cluster.ring`).
    Every node in the set receives the metric's **full stream** -- this
    is replication for availability, not sharding for capacity
    (capacity scales because *different metrics* land on different
    replica sets).

Exactly-once replication
    One logical ingest gets **one** idempotency token, and that same
    token is sent to every replica.  Each node's journal-backed dedup
    window (protocol v2, PR 4) then applies the batch exactly once no
    matter which connection retried after a lost ack, a reconnect, or a
    failover resend.  CREATE broadcasts to *all* live nodes (metadata
    is tiny and creation is idempotent), so that when a node dies and
    the ring promotes a successor into a replica set, the successor
    already knows the metric and ingest continues without a beat.

Failover
    A transport failure (connect refused, reset, deadline) marks the
    node down in this client's live-view and the operation moves to the
    next owner on the walk.  Because removing a node preserves the
    survivors' relative order on the ring (see :mod:`.ring`), the first
    live owner is always the most senior replica -- the one holding the
    metric's full stream -- so queries after a failover still answer
    from complete state with the full certified bound.  Server-side
    errors (unknown metric, bad phi) are *not* failover events; they
    propagate.

Certified fan-in (the paper's §4.9 recombination)
    :meth:`ClusterClient.fetch_merged` pulls one serialised summary per
    metric -- each from its senior live replica -- and merges them with
    :func:`repro.core.serialize.merge_serialized`: paper summaries
    concatenate their root buffers under one OUTPUT, and the bound is
    §4.9's concat bound (Lemma 5 over their forest), not the bound of
    an ``absorb`` fold; KLL summaries add their Hoeffding accounting.
    So ``query_merged`` returns values *with a certified bound* for the
    union stream.  Engine disagreement between nodes surfaces as
    :class:`~repro.cluster.errors.ReplicaEngineMismatchError` naming
    each node and its engine tag (via :func:`merge_tagged`), not as a
    bare :class:`~repro.core.errors.EngineMismatchError`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core import serialize
from ..core.engines import engine_of, loads_any
from ..core.errors import EmptySummaryError
from ..service.client import QuantileClient
from ..service.errors import ServiceConnectionError, ServiceTimeoutError
from .errors import (
    ClusterConfigError,
    NodeUnavailableError,
    ReplicaEngineMismatchError,
)
from .manifest import ClusterManifest
from .ring import HashRing

__all__ = ["ClusterClient", "merge_tagged"]

#: transport failures that trigger mark-down + failover (server-side
#: errors propagate untouched)
_TRANSPORT_ERRORS = (ServiceConnectionError, ServiceTimeoutError)


def merge_tagged(
    tagged: Sequence[Tuple[str, bytes]], *, metric: str = "<fan-in>"
) -> Any:
    """Merge ``(node_id, payload)`` pairs with the §4.9 recombination.

    Same merge as :func:`repro.core.serialize.merge_serialized` -- and
    deterministic in the given order -- but engine agreement is checked
    *first*, against the node ids, so a mixed-engine fan-in fails with
    :class:`ReplicaEngineMismatchError` naming every node and its
    engine tag instead of a bare two-engine mismatch message.
    """
    pairs = list(tagged)
    if not pairs:
        raise EmptySummaryError("cannot merge zero summaries")
    engines = [(node, engine_of(payload)) for node, payload in pairs]
    if len({eng for _, eng in engines}) > 1:
        raise ReplicaEngineMismatchError(metric, engines)
    return serialize.merge_serialized(payload for _, payload in pairs)


class ClusterClient:
    """Route quantile-service calls across a multi-node cluster.

    Parameters
    ----------
    manifest:
        A :class:`~repro.cluster.manifest.ClusterManifest`, or a path
        to a ``cluster.json`` (or the directory holding one).  Nodes
        marked ``down`` in the manifest start out down in this client's
        live-view.
    replication:
        Override the manifest's replication factor (tests; benchmarks
        comparing R=1 vs R=2 on one topology).
    endpoint_overrides:
        ``{node_id: (host, port)}`` -- dial these endpoints instead of
        the manifest's for the given nodes.  The chaos tests use it to
        front a single node with a fault-injection proxy.
    client_kwargs:
        Forwarded to every per-node
        :class:`~repro.service.client.QuantileClient` (timeouts,
        retries, coalescing, ...).

    Connections open lazily, one per node on first use; all the
    per-connection resilience machinery (retry window, pipelining,
    idempotency) applies unchanged underneath the routing layer.
    """

    def __init__(
        self,
        manifest: Union[ClusterManifest, str],
        *,
        replication: Optional[int] = None,
        endpoint_overrides: Optional[Dict[str, Tuple[str, int]]] = None,
        **client_kwargs: Any,
    ) -> None:
        self.manifest_source: Optional[str] = None
        if isinstance(manifest, str):
            self.manifest_source = manifest
            manifest = ClusterManifest.load(manifest)
        self.manifest = manifest
        self._replication_override = replication
        self.replication = (
            manifest.replication if replication is None else replication
        )
        if not 1 <= self.replication <= len(manifest.nodes):
            raise ClusterConfigError(
                f"replication must be in [1, {len(manifest.nodes)}], "
                f"got {self.replication}"
            )
        self.endpoint_overrides = dict(endpoint_overrides or {})
        self.client_kwargs = client_kwargs
        self.ring: HashRing = manifest.ring()
        self._down: Set[str] = {
            spec.id for spec in manifest.nodes if spec.status != "up"
        }
        self._clients: Dict[str, QuantileClient] = {}
        # one token namespace for the whole cluster client: high 32 bits
        # OS-random (never seed-derived), low 32 a counter -- the same
        # scheme QuantileClient uses, but owned here so one logical
        # ingest carries ONE token to every replica
        self._token_high = (
            int.from_bytes(os.urandom(4), "little") or 1
        ) << 32
        self._token_counter = 0

    # -- topology refresh --------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.manifest.epoch

    def reload_manifest(self) -> bool:
        """Re-read ``cluster.json`` and adopt any topology change.

        Returns ``True`` when the view actually changed (epoch bump,
        membership, endpoint or status change).  Connections to nodes
        whose endpoint moved (a restarted node binds a fresh ephemeral
        port) are closed so the next call redials; the down-set is
        rebuilt from the manifest statuses -- ``syncing`` nodes are
        routed around exactly like ``down`` ones until the coordinator
        flips them ``up``.  A no-op when this client was built from an
        in-memory manifest object (no path to re-read).
        """
        if self.manifest_source is None:
            return False
        fresh = ClusterManifest.load(self.manifest_source)
        changed = fresh.to_dict() != self.manifest.to_dict()
        if not changed:
            return False
        old_endpoints = {
            spec.id: (spec.host, spec.port) for spec in self.manifest.nodes
        }
        self.manifest = fresh
        if self._replication_override is None:
            self.replication = fresh.replication
        self.ring = fresh.ring()
        self._down = {
            spec.id for spec in fresh.nodes if spec.status != "up"
        }
        fresh_ids = {spec.id for spec in fresh.nodes}
        for spec in fresh.nodes:
            if spec.id in self.endpoint_overrides:
                continue  # the override, not the manifest, is the truth
            if old_endpoints.get(spec.id) != (spec.host, spec.port):
                stale = self._clients.pop(spec.id, None)
                if stale is not None:
                    try:
                        stale.close()
                    except Exception:  # noqa: BLE001 - being replaced
                        pass
        for node_id in list(self._clients):
            if node_id not in fresh_ids:
                removed = self._clients.pop(node_id)
                try:
                    removed.close()
                except Exception:  # noqa: BLE001 - node left the cluster
                    pass
        return True

    def _with_epoch_retry(self, op: Any) -> Any:
        """Run *op*; on total unavailability, reload the manifest once.

        The retry covers the epoch-bump window: a node this client
        marked down may have been re-synced and flipped ``up`` (possibly
        on a new port), or the membership may have changed entirely.  A
        reload that changes nothing re-raises immediately.
        """
        try:
            return op()
        except NodeUnavailableError:
            if not self.reload_manifest():
                raise
            return op()

    # -- liveness + routing ------------------------------------------------

    def _next_token(self) -> int:
        self._token_counter = (self._token_counter + 1) & 0xFFFFFFFF
        return self._token_high | self._token_counter

    @property
    def live_nodes(self) -> Set[str]:
        return {spec.id for spec in self.manifest.nodes} - self._down

    @property
    def down_nodes(self) -> Set[str]:
        return set(self._down)

    def mark_down(self, node_id: str) -> None:
        """Take *node_id* out of this client's routing (idempotent)."""
        self._down.add(node_id)
        client = self._clients.pop(node_id, None)
        if client is not None:
            try:
                client.close()
            except Exception:  # noqa: BLE001 - already failing
                pass

    def mark_up(self, node_id: str) -> None:
        self._down.discard(node_id)

    def owners_of(self, name: str) -> List[str]:
        """The live replica set of metric *name*, senior first."""
        owners = self.ring.owners(name, self.replication, live=self.live_nodes)
        if not owners:
            raise NodeUnavailableError(
                f"no live node can serve {name!r}: all "
                f"{len(self.manifest.nodes)} node(s) are down"
            )
        return owners

    def node_client(self, node_id: str) -> QuantileClient:
        """The (lazily opened) connection to one node."""
        client = self._clients.get(node_id)
        if client is not None:
            return client
        host, port = self.endpoint_overrides.get(
            node_id,
            (
                self.manifest.node(node_id).host,
                self.manifest.node(node_id).port,
            ),
        )
        client = QuantileClient(host, port, **self.client_kwargs)
        self._clients[node_id] = client
        return client

    # -- replicated mutations ----------------------------------------------

    def create(self, name: str, **kwargs: Any) -> bool:
        """Create *name* on **every** live node; True if any created it.

        Broadcasting (rather than creating on the R owners only) is what
        makes failover seamless: when a death promotes a successor into
        a replica set, the successor already holds the metric's
        definition, so the very next replicated ingest to it succeeds.
        Creation is idempotent server-side (same config re-create is a
        no-op; a *different* config raises), and one token covers every
        replica, so retries after a lost ack stay exactly-once.
        """
        token = self._next_token()
        created = False
        any_ok = False
        for node_id in sorted(self.live_nodes):
            try:
                if self.node_client(node_id).create(
                    name, token=token, **kwargs
                ):
                    created = True
                any_ok = True
            except _TRANSPORT_ERRORS:
                self.mark_down(node_id)
        if not any_ok:
            raise NodeUnavailableError(
                f"create({name!r}) reached no live node"
            )
        return created

    def ingest(
        self, name: str, values: "np.ndarray | Sequence[float]"
    ) -> int:
        """Replicate one batch to the metric's owners; wait for acks.

        Sends the same idempotency token to every replica.  A replica
        that fails mid-call is marked down and the walk re-derived --
        the promoted successor (if any) receives the batch too, so the
        ack count stays at ``min(R, live)``.  Returns the max journal
        seq across replicas.  Raises :class:`NodeUnavailableError` only
        when *no* node could take the batch.
        """
        token = self._next_token()
        arr = np.asarray(values, dtype=np.float64)
        acked: Set[str] = set()
        # the retry shares the token AND the acked set: a replica that
        # acknowledged before the manifest reload is not resent (and the
        # server-side dedup window would absorb it even if it were)
        return self._with_epoch_retry(
            lambda: self._ingest_attempt(name, arr, token, acked)
        )

    def _ingest_attempt(
        self, name: str, arr: np.ndarray, token: int, acked: Set[str]
    ) -> int:
        max_seq = 0
        while True:
            owners = self.owners_of(name)  # raises when none live
            remaining = [n for n in owners if n not in acked]
            if not remaining:
                return max_seq
            # each pass either acks a node or marks one down, so the
            # loop terminates: acked only grows, live_nodes only shrinks
            for node_id in remaining:
                try:
                    seq = self.node_client(node_id).ingest(
                        name, arr, token=token
                    )
                except _TRANSPORT_ERRORS:
                    self.mark_down(node_id)
                    break  # re-derive the walk: a successor may join it
                acked.add(node_id)
                max_seq = max(max_seq, int(seq))
            else:
                return max_seq

    def ingest_nowait(
        self, name: str, values: "np.ndarray | Sequence[float]"
    ) -> None:
        """Pipelined replicated ingest: send to every owner, read no acks.

        One token per logical batch, shared by all replicas, exactly as
        :meth:`ingest`; acks drain on :meth:`flush` (which is also where
        transport failures surface and trigger mark-down + the
        underlying client's resend of its unacked window).
        """
        token = self._next_token()
        for node_id in self.owners_of(name):
            try:
                self.node_client(node_id).ingest_nowait(
                    name, values, token=token
                )
            except _TRANSPORT_ERRORS:
                self.mark_down(node_id)

    def flush(self) -> int:
        """Drain pipelined acks on every open connection; max seq seen."""
        max_seq = 0
        for node_id, client in list(self._clients.items()):
            try:
                max_seq = max(max_seq, client.flush())
            except _TRANSPORT_ERRORS:
                self.mark_down(node_id)
        return max_seq

    def drain(self) -> int:
        """Barrier on every live node; returns the max journal seq."""
        max_seq = 0
        any_ok = False
        for node_id in sorted(self.live_nodes):
            try:
                max_seq = max(max_seq, self.node_client(node_id).drain())
                any_ok = True
            except _TRANSPORT_ERRORS:
                self.mark_down(node_id)
        if not any_ok:
            raise NodeUnavailableError("drain reached no live node")
        return max_seq

    # -- failover reads ----------------------------------------------------

    def _read_failover(self, name: str, op: Any) -> Any:
        """Run *op* against the metric's owners, senior first.

        Exhausting every replica triggers one manifest reload (a
        re-synced node may have rejoined on a new port) before the
        :class:`NodeUnavailableError` stands.
        """
        return self._with_epoch_retry(
            lambda: self._read_failover_once(name, op)
        )

    def _read_failover_once(self, name: str, op: Any) -> Any:
        last_exc: Optional[Exception] = None
        for node_id in self.owners_of(name):
            try:
                return op(self.node_client(node_id))
            except _TRANSPORT_ERRORS as exc:
                self.mark_down(node_id)
                last_exc = exc
        raise NodeUnavailableError(
            f"every replica of {name!r} is unreachable"
        ) from last_exc

    def query(
        self, name: str, phis: Sequence[float]
    ) -> Tuple[List[float], float, int]:
        """``(values, certified bound in elements, n)`` from the senior
        live replica (which holds the metric's full stream)."""
        return self._read_failover(name, lambda c: c.query(name, phis))

    def quantile(self, name: str, phi: float) -> float:
        return self.query(name, [phi])[0][0]

    def quantiles(self, name: str, phis: Sequence[float]) -> List[float]:
        return self.query(name, phis)[0]

    def describe(self, name: str) -> Dict[str, Any]:
        return self._read_failover(name, lambda c: c.describe(name))

    def cdf(self, name: str, value: float) -> Dict[str, Any]:
        return self._read_failover(name, lambda c: c.cdf(name, value))

    def fetch_raw(self, name: str) -> bytes:
        return self._read_failover(name, lambda c: c.fetch_raw(name))

    def fetch(self, name: str) -> Any:
        return loads_any(self.fetch_raw(name))

    def fetch_replicas(self, name: str) -> List[Tuple[str, bytes]]:
        """``(node_id, payload)`` from every reachable replica of *name*.

        Replicas hold copies of the same stream, so the payloads are
        *alternatives*, not shards -- never merge them (that would
        double-count every element).  Use for verification: engine
        agreement, replica divergence checks, picking the senior copy.
        """
        def attempt() -> List[Tuple[str, bytes]]:
            out: List[Tuple[str, bytes]] = []
            for node_id in self.owners_of(name):
                try:
                    out.append(
                        (node_id, self.node_client(node_id).fetch_raw(name))
                    )
                except _TRANSPORT_ERRORS:
                    self.mark_down(node_id)
            if not out:
                raise NodeUnavailableError(
                    f"every replica of {name!r} is unreachable"
                )
            return out

        return self._with_epoch_retry(attempt)

    def check_replicas(self, name: str) -> List[Tuple[str, str]]:
        """Engine tags per reachable replica of *name*.

        Raises :class:`ReplicaEngineMismatchError` -- naming each node
        and its tag -- when they disagree; returns the
        ``(node_id, engine)`` pairs when they agree.
        """
        tagged = [
            (node_id, engine_of(payload))
            for node_id, payload in self.fetch_replicas(name)
        ]
        if len({eng for _, eng in tagged}) > 1:
            raise ReplicaEngineMismatchError(name, tagged)
        return tagged

    # -- certified fan-in (§4.9) -------------------------------------------

    def fetch_merged(self, names: Sequence[str]) -> Any:
        """One summary for the union of *names*' streams.

        Pulls exactly one payload per metric (from its senior live
        replica -- replicas are copies, so including a second one would
        double-count) and merges them in the order given, by the
        paper's §4.9 recombination: one OUTPUT over the concatenated
        root buffers, whose ``error_bound()`` is the concat bound for
        the combined stream.  Mixed engines raise
        :class:`ReplicaEngineMismatchError` naming the node each
        payload came from.
        """
        tagged: List[Tuple[str, bytes]] = []
        for name in names:
            node_id, payload = self._senior_payload(name)
            tagged.append((node_id, payload))
        return merge_tagged(
            tagged, metric=",".join(names) if names else "<fan-in>"
        )

    def _senior_payload(self, name: str) -> Tuple[str, bytes]:
        return self._with_epoch_retry(
            lambda: self._senior_payload_once(name)
        )

    def _senior_payload_once(self, name: str) -> Tuple[str, bytes]:
        last_exc: Optional[Exception] = None
        for node_id in self.owners_of(name):
            try:
                return node_id, self.node_client(node_id).fetch_raw(name)
            except _TRANSPORT_ERRORS as exc:
                self.mark_down(node_id)
                last_exc = exc
        raise NodeUnavailableError(
            f"every replica of {name!r} is unreachable"
        ) from last_exc

    def query_merged(
        self, names: Sequence[str], phis: Sequence[float]
    ) -> Tuple[List[float], float, int]:
        """``(values, certified bound, n)`` over the union of *names*."""
        merged = self.fetch_merged(names)
        values = [float(v) for v in merged.quantiles(list(phis))]
        return values, float(merged.error_bound()), int(merged.n)

    # -- cluster-wide reads ------------------------------------------------

    def list_metrics(self) -> List[Dict[str, Any]]:
        """Every metric on every live node, tagged with node + owners.

        A metric appears once per replica holding it; ``owners`` is its
        current live replica set for cross-checking placement.
        """
        out: List[Dict[str, Any]] = []
        for node_id in sorted(self.live_nodes):
            try:
                entries = self.node_client(node_id).list_metrics()
            except _TRANSPORT_ERRORS:
                self.mark_down(node_id)
                continue
            for entry in entries:
                entry = dict(entry)
                entry["node"] = node_id
                entry["owners"] = self.ring.owners(
                    entry["name"], self.replication, live=self.live_nodes
                )
                out.append(entry)
        return out

    def stats(self, detail: int = 0) -> List[Dict[str, Any]]:
        """Per-node STATS dicts from every live node."""
        out = []
        for node_id in sorted(self.live_nodes):
            try:
                stats = self.node_client(node_id).stats(detail)
            except _TRANSPORT_ERRORS:
                self.mark_down(node_id)
                continue
            stats.setdefault("node_id", node_id)
            out.append(stats)
        return out

    def status(self) -> List[Dict[str, Any]]:
        """One row per manifest node: liveness probe + PING metadata.

        Every node is probed, *including* ones marked ``down`` or
        ``syncing`` -- a ``syncing`` node is alive and mid-recovery,
        which an operator must be able to tell apart from a dead one
        (routing still skips both; only this diagnostic dials them).
        """
        rows: List[Dict[str, Any]] = []
        for spec in self.manifest.nodes:
            row: Dict[str, Any] = {
                "id": spec.id,
                "host": spec.host,
                "port": spec.port,
                "manifest_status": spec.status,
            }
            try:
                pong = self.node_client(spec.id).ping()
            except _TRANSPORT_ERRORS:
                self.mark_down(spec.id)
                row.update({"alive": False})
            else:
                row.update(
                    {
                        "alive": True,
                        "epoch": pong["epoch"],
                        "uptime_s": round(pong["uptime_s"], 3),
                        "n_metrics": pong["n_metrics"],
                        "elements": pong["elements"],
                    }
                )
                if pong["node_id"] and pong["node_id"] != spec.id:
                    row["identity_mismatch"] = pong["node_id"]
            rows.append(row)
        return rows

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        for client in self._clients.values():
            try:
                client.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        self._clients = {}

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
