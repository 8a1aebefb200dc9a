"""The node re-sync data plane: pull, catch up, verify bit-identical.

A node that restarts (or joins) is *behind*: its journal stopped at the
moment it died, while the surviving replicas kept acknowledging batches.
Serving from it would silently under-count.  The re-sync protocol fixes
that by replaying the donor's exact state:

1. **Install** -- one ``SYNCPULL`` on the senior surviving replica
   returns an atomic view: the metric's config, its full serialized
   summary (KB-scale by the paper's construction -- a ``b·k`` collapse
   forest, not the stream), and the donor's journal sequence the payload
   reflects.  The target installs the payload wholesale via ``RESTORE``
   (journaled, idempotent under its token).
2. **Catch up** -- each further round pulls the donor's INGEST tail
   after the last applied sequence and replays it on the target *with
   the donor's idempotency tokens*.  Replication gives every batch one
   token cluster-wide, so a record the target also received directly --
   or receives again on a retried round -- is applied exactly once.
3. **Verify** -- every round's response also carries the donor's
   current payload.  The target applied the same records in the same
   order, so (serialization being canonical: ``dumps(loads(x)) == x``)
   its summary must equal the donor's **bit for bit**.  A round with no
   new records and equal bytes is convergence; inequality forces a
   fresh full install (counted, bounded), and exhausting the round
   budget raises :class:`~repro.cluster.errors.ClusterSyncError`.

The driver speaks to nodes over ordinary
:class:`~repro.service.client.QuantileClient` connections and never
touches processes.  It also runs the three membership protocols --
:meth:`SyncDriver.rejoin`, :meth:`SyncDriver.join` and
:meth:`SyncDriver.leave` -- for both the coordinator and the ``repro
cluster resync|add-node|remove-node`` verbs.  Each protocol changes the
manifest only through a *commit* callback the caller supplies: the
coordinator applies the edit under its lock and saves ``cluster.json``,
the shell verbs save the file they loaded.

Corruption guard: a donor whose advertised engine disagrees with its
payload magic -- or with what the target already holds under that name
-- raises :class:`~repro.cluster.errors.ReplicaEngineMismatchError`
naming both sides.  Transfers preserve the engine byte; they never
silently merge across engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.engines import engine_of
from ..core.errors import ConfigurationError
from ..obs import hooks as obs_hooks
from ..service.client import QuantileClient
from ..service.errors import ServiceConnectionError, ServiceTimeoutError
from ..service.protocol import MetricConfig
from .errors import (
    ClusterConfigError,
    ClusterSyncError,
    ReplicaEngineMismatchError,
)
from .manifest import ClusterManifest, NodeSpec
from .ring import HashRing, OwnershipDelta, ownership_delta

__all__ = [
    "SyncDriver",
    "MetricSyncReport",
    "NodeSyncReport",
    "delta_donor",
]

#: full-install retries allowed when verification finds divergence
#: before the driver gives up on a metric
_MAX_REBASES = 3

#: one manifest edit; returns whether it changed the manifest
Edit = Callable[[ClusterManifest], bool]

#: applies an :data:`Edit` to the driver's manifest and, when it changed
#: something, bumps the epoch and persists the manifest
Commit = Callable[[Edit], None]


@dataclass
class MetricSyncReport:
    """What one metric's sync did."""

    name: str
    donor: str
    target: str
    engine: str = ""
    rounds: int = 0
    installs: int = 0  #: full-payload RESTOREs (1 + forced rebases)
    records: int = 0  #: journal-tail records replayed
    bytes: int = 0  #: payload + record bytes moved
    verified: bool = False  #: target ended bit-identical to the donor


@dataclass
class NodeSyncReport:
    """What a whole-node re-sync (or migration batch) did."""

    target: str
    synced: List[MetricSyncReport] = field(default_factory=list)
    defined: List[str] = field(default_factory=list)  #: config-only metrics
    kept: List[str] = field(default_factory=list)  #: sole-copy, local wins

    @property
    def bytes(self) -> int:
        return sum(m.bytes for m in self.synced)

    @property
    def rounds(self) -> int:
        return sum(m.rounds for m in self.synced)


def _payload_engine(config: MetricConfig) -> str:
    """What :func:`engine_of` reads off the payload of a *config*
    metric: the ring format of a windowed or decayed one, else its
    engine."""
    if config.window_s:
        return "windowed"
    if config.decay_s:
        return "expdecay"
    return config.engine


def delta_donor(
    key: str,
    gainer: str,
    ring_before: HashRing,
    replication: int,
    live: Set[str],
) -> str:
    """The senior live pre-change owner of *key* (never the gainer).

    Used during rebalance migrations: the donor must hold the key's
    full stream under the *old* placement.  The candidates come from
    the **unfiltered** pre-change owner set -- a live-filtered ring
    walk would promote bystanders that never held the key once real
    owners are down -- and the first live non-gainer among them is the
    most senior replica still holding the full stream.
    """
    for node_id in ring_before.owners(key, replication):
        if node_id != gainer and node_id in live:
            return node_id
    raise ClusterSyncError(
        f"no live donor holds {key!r}: every pre-change owner is down"
    )


class SyncDriver:
    """Stream metrics from donors to a target until bit-identical.

    Parameters
    ----------
    manifest:
        Topology to dial endpoints from.  The driver talks to nodes in
        *any* state -- routing policy is the caller's concern.
    endpoint_overrides:
        ``{node_id: (host, port)}`` -- dial these instead of the
        manifest's entries (chaos proxies; freshly restarted nodes whose
        manifest entry is stale).
    max_rounds:
        Per-metric round budget before the sync is declared stuck.
        Under continuous ingest each round drains the tail that arrived
        during the previous one, so convergence needs the tail to stop
        growing faster than it is pulled -- the budget turns a
        pathological writer into a typed error instead of a spin.
    client_kwargs:
        Forwarded to every per-node :class:`QuantileClient`.
    """

    def __init__(
        self,
        manifest: ClusterManifest,
        *,
        endpoint_overrides: Optional[Dict[str, Tuple[str, int]]] = None,
        max_rounds: int = 64,
        **client_kwargs: Any,
    ) -> None:
        self.manifest = manifest
        self.endpoint_overrides = dict(endpoint_overrides or {})
        self.max_rounds = max_rounds
        self.client_kwargs = client_kwargs
        self._clients: Dict[str, QuantileClient] = {}

    # -- connections -------------------------------------------------------

    def client(self, node_id: str) -> QuantileClient:
        cached = self._clients.get(node_id)
        if cached is not None:
            return cached
        endpoint = self.endpoint_overrides.get(node_id)
        if endpoint is None:
            spec = self.manifest.node(node_id)
            endpoint = (spec.host, spec.port)
        client = QuantileClient(*endpoint, **self.client_kwargs)
        self._clients[node_id] = client
        return client

    def _answers_ping(self, node_id: str) -> bool:
        """Whether *node_id* answers PING.  A node that does keeps its
        connection cached, so it can still be dialled after its
        manifest entry is gone."""
        try:
            self.client(node_id).ping()
        except (ServiceConnectionError, ServiceTimeoutError):
            stale = self._clients.pop(node_id, None)
            if stale is not None:
                stale.close()
            return False
        return True

    def close(self) -> None:
        for client in self._clients.values():
            try:
                client.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        self._clients = {}

    def __enter__(self) -> "SyncDriver":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- per-metric protocol -----------------------------------------------

    def _check_engines(
        self, name: str, donor_id: str, target_id: str, view: Dict[str, Any]
    ) -> None:
        """Refuse corrupt or cross-engine transfers before installing."""
        declared = _payload_engine(view["config"])
        actual = engine_of(view["payload"])
        if actual != declared:
            # the donor itself is corrupt: its config and its bytes
            # disagree -- installing either would guess
            raise ReplicaEngineMismatchError(
                name,
                [(f"{donor_id}(config)", declared), (donor_id, actual)],
            )
        target_engine = self._target_engine(name, target_id)
        if target_engine is not None and target_engine != declared:
            raise ReplicaEngineMismatchError(
                name, [(donor_id, declared), (target_id, target_engine)]
            )

    def _target_engine(self, name: str, target_id: str) -> Optional[str]:
        """The payload engine the target already holds *name* under, if
        any."""
        try:
            view = self.client(target_id).sync_pull(name)
            return _payload_engine(view["config"])
        except ConfigurationError:
            return None  # unknown metric there (or no exchange format)

    def sync_metric(
        self,
        name: str,
        donor_id: str,
        target_id: str,
        *,
        require_identity: bool = True,
    ) -> MetricSyncReport:
        """Bring *name* on the target up to the donor's exact state.

        Loops install/catch-up rounds until a round delivers no new
        records and (when ``require_identity``) the target's serialized
        state equals the donor's payload from that same round, byte for
        byte.  ``require_identity=False`` is the *closing* mode used
        after a node has already flipped live: direct writes interleave
        with the tail there, so the loop only guarantees the tail is
        delivered (token dedup keeps it exactly-once), not bitwise
        equality.
        """
        donor = self.client(donor_id)
        target = self.client(target_id)
        report = MetricSyncReport(name=name, donor=donor_id, target=target_id)
        after_seq = 0
        installs = 0
        for _ in range(self.max_rounds):
            report.rounds += 1
            view = donor.sync_pull(name, after_seq)
            if report.engine == "":
                self._check_engines(name, donor_id, target_id, view)
                report.engine = view["config"].engine
            fresh = after_seq == 0
            if fresh or view["rebase"]:
                if installs >= 1 + _MAX_REBASES:
                    raise ClusterSyncError(
                        f"sync of {name!r} from {donor_id} to {target_id} "
                        f"keeps diverging after {installs} full installs"
                    )
                installs += 1
                report.installs += 1
                report.bytes += len(view["payload"])
                target.restore_config(name, view["config"], view["payload"])
                after_seq = view["seq"]
                if after_seq:
                    continue  # catch up on the tail journaled since
                # a donor without a journal answers seq 0: no tail can
                # follow, so the install is the whole transfer -- check
                # it once below instead of re-installing
            for _seq, token, values in view["records"]:
                target.ingest(name, values, token=token)
                report.records += 1
                report.bytes += values.nbytes
            after_seq = view["seq"]
            if view["records"]:
                continue  # drained a tail; go see if more arrived
            if not require_identity:
                report.verified = False
                return report
            target.drain()
            if target.fetch_raw(name) == view["payload"]:
                report.verified = True
                return report
            # same records, different bytes: the target held stale local
            # state underneath (or a writer reached it directly) -- start
            # over from a fresh full install
            after_seq = 0
        raise ClusterSyncError(
            f"sync of {name!r} from {donor_id} to {target_id} did not "
            f"converge within {self.max_rounds} rounds (ingest may be "
            f"outpacing the transfer)"
        )

    def define_metric(
        self, name: str, donor_id: str, target_id: str
    ) -> None:
        """Replicate just the *definition* of *name* onto the target.

        Non-owned metrics carry no data on this node, but the CREATE
        broadcast invariant -- every live node knows every metric, so a
        failover promotion never meets an unknown name -- must survive
        restarts and joins.
        """
        config = self.client(donor_id).sync_pull(name)["config"]
        self.client(target_id).create_config(name, config)

    # -- whole-node sync ---------------------------------------------------

    def metric_names(self, node_ids: Sequence[str]) -> List[str]:
        """Union of metric names across *node_ids* (best-effort)."""
        names: Set[str] = set()
        for node_id in node_ids:
            for entry in self.client(node_id).list_metrics():
                names.add(entry["name"])
        return sorted(names)

    def donor_for(
        self,
        name: str,
        target_id: str,
        ring: HashRing,
        replication: int,
        live: Set[str],
    ) -> Optional[str]:
        """The senior surviving *placement* co-owner of *name*.

        The live-filtered walk preserves survivor order, so the first
        live node that is also in the unfiltered owner set is the
        replica that has held the metric's full stream the longest --
        the only correct donor.  A node the walk *promoted* after a
        death holds only the post-death slice and is never returned:
        installing its state would silently under-count.
        """
        placed = set(ring.owners(name, replication))
        for node_id in ring.owners(name, replication, live=live - {target_id}):
            if node_id != target_id and node_id in placed:
                return node_id
        return None

    def resync_node(
        self,
        target_id: str,
        *,
        ring: HashRing,
        replication: int,
        live: Set[str],
        metrics: Optional[Sequence[str]] = None,
        require_identity: bool = True,
    ) -> NodeSyncReport:
        """Bring every metric the target owns up to donor state.

        Owned metrics stream through :meth:`sync_metric` from their
        senior live replica; non-owned ones get their definition only.
        ``live`` is the donor pool -- the healthy nodes.  Publishes
        ``cluster.sync_metrics_total`` / ``cluster.sync_metrics_done``
        gauges as it goes, so ``repro cluster status --prom`` shows
        progress mid-sync.
        """
        if metrics is None:
            donors = sorted(live - {target_id})
            if not donors:
                raise ClusterSyncError(
                    f"cannot re-sync {target_id}: no live donor exists"
                )
            metrics = self.metric_names(donors)
        report = NodeSyncReport(target=target_id)
        reg = obs_hooks.registry()
        reg.gauge("cluster.sync_metrics_total").set(len(metrics))
        reg.gauge("cluster.sync_metrics_done").set(0)
        defn_donors = sorted(live - {target_id})
        for done, name in enumerate(metrics):
            owners = set(ring.owners(name, replication))
            donor = self.donor_for(name, target_id, ring, replication, live)
            if target_id in owners:
                if donor is not None:
                    report.synced.append(
                        self.sync_metric(
                            name,
                            donor,
                            target_id,
                            require_identity=require_identity,
                        )
                    )
                elif owners & live:
                    # a co-owner exists but the walk only reaches
                    # promoted partial replicas -- unreachable given the
                    # walk preserves survivor order, kept as a guard
                    raise ClusterSyncError(
                        f"cannot re-sync {name!r} onto {target_id}: no "
                        f"senior replica is reachable"
                    )
                else:
                    # every co-owner is dead too: the target's own
                    # journal is the sole surviving copy -- local
                    # recovery already replayed it; keep it
                    report.kept.append(name)
            elif defn_donors:
                self.define_metric(name, defn_donors[0], target_id)
                report.defined.append(name)
            reg.gauge("cluster.sync_metrics_done").set(done + 1)
        return report

    # -- membership protocols ----------------------------------------------

    def rejoin(
        self, node_id: str, commit: Commit, *, closing_pass: bool
    ) -> NodeSyncReport:
        """Re-sync a running node from its peers, then flip it ``up``.

        Marks the node ``syncing``, streams every metric it owns from
        its senior live replica until each verifies bit-identical (see
        :meth:`resync_node`), and marks it ``up``.  With
        ``closing_pass`` one more non-verifying pass runs *after* the
        flip to absorb batches that clients routed to the donors alone
        while their manifest view was stale -- the tail records carry
        the donors' idempotency tokens, so the pass is exactly-once no
        matter how it interleaves with direct writes.  A node that does
        not answer PING is refused before any manifest edit; a sync that
        fails before the flip puts the node's prior status back in one
        more commit, then re-raises.
        """
        if not self._answers_ping(node_id):
            raise ClusterSyncError(
                f"cannot re-sync {node_id}: the node is not running "
                f"(it does not answer PING)"
            )
        prior = self.manifest.node(node_id).status
        commit(lambda m: m.mark(node_id, "syncing"))
        ring = self.manifest.ring()
        live = set(self.manifest.live_ids())
        replication = self.manifest.replication
        try:
            report = self.resync_node(
                node_id, ring=ring, replication=replication, live=live
            )
        except BaseException:
            commit(lambda m: m.mark(node_id, prior))
            raise
        commit(lambda m: m.mark(node_id, "up"))
        if closing_pass and report.synced:
            self.resync_node(
                node_id,
                ring=ring,
                replication=replication,
                live=live,
                metrics=[m.name for m in report.synced],
                require_identity=False,
            )
        return report

    def join(
        self, spec: NodeSpec, commit: Commit
    ) -> Tuple[OwnershipDelta, List[str]]:
        """Add the running node *spec* and migrate only the moved keys.

        The node joins the manifest as ``syncing`` (its ring points
        shift placement at once, but reads route around it).  Every
        metric the ownership delta gives to a node streams from its
        senior pre-join owner -- the ring's minimal-movement guarantee,
        expected ``~R/N`` of keys -- and every other metric gets its
        definition only (the CREATE broadcast invariant).  The node
        flips ``up`` once every transfer verifies bit-identical, and a
        closing pass absorbs writes from stale-manifest clients.  A
        node that does not answer PING is refused before any manifest
        edit; a migration that fails before the flip removes the node
        again in one more commit, then re-raises.  Returns the delta and
        every metric name considered.
        """
        self.endpoint_overrides.setdefault(spec.id, (spec.host, spec.port))
        if not self._answers_ping(spec.id):
            raise ClusterSyncError(
                f"cannot join {spec.id}: {spec.host}:{spec.port} does "
                f"not answer PING"
            )
        replication = self.manifest.replication
        ring_before = self.manifest.ring()
        live = set(self.manifest.live_ids())

        def append(manifest: ClusterManifest) -> bool:
            manifest.nodes.append(spec)
            return True

        def remove(manifest: ClusterManifest) -> bool:
            manifest.nodes.remove(spec)
            return True

        commit(append)
        ring_after = self.manifest.ring()
        moved: Set[str] = set()
        try:
            names = self.metric_names(sorted(live))
            delta = ownership_delta(
                ring_before, ring_after, names, replication
            )
            for key, gainer in delta.transfers():
                donor = delta_donor(
                    key, gainer, ring_before, replication, live
                )
                self.sync_metric(key, donor, gainer)
                if gainer == spec.id:
                    moved.add(key)
            for name in names:
                if name not in moved and live:
                    self.define_metric(name, sorted(live)[0], spec.id)
        except BaseException:
            commit(remove)
            raise
        commit(lambda m: m.mark(spec.id, "up"))
        if moved:
            self.resync_node(
                spec.id,
                ring=ring_after,
                replication=replication,
                live=live,
                metrics=sorted(moved),
                require_identity=False,
            )
        return delta, names

    def leave(
        self, node_id: str, commit: Commit
    ) -> Tuple[OwnershipDelta, List[str]]:
        """Drop *node_id* from the manifest after migrating its keys.

        Streams each metric the leaving node exclusively anchors to its
        post-removal owner (the leaving node itself donates when it is
        the senior copy), removes it from the manifest, then -- if it
        is ``up`` and answers PING -- runs a closing pass from it so
        batches that stale-manifest clients routed there are not
        stranded in its journal.  Names and donors come only from
        ``up`` nodes that answer PING, so a dead node that is still
        ``up`` can be removed.  Refused when the remaining nodes could
        not hold ``replication`` copies, or -- before any transfer --
        when some moved key has no live replica left.  Returns the delta
        and every metric name considered.
        """
        spec = self.manifest.node(node_id)  # raises on unknown id
        replication = self.manifest.replication
        remaining = len(self.manifest.nodes) - 1
        if remaining < replication:
            raise ClusterConfigError(
                f"removing {node_id} would leave {remaining} node(s), "
                f"fewer than replication={replication}"
            )
        ring_before = self.manifest.ring()
        ring_after = HashRing(
            [s.id for s in self.manifest.nodes if s.id != node_id],
            vnodes=self.manifest.vnodes,
        )
        # the PING caches the leaving node's connection: its manifest
        # entry disappears below, but the closing pass still drains it
        live = {n for n in self.manifest.live_ids() if self._answers_ping(n)}
        names = self.metric_names(sorted(live))
        delta = ownership_delta(ring_before, ring_after, names, replication)
        transfers = delta.transfers()
        donors = [
            delta_donor(key, gainer, ring_before, replication, live)
            for key, gainer in transfers
        ]
        for (key, gainer), donor in zip(transfers, donors):
            self.sync_metric(key, donor, gainer)
        draining = node_id in live

        def drop(manifest: ClusterManifest) -> bool:
            manifest.nodes.remove(spec)
            return True

        commit(drop)
        if draining:
            # donor tokens keep the closing pass exactly-once
            for key, gainer in transfers:
                self.sync_metric(key, node_id, gainer, require_identity=False)
        return delta, names
