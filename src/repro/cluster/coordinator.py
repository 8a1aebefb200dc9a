"""The cluster coordinator: launch, supervise and account for N nodes.

Each node is a **complete** :class:`~repro.service.server.QuantileService`
process -- own reactor, own shards, own journal + snapshot pair under
``data_dir/node-<i>`` -- spawned through
:func:`~repro.cluster.node.node_main` (spawn context, pipe handshake,
SIGTERM = graceful drain).  Every node knows its ``node_id`` and the
manifest ``epoch`` it was launched under (reported via the ``PING``
opcode), placement is a consistent-hash ring, and liveness is tracked.
``repro serve --workers N`` is this class with ``replication=1``: N
processes on one host, each metric on exactly one of them.

Supervision model -- *mark down, re-sync before rejoining*: a node that
dies is marked ``down`` (manifest status, ``epoch`` bump, Prometheus
gauges) and never silently restarted, because its journal is missing
every batch its peers acknowledged since the death -- serving from it
would under-count.  Recovery is explicit: :meth:`restart_node`
relaunches the process, which rejoins as ``syncing`` (alive, routed
around for reads) and is brought up to its senior donor's exact state
by :meth:`resync_node` -- full-payload install + journal-tail catch-up
under the donors' idempotency tokens, verified **bit-identical** before
the flip to ``up``.  Planned membership changes go through
:meth:`add_node` / :meth:`remove_node`, which migrate only the metrics
the ring's ownership delta moves (expected ``~R/N`` of keys) while
ingest continues.  The protocols themselves live in
:class:`~repro.cluster.sync.SyncDriver`, shared with the ``repro
cluster`` membership verbs; the coordinator adds the processes, its
lock and the event counters.  ``poll()`` performs one health sweep;
pass ``health_interval_s`` to run sweeps on a background thread.

Observability: the coordinator publishes ``cluster.nodes_up``,
``cluster.nodes_syncing``, ``cluster.nodes_total``, ``cluster.epoch``
gauges and ``cluster.node_deaths`` / ``cluster.resyncs`` /
``cluster.rebalance_transfers`` counters into the process-wide
:mod:`repro.obs` registry (the sync driver adds live
``cluster.sync_metrics_total`` / ``_done`` progress gauges), so
:func:`~repro.obs.exposition.render_prometheus` (and ``repro cluster
status --prom``) exposes ring health next to the sketch metrics.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.errors import StorageError
from ..obs import hooks as obs_hooks
from ..obs.exposition import render_prometheus
from ..obs.metrics import MetricsRegistry
from .client import ClusterClient
from .errors import ClusterConfigError
from .manifest import (
    MANIFEST_FILE,
    ClusterManifest,
    NodeSpec,
    make_node_id,
    node_index,
)
from .node import node_main
from .ring import DEFAULT_VNODES
from .sync import Edit, NodeSyncReport, SyncDriver

__all__ = ["ClusterCoordinator", "publish_ring_gauges"]


def publish_ring_gauges(
    reg: MetricsRegistry,
    *,
    nodes_up: int,
    nodes_syncing: int,
    nodes_total: int,
    replication: int,
    epoch: int,
) -> None:
    """Set the ``cluster.*`` ring-health gauges in *reg*.

    The one publisher of these gauges: the coordinator feeds it its
    manifest view, ``repro cluster status --prom`` a live probe.
    """
    reg.gauge("cluster.nodes_up").set(nodes_up)
    reg.gauge("cluster.nodes_syncing").set(nodes_syncing)
    reg.gauge("cluster.nodes_total").set(nodes_total)
    reg.gauge("cluster.replication").set(replication)
    reg.gauge("cluster.epoch").set(epoch)


class ClusterCoordinator:
    """Launch and supervise a multi-node quantile cluster.

    Parameters
    ----------
    nodes:
        Node count.  Ids are ``node-0`` ... ``node-N-1``.
    replication:
        How many distinct nodes hold each metric's full stream.
    host:
        Bind address for every node.
    base_port:
        ``0`` (default) gives every node an ephemeral port; nonzero
        binds node *i* to ``base_port + i``.
    data_dir:
        Root for the ``cluster.json`` manifest and the per-node
        durability dirs (``node-0`` ...).  ``None`` runs ephemeral (no
        manifest file, no journals) -- benchmarks and tests.
    vnodes:
        Virtual points per node on the hash ring.
    health_interval_s:
        When set, a daemon thread calls :meth:`poll` at this period.
    service_kwargs:
        Forwarded verbatim to every node's ``QuantileService``
        (``n_shards``, ``fsync``, ``batch_window_s``, ...).

    A restart over an existing ``data_dir`` must present the same node
    count, replication and vnodes (placement and replica sets would
    otherwise shift away from the journals on disk -- refused); the
    manifest epoch increments on every restart and every membership
    change.
    """

    def __init__(
        self,
        *,
        nodes: int = 3,
        replication: int = 2,
        host: str = "127.0.0.1",
        base_port: int = 0,
        data_dir: Optional[str] = None,
        vnodes: int = DEFAULT_VNODES,
        health_interval_s: Optional[float] = None,
        auto_resync: bool = True,
        **service_kwargs: Any,
    ) -> None:
        if nodes < 1:
            raise ClusterConfigError(f"nodes must be >= 1, got {nodes}")
        if not 1 <= replication <= nodes:
            raise ClusterConfigError(
                f"replication must be in [1, {nodes}], got {replication}"
            )
        if base_port and not 0 < base_port <= 65536 - nodes:
            raise ClusterConfigError(
                f"{nodes} nodes from base port {base_port} would listen on "
                f"ports {base_port}-{base_port + nodes - 1}; ports run "
                f"0-65535"
            )
        self.n_nodes = nodes
        self.replication = replication
        self.host = host
        self.base_port = base_port
        self.data_dir = data_dir
        self.vnodes = vnodes
        self.health_interval_s = health_interval_s
        self.auto_resync = auto_resync
        self.service_kwargs = service_kwargs
        self.manifest: Optional[ClusterManifest] = None
        self._procs: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._health_thread: Optional[threading.Thread] = None
        self._health_stop = threading.Event()
        self._lock = threading.Lock()
        self._stopped = False

    # -- manifest ----------------------------------------------------------

    @property
    def manifest_path(self) -> Optional[str]:
        if self.data_dir is None:
            return None
        return os.path.join(self.data_dir, MANIFEST_FILE)

    def _prior_manifest(self) -> Optional[ClusterManifest]:
        """The manifest of a previous incarnation, with the restart
        pinned to the same topology parameters.

        The prior manifest's node *list* wins over the constructor's
        ``nodes`` count-derived ids: after a planned ``remove-node`` the
        ids may be sparse (``node-0``, ``node-2``), and re-deriving them
        from ``range(n)`` would re-route metrics away from their
        journals.  The count must still agree, as must replication and
        vnodes -- membership changes go through :meth:`add_node` /
        :meth:`remove_node`, never through restart parameters.
        """
        path = self.manifest_path
        if path is None or not os.path.exists(path):
            return None
        prior = ClusterManifest.load(path)
        if len(prior.nodes) != self.n_nodes:
            raise ClusterConfigError(
                f"{self.data_dir} was written by a {len(prior.nodes)}-node "
                f"cluster; restarting with nodes={self.n_nodes} would "
                f"re-route metrics away from their journals (use "
                f"add_node/remove_node for planned membership changes)"
            )
        if prior.replication != self.replication:
            raise ClusterConfigError(
                f"{self.data_dir} was written with replication="
                f"{prior.replication}; restarting with replication="
                f"{self.replication} would change every replica set"
            )
        if prior.vnodes != self.vnodes:
            raise ClusterConfigError(
                f"{self.data_dir} was written with vnodes={prior.vnodes}; "
                f"restarting with vnodes={self.vnodes} would shift "
                f"placement away from the journals"
            )
        return prior

    def _save_manifest(self) -> None:
        if self.manifest is None:
            return
        path = self.manifest_path
        if path is not None:
            self.manifest.save(path)

    # -- lifecycle ---------------------------------------------------------

    def _launch(
        self, nid: str, epoch: int, ctx: Any = None
    ) -> Tuple[Any, Any]:
        """Spawn one node process; returns ``(proc, parent_conn)``.

        The handshake (``("ready", port)`` on the pipe) is collected by
        :meth:`_await_ready` -- split so :meth:`start` can launch every
        node before waiting on any of them.
        """
        if ctx is None:
            ctx = multiprocessing.get_context("spawn")
        index = node_index(nid)
        if index is None:
            raise ClusterConfigError(
                f"node id {nid!r} is not of the form 'node-<i>'"
            )
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=node_main,
            name=f"repro-{nid}",
            args=(
                self.host,
                0 if self.base_port == 0 else self.base_port + index,
                (
                    os.path.join(self.data_dir, nid)
                    if self.data_dir is not None
                    else None
                ),
                child_conn,
                {
                    **self.service_kwargs,
                    "node_id": nid,
                    "cluster_epoch": epoch,
                },
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[nid] = proc
        return proc, parent_conn

    def _await_ready(
        self, nid: str, parent_conn: Any, deadline: float
    ) -> int:
        """Collect one node's startup handshake; returns its bound port."""
        budget = deadline - time.monotonic()
        if budget <= 0 or not parent_conn.poll(max(budget, 0.0)):
            raise StorageError(f"{nid} failed to start in time")
        try:
            status, value = parent_conn.recv()
        except EOFError:
            code = self._procs[nid].exitcode
            raise StorageError(
                f"{nid} died during startup (exit code {code})"
            ) from None
        if status != "ready":
            raise StorageError(f"{nid} failed to start: {value}")
        parent_conn.close()
        return int(value)

    def start(self, timeout: float = 30.0) -> "ClusterCoordinator":
        if self.data_dir is not None:
            os.makedirs(self.data_dir, exist_ok=True)
        prior = self._prior_manifest()
        epoch = (prior.epoch if prior is not None else 0) + 1
        # the prior manifest's node list wins (ids may be sparse after a
        # remove-node); a fresh cluster derives node-0..node-N-1
        if prior is not None:
            planned = [(spec.id, spec.status) for spec in prior.nodes]
        else:
            planned = [(make_node_id(i), "up") for i in range(self.n_nodes)]
        ctx = multiprocessing.get_context("spawn")
        pending: List[Tuple[str, Any]] = []
        specs: List[NodeSpec] = []
        behind: List[str] = []
        for nid, prior_status in planned:
            _, parent_conn = self._launch(nid, epoch, ctx)
            pending.append((nid, parent_conn))
            # a node that was down or mid-sync at shutdown restarts
            # *behind* its peers: its journal stopped while theirs kept
            # going.  It comes back as "syncing" and must re-sync before
            # serving reads.
            status = "up" if prior_status == "up" else "syncing"
            if status != "up":
                behind.append(nid)
            specs.append(
                NodeSpec(id=nid, host=self.host, port=0, status=status)
            )
        deadline = time.monotonic() + timeout
        try:
            for (nid, parent_conn), spec in zip(pending, specs):
                spec.port = self._await_ready(nid, parent_conn, deadline)
        except BaseException:
            self.stop(graceful=False)
            raise
        self.manifest = ClusterManifest(
            nodes=specs,
            replication=self.replication,
            vnodes=self.vnodes,
            epoch=epoch,
        )
        self._save_manifest()
        self._publish_obs()
        if behind and self.auto_resync:
            for nid in behind:
                self.resync_node(nid)
        if self.health_interval_s:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                name="repro-cluster-health",
                daemon=True,
            )
            self._health_thread.start()
        return self

    def stop(self, *, graceful: bool = True, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain + final snapshot) or SIGKILL every node."""
        if self._stopped:
            return
        self._stopped = True
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        for proc in self._procs.values():
            if not proc.is_alive():
                continue
            if graceful:
                proc.terminate()
            else:
                proc.kill()
        deadline = time.monotonic() + timeout
        for proc in self._procs.values():
            proc.join(max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():  # pragma: no cover - drain overran
                proc.kill()
                proc.join(5.0)
        self._procs = {}

    def __enter__(self) -> "ClusterCoordinator":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- accessors ---------------------------------------------------------

    @property
    def node_ids(self) -> List[str]:
        if self.manifest is not None:
            return self.manifest.node_ids()
        return [make_node_id(i) for i in range(self.n_nodes)]

    @property
    def ports(self) -> List[int]:
        assert self.manifest is not None, "call start() first"
        return [spec.port for spec in self.manifest.nodes]

    @property
    def epoch(self) -> int:
        return self.manifest.epoch if self.manifest is not None else 0

    def live_ids(self) -> List[str]:
        assert self.manifest is not None, "call start() first"
        return self.manifest.live_ids()

    def is_alive(self, node: Union[int, str]) -> bool:
        proc = self._procs.get(self._resolve(node))
        return proc is not None and proc.is_alive()

    def client(self, **client_kwargs: Any) -> ClusterClient:
        """A :class:`ClusterClient` over this cluster's manifest."""
        assert self.manifest is not None, "call start() first"
        return ClusterClient(self.manifest, **client_kwargs)

    def _resolve(self, node: Union[int, str]) -> str:
        return make_node_id(node) if isinstance(node, int) else node

    # -- supervision -------------------------------------------------------

    def kill_node(self, node: Union[int, str]) -> str:
        """SIGKILL one node (the chaos-test hook); returns its id.

        The kill is immediate and ungraceful -- no drain, no final
        snapshot -- exactly what the crash-recovery story is built for.
        Detection happens at the next :meth:`poll`.
        """
        nid = self._resolve(node)
        proc = self._procs.get(nid)
        if proc is None:
            raise ClusterConfigError(f"unknown node {nid!r}")
        if proc.is_alive():
            proc.kill()
            proc.join(10.0)
        return nid

    # -- recovery + membership ---------------------------------------------

    def _sync_driver(self, **kwargs: Any) -> SyncDriver:
        assert self.manifest is not None, "call start() first"
        return SyncDriver(self.manifest, **kwargs)

    def _commit(self, edit: Edit) -> None:
        """The membership protocols' commit callback: apply *edit* under
        the lock the health sweep takes; when it changed the manifest,
        bump the epoch and save ``cluster.json``."""
        assert self.manifest is not None, "call start() first"
        with self._lock:
            if edit(self.manifest):
                self.manifest.epoch += 1
                self.n_nodes = len(self.manifest.nodes)
                self._save_manifest()
            self._publish_obs()

    def restart_node(
        self,
        node: Union[int, str],
        *,
        resync: bool = True,
        timeout: float = 30.0,
    ) -> str:
        """Relaunch a dead node in place, then re-sync it from its peers.

        The relaunch recovers whatever the node's own journal holds --
        which is every batch *it* acknowledged, and none of the ones its
        replicas took while it was dead.  It therefore rejoins as
        ``syncing`` (behind, routed around for reads) and, unless
        ``resync=False``, is immediately brought up to donor state and
        flipped ``up`` by :meth:`resync_node`.
        """
        assert self.manifest is not None, "call start() first"
        nid = self._resolve(node)
        spec = self.manifest.node(nid)  # raises on unknown id
        if self.is_alive(nid):
            raise ClusterConfigError(
                f"{nid} is still running; kill it before restarting"
            )
        with self._lock:
            self._procs.pop(nid, None)
            _, parent_conn = self._launch(nid, self.manifest.epoch + 1)
            spec.port = self._await_ready(
                nid, parent_conn, time.monotonic() + timeout
            )
            spec.status = "syncing"
            self.manifest.epoch += 1
            self._save_manifest()
            self._publish_obs()
        if resync:
            self.resync_node(nid)
        return nid

    def resync_node(
        self,
        node: Union[int, str],
        *,
        max_rounds: int = 64,
        closing_pass: bool = True,
    ) -> NodeSyncReport:
        """Supervised re-sync: stream state from donors, verify, flip up.

        Runs :meth:`~repro.cluster.sync.SyncDriver.rejoin`: marks the
        node ``syncing`` (one epoch bump), brings every owned metric to
        bit-identity with its senior donor, marks the node ``up``
        (second epoch bump) and, with ``closing_pass``, absorbs the
        batches stale-manifest clients sent to the donors alone.  A
        node that does not answer PING raises
        :class:`~repro.cluster.errors.ClusterSyncError` before any
        manifest edit.
        """
        nid = self._resolve(node)
        with self._sync_driver(max_rounds=max_rounds) as driver:
            report = driver.rejoin(
                nid, self._commit, closing_pass=closing_pass
            )
        obs_hooks.registry().counter("cluster.resyncs").inc()
        return report

    def add_node(self, *, timeout: float = 30.0) -> str:
        """Grow the cluster by one node, migrating only the moved keys.

        Launches the next free ``node-<i>``, then runs
        :meth:`~repro.cluster.sync.SyncDriver.join`: the node joins as
        ``syncing`` (one epoch bump), the metrics the ring moves to it
        stream from their senior pre-join owners, every other metric
        gets its definition, and the node flips ``up`` (second bump).
        Returns the new node id.
        """
        assert self.manifest is not None, "call start() first"
        with self._lock:
            nid = self.manifest.next_node_id()
            _, parent_conn = self._launch(nid, self.manifest.epoch + 1)
        try:
            with self._lock:
                port = self._await_ready(
                    nid, parent_conn, time.monotonic() + timeout
                )
            spec = NodeSpec(
                id=nid, host=self.host, port=port, status="syncing"
            )
            with self._sync_driver() as driver:
                delta, _names = driver.join(spec, self._commit)
        except BaseException:
            # the manifest no longer names the node, so a retry reuses
            # its id: stop this process before a second one is launched
            self._reap(nid, timeout)
            raise
        obs_hooks.registry().counter("cluster.rebalance_transfers").inc(
            len(delta.moved)
        )
        return nid

    def remove_node(
        self, node: Union[int, str], *, timeout: float = 30.0
    ) -> List[str]:
        """Shrink the cluster by one node, migrating only the moved keys.

        Runs :meth:`~repro.cluster.sync.SyncDriver.leave` -- migrate the
        keys the node anchors, drop it from the manifest (one epoch
        bump), drain it in a closing pass -- and only then terminates
        the process gracefully.  Returns the migrated metric names.
        """
        nid = self._resolve(node)
        with self._sync_driver() as driver:
            delta, _names = driver.leave(nid, self._commit)
        obs_hooks.registry().counter("cluster.rebalance_transfers").inc(
            len(delta.moved)
        )
        self._reap(nid, timeout)
        return [key for key, _ in delta.transfers()]

    def _reap(self, nid: str, timeout: float) -> None:
        """Stop *nid*'s process gracefully, if it runs, and forget it."""
        proc = self._procs.pop(nid, None)
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout)
            if proc.is_alive():  # pragma: no cover - drain overran
                proc.kill()
                proc.join(5.0)

    def poll(self) -> List[str]:
        """One health sweep; returns ids of *newly* dead nodes.

        Every death marks the node ``down`` in the manifest, bumps the
        epoch once per sweep, rewrites ``cluster.json`` atomically and
        refreshes the Prometheus gauges.  Clients pick the change up by
        reloading the manifest (or are already skipping the node via
        their own connection-failure marking).
        """
        assert self.manifest is not None, "call start() first"
        with self._lock:
            newly_dead: List[str] = []
            for spec in self.manifest.nodes:
                if spec.status in ("up", "syncing") and not self.is_alive(
                    spec.id
                ):
                    self.manifest.mark(spec.id, "down")
                    newly_dead.append(spec.id)
            if newly_dead:
                obs_hooks.registry().counter("cluster.node_deaths").inc(
                    len(newly_dead)
                )
                self.manifest.epoch += 1
                self._save_manifest()
            self._publish_obs()
            return newly_dead

    def _health_loop(self) -> None:
        assert self.health_interval_s is not None
        while not self._health_stop.wait(self.health_interval_s):
            try:
                self.poll()
            except Exception:  # pragma: no cover - keep sweeping
                pass

    # -- observability -----------------------------------------------------

    def _publish_obs(self) -> None:
        reg = obs_hooks.registry()
        manifest = self.manifest
        publish_ring_gauges(
            reg,
            nodes_up=len(manifest.live_ids()) if manifest else 0,
            nodes_syncing=len(manifest.syncing_ids()) if manifest else 0,
            nodes_total=len(manifest.nodes) if manifest else self.n_nodes,
            replication=self.replication,
            epoch=self.epoch,
        )
        # the event counters are incremented where the events happen;
        # touching them here puts them on the page before the first one
        for event in ("node_deaths", "resyncs", "rebalance_transfers"):
            reg.counter(f"cluster.{event}")

    def prometheus(self) -> str:
        """Ring health (+ whatever else the process collected) in
        Prometheus text format."""
        self._publish_obs()
        return render_prometheus(obs_hooks.registry())
