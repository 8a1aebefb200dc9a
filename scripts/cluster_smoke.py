#!/usr/bin/env python
"""CI cluster smoke: 3 nodes, R=2, lost acks, a real SIGKILL, certified fan-in.

The multi-node twin of ``chaos_smoke.py``.  A real
:class:`~repro.cluster.ClusterCoordinator` spawns three full server
processes (own journals, own snapshot dirs); the run then asserts the
ISSUE-8 acceptance scenario end to end:

1. front the metric's **senior** replica with a :class:`ChaosProxy`
   that truncates server->client bytes -- acks for applied batches are
   lost, the per-node client resends with the SAME idempotency token,
   and the node's journal-backed dedup window absorbs the duplicate;
2. halfway through the stream, ``SIGKILL`` that node's real OS process
   (no drain, no final snapshot); the cluster client marks it down and
   the consistent-hash walk re-derives, so replicated ingest continues
   against the surviving owner without a gap;
3. require the cluster answer to be **exact**: ``n`` equals the
   elements ingested (zero lost, zero duplicated -- the token-dedup
   proof), and quantiles + certified bound are bit-identical to an
   offline in-process sketch fed the same batches;
4. fan-in: a second metric on a different replica set, then a
   cluster-wide ``query_merged`` whose Section-4.9 recombination must
   match the offline merge exactly, bound included -- and every answer
   must sit within that bound of its exact rank in the union stream;
5. the death is *observable*: ``poll()`` names the corpse, the epoch
   bumps, the on-disk ``cluster.json`` marks the node down, the
   Prometheus exposition counts 2/3 nodes up, and the ``repro cluster
   status`` CLI exits non-zero;
6. after re-sync, a joining node learns every metric's full
   configuration: windowed metrics created before the join are listed
   with the same window and slide on every node;
7. an adaptive metric -- the default kind of ``repro cluster client
   create`` -- migrates through the join: its count, quantiles and
   bound afterwards equal an offline sketch fed the same batches.

Exit code 0 on success.

Usage::

    PYTHONPATH=src python scripts/cluster_smoke.py [--seed 42]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cluster import ClusterCoordinator, ClusterManifest  # noqa: E402
from repro.service import ChaosProxy, FaultEvent, FaultSchedule  # noqa: E402
from repro.service.protocol import MetricConfig  # noqa: E402
from repro.service.registry import SketchRegistry  # noqa: E402

PHIS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
BATCH = 1_000
TOTAL = 40_000
SIDE_TOTAL = 10_000
EPSILON = 0.01


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def offline_registry(name: str, n: int, batches) -> SketchRegistry:
    reg = SketchRegistry()
    reg.create(name, MetricConfig(kind="fixed", epsilon=EPSILON, n=n))
    for batch in batches:
        reg.ingest(name, batch)
    reg.apply_all()
    return reg


def true_rank_ok(values, bound: float, n: int) -> bool:
    """On a permutation of 0..n-1 the value of rank r is r-1, so the
    certified bound is directly checkable against true ranks."""
    for phi, value in zip(PHIS, values):
        target = max(1, int(np.ceil(phi * n)))
        if abs((value + 1) - target) > bound:
            return False
    return True


def union_rank_ok(values, bound: float, ordered: np.ndarray) -> bool:
    """Each value's exact rank interval in the sorted stream *ordered*
    comes within *bound* of its target rank (ties widen the interval)."""
    n = len(ordered)
    for phi, value in zip(PHIS, values):
        target = max(1, int(np.ceil(phi * n)))
        low = int(np.searchsorted(ordered, value, "left")) + 1
        high = int(np.searchsorted(ordered, value, "right"))
        if not low - bound <= target <= high + bound:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    data = rng.permutation(TOTAL).astype(np.float64)
    batches = np.split(data, TOTAL // BATCH)
    side_data = rng.permutation(SIDE_TOTAL).astype(np.float64)

    tmp = tempfile.mkdtemp(prefix="repro-cluster-smoke-")
    data_dir = os.path.join(tmp, "cluster")
    t0 = time.monotonic()

    with ClusterCoordinator(
        nodes=3,
        replication=2,
        data_dir=data_dir,
        n_shards=2,
        snapshot_interval_s=None,
    ) as coord:
        print(
            f"cluster up: nodes={coord.node_ids} ports={coord.ports} "
            f"epoch={coord.epoch} ({time.monotonic() - t0:.1f}s)"
        )
        name = "cluster/latency_ms"
        side = "cluster/errors"

        with coord.client() as probe:
            senior, junior = probe.ring.owners(name, 2)
        spec = coord.manifest.node(senior)
        # lose acks on the first three connections to the senior, then
        # run transparent; every lost ack forces a token resend
        plan = (
            FaultEvent(kind="truncate", direction="s2c", after_bytes=64),
        )
        with ChaosProxy(
            spec.host,
            spec.port,
            schedule=FaultSchedule([plan, plan, plan]),
        ) as proxy:
            client = coord.client(
                endpoint_overrides={senior: (proxy.host, proxy.port)},
                timeout=10.0,
                max_retries=4,
                backoff_base=0.01,
            )
            try:
                client.create(name, kind="fixed", eps=EPSILON, n=TOTAL)
                check(
                    client.owners_of(name) == [senior, junior],
                    f"replica set [{senior}, {junior}] from the ring",
                )
                kill_at = len(batches) // 2
                for i, batch in enumerate(batches):
                    if i == kill_at:
                        coord.kill_node(senior)
                        print(
                            f"SIGKILLed {senior} after batch {i} "
                            f"({i * BATCH} elements in flight)"
                        )
                    client.ingest(name, batch)
                check(
                    len(proxy.faults_injected) > 0,
                    f"chaos proxy injected "
                    f"{len(proxy.faults_injected)} ack-loss fault(s)",
                )
                check(
                    coord.poll() == [senior],
                    f"health sweep detected the death of {senior}",
                )
                check(senior in client.down_nodes,
                      "client routed around the corpse")

                # -- exactly-once + certified answer -------------------
                client.drain()
                values, bound, n = client.query(name, PHIS)
                check(
                    n == TOTAL,
                    f"n == {TOTAL} exactly (zero lost, zero duplicated)",
                )
                offline = offline_registry(name, TOTAL, batches)
                ov, ob, on = offline.quantiles(name, PHIS)
                check(
                    values == ov and bound == ob and n == on,
                    "cluster answer bit-identical to the offline sketch",
                )
                check(
                    true_rank_ok(values, bound, TOTAL),
                    f"certified bound ({bound:g} elements) holds "
                    f"against true ranks",
                )

                # -- certified fan-in across metrics -------------------
                # same (epsilon, N) plan as the main metric: equal-k
                # summaries, so the merged summary re-serialises
                client.create(
                    side, kind="fixed", eps=EPSILON, n=TOTAL
                )
                client.ingest(side, side_data)
                client.drain()
                mv, mb, mn = client.query_merged([name, side], PHIS)
                check(
                    mn == TOTAL + SIDE_TOTAL,
                    f"fan-in n == {TOTAL + SIDE_TOTAL}",
                )
                side_reg = offline_registry(
                    side, TOTAL, [side_data]
                )
                from repro.cluster import merge_tagged

                merged = merge_tagged(
                    [
                        (name, offline.fetch_serialized(name)),
                        (side, side_reg.fetch_serialized(side)),
                    ]
                )
                check(
                    mv == [float(v) for v in merged.quantiles(PHIS)]
                    and mb == float(merged.error_bound()),
                    "fan-in matches the offline Sec-4.9 recombination, "
                    "bound included",
                )
                union = np.sort(np.concatenate([data, side_data]))
                check(
                    union_rank_ok(mv, mb, union),
                    f"fan-in bound ({mb:g} elements) holds against the "
                    f"exact ranks of the union stream",
                )

                # -- the death is observable ---------------------------
                manifest = ClusterManifest.load(coord.manifest_path)
                check(
                    manifest.node(senior).status == "down"
                    and manifest.epoch == coord.epoch,
                    "cluster.json marks the node down at the new epoch",
                )
                prom = coord.prometheus()
                check(
                    "repro_cluster_nodes_up 2.0" in prom
                    and "repro_cluster_node_deaths 1" in prom,
                    "Prometheus exposition shows 2/3 up, 1 death",
                )
                env = dict(os.environ)
                env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
                status = subprocess.run(
                    [
                        sys.executable, "-m", "repro",
                        "cluster", "status",
                        "--manifest", coord.manifest_path,
                    ],
                    env=env,
                    capture_output=True,
                    text=True,
                )
                check(
                    status.returncode != 0
                    and "DOWN" in status.stdout,
                    "`repro cluster status` exits non-zero naming the "
                    "dead node",
                )
            finally:
                client.close()

        # === ISSUE-9: resurrect, re-sync, rebalance -- stream flowing ==
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        totals = {name: TOTAL, side: SIDE_TOTAL}

        def cli_status() -> "subprocess.CompletedProcess[str]":
            return subprocess.run(
                [
                    sys.executable, "-m", "repro", "cluster", "status",
                    "--manifest", coord.manifest_path,
                ],
                env=env, capture_output=True, text=True,
            )

        def ingest_more(n_batches: int) -> None:
            with coord.client() as cl:
                for _ in range(n_batches):
                    for metric in (name, side):
                        cl.ingest(metric, rng.standard_normal(BATCH))
                        totals[metric] += BATCH
                cl.drain()

        def counts_exact(when: str) -> None:
            with coord.client() as cl:
                got = {m: cl.query(m, [0.5])[2] for m in (name, side)}
            check(
                got == totals,
                f"counts exact {when}: {sorted(totals.values())} "
                f"(zero lost, zero duplicated)",
            )

        ingest_more(2)  # the corpse stays dead; survivors take writes
        coord.restart_node(senior, resync=False)
        status = cli_status()
        check(
            status.returncode == 4 and "SYNCING" in status.stdout,
            "status exits 4 (degraded-but-recovering, not an outage) "
            "while the node re-syncs",
        )
        ingest_more(2)  # still routed around the syncing node
        report = coord.resync_node(senior)
        check(
            bool(report.synced)
            and all(m.verified for m in report.synced),
            f"re-sync verified {len(report.synced)} owned metric(s) "
            f"bit-identical over {report.rounds} round(s)",
        )
        with coord.client() as cl:
            cl.drain()
            for metric in (name, side):
                payloads = {p for _, p in cl.fetch_replicas(metric)}
                check(
                    len(payloads) == 1,
                    f"{metric}: every replica serializes to the same "
                    f"bytes after re-sync",
                )
        counts_exact("after kill + re-sync")

        # an adaptive metric, made by the CLI's default kind, rolls
        # stages before the join; the join must move it exactly
        adaptive = "cluster/adaptive"
        created = subprocess.run(
            [
                sys.executable, "-m", "repro", "cluster", "client",
                "--manifest", coord.manifest_path,
                "create", adaptive, "--epsilon", str(EPSILON),
            ],
            env=env, capture_output=True, text=True,
        )
        check(
            created.returncode == 0 and created.stdout == "created\n",
            "`repro cluster client create` without --n made a metric",
        )
        offline = SketchRegistry()
        offline.create(
            adaptive, MetricConfig(kind="adaptive", epsilon=EPSILON)
        )
        with coord.client() as cl:
            for _ in range(3):
                batch = rng.standard_normal(4 * BATCH)
                cl.ingest(adaptive, batch)
                offline.ingest(adaptive, batch)
            cl.drain()
            kinds = {
                m["kind"] for m in cl.list_metrics() if m["name"] == adaptive
            }
        check(kinds == {"adaptive"}, f"{adaptive} is adaptive on every node")

        # windowed definitions must reach the joiner whole, whether it
        # owns them (a full-state install) or only learns them
        windowed = [f"cluster/windowed-{i}" for i in range(4)]
        with coord.client() as cl:
            for metric in windowed:
                cl.create(metric, eps=EPSILON, window=60, slide=30)
        joined = coord.add_node()
        manifest = ClusterManifest.load(coord.manifest_path)
        check(
            manifest.node(joined).status == "up"
            and len(manifest.nodes) == 4,
            f"{joined} joined, migrated its ring share, flipped up",
        )
        with coord.client() as cl:
            rows = [m for m in cl.list_metrics() if m["name"] in windowed]
        check(
            len(rows) == len(windowed) * len(manifest.nodes)
            and all(
                (m["window_s"], m["slide_s"]) == (60.0, 30.0) for m in rows
            ),
            f"every node's LIST reports window 60s / slide 30s for "
            f"{len(windowed)} windowed metrics after {joined} joined",
        )
        with coord.client() as cl:
            answer = cl.query(adaptive, PHIS)
            payloads = {p for _, p in cl.fetch_replicas(adaptive)}
        check(
            answer == offline.quantiles(adaptive, PHIS)
            and payloads == {offline.fetch_serialized(adaptive)},
            f"{adaptive}: n={answer[2]}, quantiles, certified bound and "
            f"every replica's bytes after {joined} joined equal the "
            f"offline sketch's",
        )
        ingest_more(2)
        counts_exact(f"after {joined} joined")

        coord.remove_node(senior)
        manifest = ClusterManifest.load(coord.manifest_path)
        check(
            senior not in manifest.node_ids()
            and len(manifest.nodes) == 3,
            f"{senior} drained its keys to the survivors and left",
        )
        ingest_more(2)
        counts_exact(f"after {senior} left")
        status = cli_status()
        check(
            status.returncode == 0,
            "`repro cluster status` exits 0 on the rewired cluster",
        )

    print(f"PASS cluster smoke in {time.monotonic() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
