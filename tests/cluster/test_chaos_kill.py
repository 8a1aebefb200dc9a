"""ISSUE-8 satellite 2: SIGKILL a replica mid-ingest under fault injection.

The scenario the replication layer exists for, end to end:

* the metric's **senior** replica sits behind a :class:`ChaosProxy`
  that truncates server->client bytes (lost acks) -- the per-node
  client reconnects and resends its unacked window with the SAME
  idempotency tokens, so the node's journal applies each batch once;
* halfway through the stream the senior replica is SIGKILLed for real
  (``multiprocessing`` ``Process.kill``) -- the cluster client marks it
  down and the walk re-derives, so the batch lands on the surviving
  owner (plus the promoted successor) without a gap;
* at the end, the cluster answer must match the offline certified
  bound: the surviving replica holds the FULL stream, bit-identically
  to an offline sketch fed the same batches, so ``n`` is *exactly* the
  number ingested (zero lost, zero duplicated) and the quantiles/bound
  equal the offline sketch's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.service import ChaosProxy, FaultEvent, FaultSchedule
from repro.service.protocol import MetricConfig
from repro.service.registry import SketchRegistry

TOTAL = 20_000
BATCH = 1_000
EPSILON = 0.01
PHIS = [0.1, 0.5, 0.9, 0.99]


@pytest.fixture(scope="module")
def coord(tmp_path_factory):
    data_dir = str(tmp_path_factory.mktemp("chaos-cluster"))
    with ClusterCoordinator(
        nodes=3,
        replication=2,
        data_dir=data_dir,
        n_shards=1,
        snapshot_interval_s=None,
    ) as c:
        yield c


def lossy_schedule() -> FaultSchedule:
    """Truncate the server->client stream on the first connections:
    acks are small frames, so a low byte trigger loses acks for
    batches the server already applied -- forcing reconnect + token
    resend.  Connections past the third run transparent."""
    plan = (
        FaultEvent(kind="truncate", direction="s2c", after_bytes=64),
    )
    return FaultSchedule([plan, plan, plan])


def test_sigkill_mid_ingest_exactly_once_within_certified_bound(coord):
    name = "chaos/latency"
    data = (
        np.random.default_rng(42).permutation(TOTAL).astype(np.float64)
    )
    batches = np.split(data, TOTAL // BATCH)

    # find the metric's senior owner and front it with the lossy proxy
    with coord.client() as probe:
        senior, junior = probe.ring.owners(name, 2)
    spec = coord.manifest.node(senior)
    with ChaosProxy(
        spec.host, spec.port, schedule=lossy_schedule()
    ) as proxy:
        client = coord.client(
            endpoint_overrides={senior: (proxy.host, proxy.port)},
            timeout=10.0,
            max_retries=4,
            backoff_base=0.01,
        )
        try:
            client.create(name, kind="fixed", eps=EPSILON, n=TOTAL)
            assert client.owners_of(name) == [senior, junior]
            killed_at = len(batches) // 2
            for i, batch in enumerate(batches):
                if i == killed_at:
                    coord.kill_node(senior)  # real SIGKILL, no drain
                client.ingest(name, batch)
            # the proxy really injected ack loss before the kill
            assert proxy.faults_injected, "no fault fired; tune schedule"
            # the coordinator notices, marks down, bumps the epoch
            epoch0 = coord.epoch
            assert coord.poll() == [senior]
            assert coord.epoch == epoch0 + 1
            assert senior in client.down_nodes

            # -- exactly-once: nothing lost, nothing double-applied ----
            client.drain()
            values, bound, n = client.query(name, PHIS)
            assert n == TOTAL

            # -- the answer matches the offline certified bound --------
            offline = SketchRegistry()
            offline.create(
                name, MetricConfig(kind="fixed", epsilon=EPSILON, n=TOTAL)
            )
            for batch in batches:
                offline.ingest(name, batch)
            offline.apply_all()
            offline_values, offline_bound, offline_n = offline.quantiles(
                name, PHIS
            )
            assert offline_n == TOTAL
            assert bound == offline_bound
            assert values == offline_values
            # ... and the bound is *true* on this permutation stream:
            # the value of rank r is r-1, so ranks are directly checkable
            for phi, value in zip(PHIS, values):
                target_rank = max(1, int(np.ceil(phi * TOTAL)))
                assert abs((value + 1) - target_rank) <= bound

            # the surviving owner answers; reads route around the corpse
            assert client.owners_of(name)[0] == junior
        finally:
            client.close()


def test_replica_journals_hold_each_batch_once(coord):
    """Post-mortem of the same cluster: the journals (source of truth
    for recovery) prove exactly-once.  No node's journal holds more
    than TOTAL elements of the chaos metric -- the dedup window
    absorbed every token resend -- and the surviving replica holds
    exactly TOTAL."""
    import os

    from repro.service.journal import INGEST_RECORD, read_journal

    per_node = {}
    for nid in coord.node_ids:
        node_total = 0
        node_dir = os.path.join(coord.data_dir, nid)
        for root, _dirs, files in os.walk(node_dir):
            for fname in files:
                if not fname.endswith(".log"):
                    continue
                scan = read_journal(os.path.join(root, fname))
                for record in scan.records:
                    if (
                        record.type == INGEST_RECORD
                        and record.name == "chaos/latency"
                    ):
                        node_total += int(record.values.size)
        per_node[nid] = node_total
        # a duplicated (non-deduped) resend would overshoot
        assert node_total <= TOTAL, (nid, per_node)
    # at least one surviving node holds the complete stream ...
    assert TOTAL in per_node.values(), per_node
    # ... and the cluster-wide footprint is bounded by R full copies
    assert sum(per_node.values()) <= 2 * TOTAL, per_node
