"""Service ingest throughput: the TCP server versus in-process SketchBank.

The acceptance target for the service subsystem is that batched ingest
through the full stack -- zero-copy frame encode, TCP, coalesced reactor
server, journal-less registry enqueue, vectorized shard drain -- stays
within 1.3x of direct in-process
:class:`~repro.core.bank.SketchBank` ingest once batches are large
(>= 4096 values), i.e. the protocol disappears into the batch.

Five measurements, written to ``BENCH_service.json``:

* ``direct``     -- in-process ``SketchBank.extend_pairs`` over the same
  metric/batch schedule: the ceiling the server is judged against.
* ``service``    -- a pipelined client driving an ephemeral (journal-free)
  server, across batch sizes and shard counts.
* ``durable``    -- the same with the write-ahead journal on, to price
  durability separately from protocol overhead.
* ``resilience`` -- the same workload with idempotency tokens on versus
  off (zero faults injected), to price the retry layer itself: token
  generation, the unacked-request window, and the server-side dedup
  lookup.  Gated at <= 5% overhead.
* ``scaling``    -- a local replication-1 cluster
  (:class:`~repro.cluster.ClusterCoordinator`, what ``serve --workers N``
  runs) at 1, 2, ... node processes, each blasted by its own driver
  process that dials its metrics' ring owner directly.  The >1.6x
  two-worker speedup gate only applies when the recorded *effective*
  CPU affinity (``meta.effective_cpus``, from ``sched_getaffinity`` --
  not ``cpu_count``, which lies inside cgroup-limited containers) is
  >= 2; on a single-core box the section still runs and records the
  honest numbers with ``gate_applicable: false``.
* ``cluster``    -- the multi-node consistent-hash cluster
  (:mod:`repro.cluster`) under the same conditions, at nodes x R
  configs, driven through :class:`~repro.cluster.ClusterClient`.
  Gated: the 1-node/R=1 config must reach >= 0.8x of the 1-node
  direct-dial ``scaling`` rate -- the price of ring routing and the
  cluster client's replication plumbing with replication off.
  The R=2 rows record what paying for availability costs (every
  logical element is written to two nodes).
* ``rebalance``  -- ingest throughput on a 3-node R=2 journal-backed
  cluster while a killed-and-restarted node re-syncs on a background
  thread, versus the same timed segment on a healthy cluster.  Gated:
  recovery must leave >= 0.8x of the ingest throughput -- donors serve
  SYNCPULL snapshots and journal tails from the same reactor that
  is absorbing the firehose.

Run directly::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.core.bank import SketchBank
from repro.service import QuantileClient, ServerThread

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_service.json")

EPSILON = 0.01
DESIGN_N = 50_000_000
N_METRICS = 8

#: tuned service fast path (see DESIGN.md, "service fast path"): the
#: client defers sends until this many framed bytes queue up (one
#: scatter-gather ``sendmsg`` per ~4 batches of 4096 float64s), and the
#: shard flusher waits this long before draining so frames from several
#: socket reads collapse into one vectorized apply
COALESCE_BYTES = 128 * 1024
BATCH_WINDOW_S = 0.002


def _schedule(
    total_elements: int, batch: int, seed: int = 0
) -> List[Tuple[int, np.ndarray]]:
    """(metric index, values) batches, round-robin across metrics."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=total_elements)
    out = []
    for i, start in enumerate(range(0, total_elements, batch)):
        out.append((i % N_METRICS, data[start : start + batch]))
    return out


def _rate(elements: int, seconds: float) -> float:
    return elements / seconds if seconds > 0 else float("inf")


def bench_direct(
    total_elements: int, batch: int, rounds: int
) -> Dict[str, object]:
    """In-process SketchBank ingest: the 2x-target baseline."""
    schedule = _schedule(total_elements, batch)
    best = float("inf")
    for _ in range(rounds):
        bank = SketchBank(EPSILON, DESIGN_N, n_sketches=N_METRICS)
        t0 = time.perf_counter()
        for metric, values in schedule:
            bank.extend_pairs([(metric, values)])
        best = min(best, time.perf_counter() - t0)
    return {
        "batch": batch,
        "elements": total_elements,
        "seconds": round(best, 4),
        "elements_per_s": round(_rate(total_elements, best)),
    }


def bench_service(
    total_elements: int,
    batch: int,
    n_shards: int,
    rounds: int,
    data_dir: Optional[str] = None,
    idempotency: bool = True,
    windowed: bool = False,
) -> Dict[str, object]:
    """Pipelined client -> TCP -> server reactor -> shard drain.

    ``windowed=True`` declares every metric as a sliding window
    (60s/10s), pricing the event-time path -- per-batch clock stamp,
    INGEST_AT journaling, ring-bucket placement -- against the plain
    ingest path under an otherwise identical workload.
    """
    schedule = _schedule(total_elements, batch)
    names = [f"bench/m{i}" for i in range(N_METRICS)]
    best = float("inf")
    for round_idx in range(rounds):
        run_dir = (
            os.path.join(data_dir, f"round{round_idx}") if data_dir else None
        )
        if run_dir:
            os.makedirs(run_dir, exist_ok=True)
        with ServerThread(
            data_dir=run_dir,
            n_shards=n_shards,
            snapshot_interval_s=None,
            batch_window_s=BATCH_WINDOW_S,
            # the direct baseline runs with obs hooks off, so the server
            # must too -- instrumentation cost is priced separately by
            # bench_hotpath's ``obs`` section, not double-charged here
            observability=False,
        ) as server:
            with QuantileClient(
                "127.0.0.1",
                server.port,
                idempotency=idempotency,
                send_coalesce_bytes=COALESCE_BYTES,
            ) as client:
                time_kwargs = (
                    {"window": 60.0, "slide": 10.0} if windowed else {}
                )
                for name in names:
                    client.create(
                        name, kind="fixed", eps=EPSILON, n=DESIGN_N,
                        **time_kwargs,
                    )
                t0 = time.perf_counter()
                for metric, values in schedule:
                    client.ingest_nowait(names[metric], values)
                client.flush()
                client.drain()
                elapsed = time.perf_counter() - t0
                _, _, n = client.query(names[0], [0.5])
                assert n > 0
        best = min(best, elapsed)
    return {
        "batch": batch,
        "shards": n_shards,
        "windowed": windowed,
        "batch_window_s": BATCH_WINDOW_S,
        "send_coalesce_bytes": COALESCE_BYTES,
        "elements": total_elements,
        "seconds": round(best, 4),
        "elements_per_s": round(_rate(total_elements, best)),
    }


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity, not inventory)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _scaling_driver(
    host: str,
    port: int,
    own: "set[int]",
    total: int,
    batch: int,
    conn,
) -> None:
    """One driver process: blast pipelined ingest at one cluster node.

    Regenerates the shared schedule from the same seed and keeps only
    the batches of the metrics this driver's node owns, so the union
    of all drivers is exactly the single-process workload.  Handshake:
    send ``("ready", n_elements)`` after creates, wait for ``"go"``,
    then send ``("done", seconds)`` after flush + drain.
    """
    from repro.service import QuantileClient

    names = [f"bench/m{i}" for i in range(N_METRICS)]
    schedule = [
        (m, values) for m, values in _schedule(total, batch) if m in own
    ]
    client = QuantileClient(host, port, send_coalesce_bytes=COALESCE_BYTES)
    for i in sorted(own):
        client.create(names[i], kind="fixed", eps=EPSILON, n=DESIGN_N)
    conn.send(("ready", int(sum(v.size for _, v in schedule))))
    conn.recv()  # "go"
    t0 = time.perf_counter()
    for metric, values in schedule:
        client.ingest_nowait(names[metric], values)
    client.flush()
    client.drain()
    conn.send(("done", time.perf_counter() - t0))
    client.close()


def bench_scaling(
    total_elements: int, batch: int, workers: int, rounds: int
) -> Dict[str, object]:
    """Aggregate ingest throughput of a *workers*-node R=1 cluster.

    Unlike ``bench_service`` (client thread and server thread share one
    process), every driver here is a separate OS process, so the
    measurement isolates server-side parallelism: wall time runs from
    the moment all drivers are connected and armed to the last drain.
    Each driver dials its metrics' ring owner directly, bypassing the
    cluster client, so ``workers=1`` is the reference the ``cluster``
    section's routing layer is priced against.
    """
    import multiprocessing

    from repro.cluster import ClusterCoordinator

    names = [f"bench/m{i}" for i in range(N_METRICS)]
    ctx = multiprocessing.get_context("spawn")
    best = float("inf")
    elements = 0
    for _ in range(rounds):
        with ClusterCoordinator(
            nodes=workers,
            replication=1,
            n_shards=4,
            snapshot_interval_s=None,
            batch_window_s=BATCH_WINDOW_S,
            observability=False,
        ) as coord:
            ring = coord.manifest.ring()
            conns = []
            procs = []
            for spec in coord.manifest.nodes:
                own = {
                    i
                    for i, name in enumerate(names)
                    if ring.owner(name) == spec.id
                }
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_scaling_driver,
                    args=(
                        spec.host,
                        spec.port,
                        own,
                        total_elements,
                        batch,
                        child_conn,
                    ),
                )
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(proc)
            elements = 0
            for conn in conns:
                status, n = conn.recv()
                assert status == "ready"
                elements += n
            t0 = time.perf_counter()
            for conn in conns:
                conn.send("go")
            for conn in conns:
                status, _secs = conn.recv()
                assert status == "done"
            elapsed = time.perf_counter() - t0
            for proc in procs:
                proc.join()
        best = min(best, elapsed)
    return {
        "workers": workers,
        "batch": batch,
        "elements": elements,
        "seconds": round(best, 4),
        "elements_per_s": round(_rate(elements, best)),
    }


def _cluster_driver(
    specs: "List[Tuple[str, str, int]]",
    vnodes: int,
    replication: int,
    total: int,
    batch: int,
    conn,
) -> None:
    """One driver process: pipelined replicated ingest via ClusterClient.

    Unlike ``_scaling_driver`` (which dials one node directly and
    pre-shards the metric list), this drives the real routing layer:
    the consistent-hash ring decides placement, and every batch is
    replicated to its metric's R owners.  The client-side routing cost
    is part of what the cluster section prices.
    """
    from repro.cluster import ClusterClient
    from repro.cluster.manifest import ClusterManifest, NodeSpec

    manifest = ClusterManifest(
        nodes=[
            NodeSpec(id=nid, host=host, port=port)
            for nid, host, port in specs
        ],
        replication=replication,
        vnodes=vnodes,
    )
    names = [f"bench/m{i}" for i in range(N_METRICS)]
    schedule = _schedule(total, batch)
    client = ClusterClient(
        manifest, send_coalesce_bytes=COALESCE_BYTES
    )
    for name in names:
        client.create(name, kind="fixed", eps=EPSILON, n=DESIGN_N)
    conn.send(("ready", int(sum(v.size for _, v in schedule))))
    conn.recv()  # "go"
    t0 = time.perf_counter()
    for metric, values in schedule:
        client.ingest_nowait(names[metric], values)
    client.flush()
    client.drain()
    conn.send(("done", time.perf_counter() - t0))
    client.close()


def bench_cluster(
    total_elements: int,
    batch: int,
    nodes: int,
    replication: int,
    rounds: int,
) -> Dict[str, object]:
    """Replicated ingest throughput of an N-node consistent-hash cluster.

    Ephemeral nodes (no journals), obs off, same coalescing -- the same
    conditions as the ``scaling`` section, so ``nodes=1, R=1`` is
    directly comparable to ``scaling.by_workers["1"]`` (the same node
    dialled directly) and the gap is the routing layer alone.
    ``elements`` counts *logical* elements; at R=2 every one of them is
    written twice, so the per-node rate already prices the replication
    overhead.
    """
    import multiprocessing

    from repro.cluster import ClusterCoordinator

    ctx = multiprocessing.get_context("spawn")
    best = float("inf")
    elements = 0
    for _ in range(rounds):
        with ClusterCoordinator(
            nodes=nodes,
            replication=replication,
            n_shards=4,
            snapshot_interval_s=None,
            batch_window_s=BATCH_WINDOW_S,
            observability=False,
        ) as coord:
            specs = [
                (s.id, s.host, s.port) for s in coord.manifest.nodes
            ]
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_cluster_driver,
                args=(
                    specs,
                    coord.vnodes,
                    replication,
                    total_elements,
                    batch,
                    child_conn,
                ),
            )
            proc.start()
            child_conn.close()
            status, elements = parent_conn.recv()
            assert status == "ready"
            t0 = time.perf_counter()
            parent_conn.send("go")
            status, _secs = parent_conn.recv()
            assert status == "done"
            elapsed = time.perf_counter() - t0
            proc.join()
        best = min(best, elapsed)
    rate = _rate(elements, best)
    return {
        "nodes": nodes,
        "replication": replication,
        "batch": batch,
        "elements": elements,
        "seconds": round(best, 4),
        "elements_per_s": round(rate),
        "elements_per_s_per_node": round(rate / nodes),
    }


def bench_rebalance(
    total_elements: int, batch: int, rounds: int
) -> Dict[str, object]:
    """Ingest throughput while a node re-syncs in the background.

    Two timed runs of the same 3-node R=2 journal-backed cluster.  Both
    seed half the schedule first (so the victim has real state to lose)
    and time the second half; the ``during_resync`` run additionally
    SIGKILLs the senior owner after the seed, restarts it, and re-syncs
    it on a background thread **while** the timed ingest races it.  The
    ratio prices what recovery steals from the write path -- donors
    serve SYNCPULL snapshots and journal tails out of the same event
    loop that is absorbing the firehose.  Gated at >= 0.8x.
    """
    import threading

    from repro.cluster import ClusterCoordinator

    names = [f"bench/m{i}" for i in range(N_METRICS)]
    schedule = _schedule(total_elements, batch)
    half = len(schedule) // 2
    timed_elements = int(sum(v.size for _, v in schedule[half:]))

    def run_once(with_resync: bool) -> Tuple[float, float]:
        with tempfile.TemporaryDirectory() as tmp:
            with ClusterCoordinator(
                nodes=3,
                replication=2,
                data_dir=tmp,
                n_shards=4,
                snapshot_interval_s=None,
                batch_window_s=BATCH_WINDOW_S,
                observability=False,
            ) as coord:
                with coord.client(
                    send_coalesce_bytes=COALESCE_BYTES
                ) as client:
                    for name in names:
                        client.create(
                            name, kind="fixed", eps=EPSILON, n=DESIGN_N
                        )
                    for metric, values in schedule[:half]:
                        client.ingest_nowait(names[metric], values)
                    client.flush()
                    client.drain()
                    resync_s = 0.0
                    thread = None
                    if with_resync:
                        victim = coord.manifest.ring().owners(
                            names[0], 2
                        )[0]
                        coord.kill_node(victim)
                        coord.poll()
                        client.mark_down(victim)
                        coord.restart_node(victim, resync=False)

                        def _resync() -> None:
                            nonlocal resync_s
                            rt0 = time.perf_counter()
                            # a firehose outruns the default round cap;
                            # convergence comes once ingest tails off
                            coord.resync_node(victim, max_rounds=4096)
                            resync_s = time.perf_counter() - rt0

                        thread = threading.Thread(target=_resync)
                    t0 = time.perf_counter()
                    if thread is not None:
                        thread.start()
                    for metric, values in schedule[half:]:
                        client.ingest_nowait(names[metric], values)
                    client.flush()
                    client.drain()
                    elapsed = time.perf_counter() - t0
                    if thread is not None:
                        thread.join()
                    return elapsed, resync_s

    base_best = float("inf")
    during_best = float("inf")
    resync_s_at_best = 0.0
    for round_i in range(rounds):
        # alternate order round by round, same reasoning as resilience
        order = [False, True] if round_i % 2 == 0 else [True, False]
        for with_resync in order:
            elapsed, resync_s = run_once(with_resync)
            if with_resync and elapsed < during_best:
                during_best = elapsed
                resync_s_at_best = resync_s
            elif not with_resync:
                base_best = min(base_best, elapsed)
    base_rate = _rate(timed_elements, base_best)
    during_rate = _rate(timed_elements, during_best)
    return {
        "nodes": 3,
        "replication": 2,
        "batch": batch,
        "timed_elements": timed_elements,
        "baseline": {
            "seconds": round(base_best, 4),
            "elements_per_s": round(base_rate),
        },
        "during_resync": {
            "seconds": round(during_best, 4),
            "elements_per_s": round(during_rate),
            "resync_seconds": round(resync_s_at_best, 4),
        },
        "throughput_ratio": round(during_rate / base_rate, 3),
        "target_throughput_ratio": 0.8,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced matrix for the CI perf smoke job -- still large "
        "enough (2M elements) that the 1.3x gate is meaningful",
    )
    parser.add_argument("--out", default=OUT_PATH, help="output JSON path")
    args = parser.parse_args(argv)

    if args.quick:
        # the batch window (2 ms/flush) and server setup are fixed
        # costs: below ~2M elements they dominate and the slowdown gate
        # measures the harness, not the protocol
        total, rounds = 2_000_000, 2
        batch_sizes = [4096, 16384]
        shard_counts = [1, 4]
        durable_batch = 4096
        worker_counts = [1, 2]
        scaling_batch = 16384
    else:
        total, rounds = 4_000_000, 3
        batch_sizes = [256, 1024, 4096, 16384, 65536]
        shard_counts = [1, 2, 4, 8]
        durable_batch = 4096
        worker_counts = [1, 2, 4]
        scaling_batch = 16384

    direct = {
        str(b): bench_direct(total, b, rounds) for b in batch_sizes
    }

    service: Dict[str, Dict[str, object]] = {}
    for batch in batch_sizes:
        per_shard = {}
        for shards in shard_counts:
            per_shard[str(shards)] = bench_service(
                total, batch, shards, rounds
            )
        baseline = direct[str(batch)]["elements_per_s"]
        best_shards = max(
            per_shard.values(), key=lambda e: e["elements_per_s"]
        )
        service[str(batch)] = {
            "by_shards": per_shard,
            "best_elements_per_s": best_shards["elements_per_s"],
            "slowdown_vs_direct": round(
                baseline / best_shards["elements_per_s"], 3
            ),
        }

    with tempfile.TemporaryDirectory() as tmp:
        durable = bench_service(
            total, durable_batch, shard_counts[-1], rounds, data_dir=tmp
        )
    durable["slowdown_vs_direct"] = round(
        direct[str(durable_batch)]["elements_per_s"]
        / durable["elements_per_s"],
        3,
    )

    # resilience overhead: identical fault-free workload, tokens on vs
    # off.  The two configs are interleaved round by round and the
    # within-round order alternates -- box throughput drifts on a scale
    # of minutes and the first run after server setup is often the slow
    # one, so either a back-to-back block or a fixed on-then-off order
    # would measure the drift, not the tokens -- and the gate is tight
    # (5%).
    res_rounds = max(rounds, 5)
    tokens_on: Dict[str, object] = {}
    tokens_off: Dict[str, object] = {}
    for round_i in range(res_rounds):
        for idem in ([True, False] if round_i % 2 == 0 else [False, True]):
            result = bench_service(
                total, durable_batch, shard_counts[-1], 1, idempotency=idem
            )
            best = tokens_on if idem else tokens_off
            if not best or result["seconds"] < best["seconds"]:
                best.clear()
                best.update(result)
    overhead_ratio = round(
        tokens_off["elements_per_s"] / tokens_on["elements_per_s"], 3
    )
    resilience = {
        "tokens_on": tokens_on,
        "tokens_off": tokens_off,
        "overhead_ratio": overhead_ratio,
        "target_overhead_ratio": 1.05,
    }

    # windowed ingest tax: identical workload into sliding-window
    # metrics (60s/10s) vs plain fixed metrics.  Interleaved round by
    # round with alternating order, same reasoning as the resilience
    # pair above: the gate is a throughput *ratio* and box drift would
    # otherwise dominate it.
    win_batch = durable_batch
    win_rounds = max(rounds, 3)
    win_on: Dict[str, object] = {}
    win_off: Dict[str, object] = {}
    for round_i in range(win_rounds):
        for use_win in ([True, False] if round_i % 2 == 0 else [False, True]):
            result = bench_service(
                total, win_batch, shard_counts[-1], 1, windowed=use_win
            )
            best = win_on if use_win else win_off
            if not best or result["seconds"] < best["seconds"]:
                best.clear()
                best.update(result)
    windows_ratio = round(
        win_on["elements_per_s"] / win_off["elements_per_s"], 3
    )
    windows = {
        "batch": win_batch,
        "window_s": 60.0,
        "slide_s": 10.0,
        "windowed": win_on,
        "unwindowed": win_off,
        "throughput_ratio": windows_ratio,
        "target_throughput_ratio": 0.7,
    }

    effective_cpus = _effective_cpus()
    by_workers = {
        str(w): bench_scaling(total, scaling_batch, w, rounds)
        for w in worker_counts
    }
    rate_1 = by_workers["1"]["elements_per_s"]
    speedups = {
        str(w): round(by_workers[str(w)]["elements_per_s"] / rate_1, 3)
        for w in worker_counts
    }
    # the >1.6x two-worker gate is meaningless without a second core to
    # run on; record the honest numbers either way and let the gate key
    # off the *effective* affinity, not the hardware inventory
    scaling = {
        "batch": scaling_batch,
        "by_workers": by_workers,
        "speedup_vs_1_worker": speedups,
        "effective_cpus": effective_cpus,
        "gate_applicable": effective_cpus >= 2,
        "target_speedup_at_2_workers": 1.6,
    }

    # the cluster client over the same clusters: nodes=1/R=1 isolates
    # the consistent-hash routing layer against the direct-dial
    # by_workers["1"], and R=2 prices replication (every logical
    # element written twice)
    cluster_configs = (
        [(1, 1), (2, 1), (2, 2)]
        if args.quick
        else [(1, 1), (2, 1), (2, 2), (3, 2)]
    )
    by_cluster = {
        f"{n}x{r}": bench_cluster(total, scaling_batch, n, r, rounds)
        for n, r in cluster_configs
    }
    cluster_ratio = round(
        by_cluster["1x1"]["elements_per_s"] / rate_1, 3
    )
    cluster = {
        "batch": scaling_batch,
        "by_config": by_cluster,
        "per_node_ratio_vs_1_worker": cluster_ratio,
        "target_per_node_ratio": 0.8,
    }

    # recovery tax: ingest throughput with a background re-sync racing
    # the write path on the same 3-node R=2 journal-backed cluster.
    # Like the scaling gate, the 0.8x floor needs a second core: on a
    # 1-core affinity the re-sync thread and the driving client fight
    # for the same GIL and the ratio prices the harness, not recovery.
    rebalance = bench_rebalance(total, scaling_batch, rounds)
    rebalance["gate_applicable"] = effective_cpus >= 2

    gate_batches = [b for b in batch_sizes if b >= 4096]
    report = {
        "meta": {
            "benchmark": "service",
            "quick": args.quick,
            "eps": EPSILON,
            "design_n": DESIGN_N,
            "metrics": N_METRICS,
            "elements": total,
            "rounds": rounds,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "effective_cpus": effective_cpus,
        },
        "direct": direct,
        "service": service,
        "durable": durable,
        "resilience": resilience,
        "windows": windows,
        "scaling": scaling,
        "cluster": cluster,
        "rebalance": rebalance,
        "targets": {
            "max_slowdown_at_4096_plus": max(
                service[str(b)]["slowdown_vs_direct"] for b in gate_batches
            ),
            "target_slowdown": 1.3,
            "scaling_speedup_at_2_workers": speedups.get("2"),
            "scaling_gate_applicable": scaling["gate_applicable"],
            "target_speedup_at_2_workers": 1.6,
            "cluster_per_node_ratio_at_1x1": cluster_ratio,
            "target_cluster_per_node_ratio": 0.8,
            "rebalance_throughput_ratio": rebalance["throughput_ratio"],
            "rebalance_gate_applicable": rebalance["gate_applicable"],
            "target_rebalance_throughput_ratio": 0.8,
            "windowed_ingest_ratio": windows_ratio,
            "target_windowed_ingest_ratio": 0.7,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    for batch in batch_sizes:
        entry = service[str(batch)]
        print(
            f"batch {batch:>6}: direct "
            f"{direct[str(batch)]['elements_per_s']:>12,} el/s, "
            f"service best {entry['best_elements_per_s']:>12,} el/s "
            f"({entry['slowdown_vs_direct']}x slower)"
        )
    print(
        f"durable (journal on, batch {durable_batch}): "
        f"{durable['elements_per_s']:,} el/s "
        f"({durable['slowdown_vs_direct']}x slower than direct)"
    )
    print(
        f"resilience (batch {durable_batch}): tokens on "
        f"{tokens_on['elements_per_s']:,} el/s, off "
        f"{tokens_off['elements_per_s']:,} el/s "
        f"({overhead_ratio}x overhead, target <= 1.05x)"
    )
    print(
        f"windows (batch {win_batch}, 60s/10s sliding): windowed "
        f"{win_on['elements_per_s']:,} el/s, plain "
        f"{win_off['elements_per_s']:,} el/s "
        f"({windows_ratio}x, target >= 0.7x)"
    )
    for w in worker_counts:
        entry = by_workers[str(w)]
        print(
            f"scaling {w} worker(s): {entry['elements_per_s']:>12,} el/s "
            f"({speedups[str(w)]}x vs 1 worker)"
        )
    applicable = (
        "applies" if scaling["gate_applicable"]
        else f"not applicable (affinity={effective_cpus} core)"
    )
    print(
        f"scaling gate (>1.6x at 2 workers): {applicable}"
    )
    for key, entry in by_cluster.items():
        print(
            f"cluster {key} (nodes x R): "
            f"{entry['elements_per_s']:>12,} el/s "
            f"({entry['elements_per_s_per_node']:,} per node)"
        )
    print(
        f"cluster gate: 1x1 reaches {cluster_ratio}x of the 1-node "
        f"direct-dial rate (target >= 0.8x)"
    )
    print(
        f"rebalance (3x2, batch {scaling_batch}): baseline "
        f"{rebalance['baseline']['elements_per_s']:,} el/s, during "
        f"re-sync {rebalance['during_resync']['elements_per_s']:,} el/s "
        f"({rebalance['throughput_ratio']}x, target >= 0.8x; re-sync "
        f"took {rebalance['during_resync']['resync_seconds']}s)"
    )
    print(
        f"gate: worst slowdown at batch >= 4096 is "
        f"{report['targets']['max_slowdown_at_4096_plus']}x "
        f"(target <= 1.3x)"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
