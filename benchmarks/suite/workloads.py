"""The suite's four workloads, each driven against real server processes.

A workload makes its inputs from the seed alone (a value pool cut into
batch-sized slices, plus metric choices), sets up fresh servers on a
fresh data dir, drives them for its timed phase from this single thread
over at most two connections, and afterwards checks every answer it
collected against an exact oracle (:mod:`oracle`).  The servers only
ever see the generated frames.

``firehose``   the bulk path: few paper metrics, big pipelined batches.
``fleet``      many small sketches of all three engines, Zipf-hot.
``dashboard``  open-loop windowed ingest with queries beside it.
``cluster``    two replicated nodes; ring routing and section 4.9 fan-in.

A timed phase is cut into blocks and the suite reports the median
block, so a few seconds of a slow host move one block, not the run.  A
closed-loop block is a fixed amount of work: a fixed number of
pipelined batches, a barrier until the servers have applied all of
them, then a fixed number of queries.  Every block thus drains the same
backlog -- which matters, because how much a shard applies at once sets
its cost (a Frugal-2U apply loops once per element of its longest run).
``--seconds`` sets how many blocks run, from each workload's nominal
block duration on the reference machine: the work, and so the state the
servers end with, is the same however fast the host runs.  The
open-loop dashboard runs continuously for ``--seconds`` and is cut into
blocks by due time.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from oracle import RankTable, SlicedPool, lognormal_pool
from servers import ServerProc

from repro.cluster import ClusterClient
from repro.cluster.manifest import ClusterManifest, NodeSpec
from repro.service import QuantileClient

EPS = 0.01
PHIS = (0.5, 0.9, 0.99)
#: blocks the open-loop dashboard is cut into
BLOCKS = 10
#: the client half of the service's coalescing fast path: pipelined
#: ingest ships framed batches in one sendmsg per 128 KiB
COALESCE_BYTES = 128 * 1024
#: KLL's certified bound holds per query with probability 1 - delta;
#: this share of KLL metrics may miss it before the run counts a failure
KLL_DELTA = 0.01
#: alert states a WATCH rule may report (see repro.service.rules)
ALERT_STATES = {"ok", "possible", "definite", "no_data", "no_metric", "pending"}


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; ``--smoke`` shrinks them about fiftyfold."""

    seconds: float
    setups: int
    pool_size: int
    fleet_metrics: int
    #: the dashboard's untimed lead-in; at full size one whole window,
    #: so every timed query merges a full ring of buckets
    warmup_s: float
    #: divides the batches and queries of one closed-loop block
    block_divisor: int

    @classmethod
    def of(cls, seconds: float, smoke: bool) -> "Scale":
        if smoke:
            return cls(max(seconds / 50, 0.3), 1, 1 << 16, 120, 0.2, 16)
        return cls(float(seconds), 3, 1 << 20, 6_000, Dashboard.window_s, 1)


@dataclass
class Phase:
    """What one timed phase measured."""

    elements: int = 0  #: logical elements ingested and applied
    block_rates: List[float] = field(default_factory=list)  #: elements/s
    #: server CPU nanoseconds per element, all servers summed
    block_cpu_ns: List[float] = field(default_factory=list)
    block_p50s_s: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    #: open loop only: how late the generator sent each request
    lags_s: List[float] = field(default_factory=list)
    #: (key, answer, batches sent before it); the key names the metric
    answers: List[Tuple[Any, Any, int]] = field(default_factory=list)


class Checker:
    """Counts operations and the ones whose outcome was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, good: bool, what: str) -> bool:
        self.attempted += 1
        if not good:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return good


def bounded(
    table: RankTable,
    phis: Sequence[float],
    values: Sequence[float],
    bound: float,
    n: int,
) -> bool:
    """Counts exact and every answer within the certified rank bound."""
    return n == table.n and all(
        table.rank_error(phi, v) <= bound for phi, v in zip(phis, values)
    )


class Session:
    """One set-up of a workload: its servers and generator connections."""

    def __init__(self, base_dir: str, trace_dir: Optional[str]) -> None:
        self.base_dir = base_dir
        self.trace_dir = trace_dir
        self.servers: List[ServerProc] = []
        self.closeables: List[Any] = []
        os.makedirs(base_dir, exist_ok=True)

    def spawn(self, workload: str, count: int) -> List[ServerProc]:
        """Start *count* servers at once, then wait until all listen."""
        started = []
        for i in range(count):
            node = f"n{i}"
            srv = ServerProc(
                f"{workload}-{node}",
                os.path.join(self.base_dir, node),
                os.path.join(self.base_dir, f"{node}.log"),
                self.trace_dir,
            )
            self.servers.append(srv)
            started.append(srv)
        for srv in started:
            srv.wait_ready()
        return started

    def server_cpu_s(self) -> float:
        return sum(srv.cpu_s() for srv in self.servers)

    def client(self, port: int, **kwargs: Any) -> QuantileClient:
        c = QuantileClient("127.0.0.1", port, **kwargs)
        self.closeables.append(c)
        return c

    def close(self, *, kill: bool = False) -> None:
        """Close the connections and stop every server; raise if one had
        to be killed after SIGTERM (its exit-time trace files are lost)."""
        for c in self.closeables:
            c.close()
        self.closeables = []
        killed = [srv.name for srv in self.servers if not srv.stop(kill=kill)]
        if killed:
            raise RuntimeError(f"servers killed after SIGTERM: {killed}")


class Workload:
    """Inputs from the seed; set-up, timed drive and oracle check."""

    name = ""
    #: the user-facing timing the traced run compares with the plain one
    primary = "ingest_elems_per_s"
    batch = 0

    def __init__(self, seed: int, scale: Scale) -> None:
        self.scale = scale
        self.rng = np.random.default_rng([seed, WORKLOAD_IDS[self.name]])
        self.pool = SlicedPool(
            lognormal_pool(self.rng, scale.pool_size), self.batch
        )
        self.batches = 0  #: batches sent by the last drive

    def setup(self, s: Session, chk: Checker) -> None:
        raise NotImplementedError

    def drive(self, s: Session, seconds: float) -> Phase:
        raise NotImplementedError

    def verify(self, s: Session, phase: Phase, chk: Checker) -> None:
        raise NotImplementedError

    def stats_clients(self, s: Session) -> List[QuantileClient]:
        """One open connection per server, for the traced run's STATS."""
        return [s.closeables[0]]


class ClosedLoop(Workload):
    """Fixed blocks: pipelined batches, an apply barrier, then queries."""

    #: batches and queries in one block
    block_batches = 0
    block_queries = 0
    #: a block's duration on the reference machine (see README)
    block_s = 1.0

    def connection(self, s: Session) -> Any:
        """The QuantileClient or ClusterClient the blocks drive."""
        return s.closeables[0]

    def start(self) -> None:
        """Reset per-drive input state (every drive replays the inputs)."""

    def next_batch(self, j: int) -> Tuple[str, np.ndarray]:
        raise NotImplementedError

    def query(self, c: Any, i: int) -> Tuple[Any, Any]:
        """Query number *i* of the drive: ``(key, answer)``."""
        raise NotImplementedError

    def before_queries(self, batches: int) -> None:
        """Called after each block's barrier, before its queries."""

    def drive(self, s: Session, seconds: float) -> Phase:
        c = self.connection(s)
        self.start()
        clock = time.perf_counter
        n_batches = max(1, self.block_batches // self.scale.block_divisor)
        n_queries = max(1, self.block_queries // self.scale.block_divisor)
        # a slow host ends the phase early rather than overrunning it
        give_up = clock() + 2 * seconds
        phase = Phase()
        j = i = 0
        for _ in range(max(1, round(seconds / self.block_s))):
            cpu0 = s.server_cpu_s()
            t0 = clock()
            for _ in range(n_batches):
                c.ingest_nowait(*self.next_batch(j))
                j += 1
            c.flush()
            c.drain()
            phase.block_rates.append(n_batches * self.batch / (clock() - t0))
            self.before_queries(j)
            latencies = []
            for _ in range(n_queries):
                t = clock()
                key, answer = self.query(c, i)
                latencies.append(clock() - t)
                phase.answers.append((key, answer, j))
                i += 1
            phase.latencies_s += latencies
            phase.block_p50s_s.append(statistics.median(latencies))
            phase.block_cpu_ns.append(
                (s.server_cpu_s() - cpu0) * 1e9 / (n_batches * self.batch)
            )
            if clock() >= give_up:
                break
        self.batches = j
        phase.elements = j * self.batch
        return phase


class RoundRobin(ClosedLoop):
    """Batch j goes to metric ``j % n_metrics`` with pool slice
    ``j % n_slices``."""

    n_metrics = 0

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.names = [f"{self.name}/m{i}" for i in range(self.n_metrics)]

    def next_batch(self, j: int) -> Tuple[str, np.ndarray]:
        return (
            self.names[j % self.n_metrics],
            self.pool.slices[j % self.pool.n_slices],
        )

    def table(self, metric: Optional[int], batches: int) -> RankTable:
        """Exact table of *metric* after *batches* batches; ``None`` is
        the union of all metrics."""
        j = np.arange(batches)
        if metric is not None:
            j = j[j % self.n_metrics == metric]
        return self.pool.table(self.pool.slice_counts(j % self.pool.n_slices))


class Firehose(RoundRobin):
    name = "firehose"
    batch = 4096
    block_batches = 2048
    block_queries = 512
    block_s = 1.25
    n_metrics = 8
    design_n = 1 << 27

    def setup(self, s: Session, chk: Checker) -> None:
        (srv,) = s.spawn(self.name, 1)
        c = s.client(srv.port, send_coalesce_bytes=COALESCE_BYTES)
        for name in self.names:
            c.create(name, kind="fixed", eps=EPS, n=self.design_n)
        chk.ok(len(self.names))

    def query(self, c: Any, i: int) -> Tuple[Any, Any]:
        metric = i % self.n_metrics
        return metric, c.query(self.names[metric], PHIS)

    def verify(self, s: Session, phase: Phase, chk: Checker) -> None:
        chk.ok(self.batches)
        verdicts: Dict[Tuple[Any, ...], bool] = {}
        for metric, (values, bound, n), sent in phase.answers:
            key = (metric, sent, tuple(values), bound, n)
            if key not in verdicts:
                verdicts[key] = bounded(
                    self.table(metric, sent), PHIS, values, bound, n
                )
            chk.check(verdicts[key], f"{self.names[metric]}: {key}")


class Fleet(ClosedLoop):
    name = "fleet"
    batch = 64
    block_batches = 8192
    block_queries = 1024
    block_s = 2.0
    zipf_s = 1.1
    paper_n = 10_000_000
    _chunk = 1 << 16

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        third = scale.fleet_metrics // 3
        engines = ("paper", "kll", "frugal")
        self.engines = [eng for eng in engines for _ in range(third)]
        self.names = [f"fleet/{eng}/{i}" for eng in engines for i in range(third)]
        weights = np.arange(1, len(self.names) + 1, dtype=np.float64)
        weights **= -self.zipf_s
        self._cdf = np.cumsum(weights / weights.sum())
        # Zipf rank r is metric r // 3 of engine r % 3, the same for every
        # seed: names hash onto shards, and which metrics share a shard's
        # bank moves throughput far more than the seed's draws do
        ranks = np.arange(len(self.names))
        self._metric_of_rank = (ranks % 3) * third + ranks // 3
        self._drive_seeds = self.rng.integers(1 << 62, size=2)

    def setup(self, s: Session, chk: Checker) -> None:
        (srv,) = s.spawn(self.name, 1)
        c = s.client(srv.port, send_coalesce_bytes=COALESCE_BYTES)
        for name, eng in zip(self.names, self.engines):
            n = self.paper_n if eng == "paper" else None
            c.create(name, kind="fixed", eps=EPS, n=n, engine=eng)
        chk.ok(len(self.names))

    def start(self) -> None:
        self._id_rng, self._pick_rng = (
            np.random.default_rng(seed) for seed in self._drive_seeds
        )
        self.metric_ids: List[int] = []
        self._picks: List[int] = []
        self._next_pick = 0

    def next_batch(self, j: int) -> Tuple[str, np.ndarray]:
        ids = self.metric_ids
        if j == len(ids):
            u = self._id_rng.random(self._chunk)
            ranks = np.minimum(
                np.searchsorted(self._cdf, u), len(self.names) - 1
            )
            ids += self._metric_of_rank[ranks].tolist()
        return self.names[ids[j]], self.pool.slices[j % self.pool.n_slices]

    def before_queries(self, batches: int) -> None:
        # each block queries metrics chosen uniformly among those with data
        counts = np.bincount(self.metric_ids[:batches], minlength=len(self.names))
        self._picks = self._pick_rng.choice(
            np.flatnonzero(counts), size=self._chunk
        ).tolist()
        self._next_pick = 0

    def query(self, c: Any, i: int) -> Tuple[Any, Any]:
        metric = self._picks[self._next_pick]
        self._next_pick += 1
        return metric, c.query(self.names[metric], PHIS)

    def verify(self, s: Session, phase: Phase, chk: Checker) -> None:
        c = s.closeables[0]
        chk.ok(self.batches)
        ids = np.asarray(self.metric_ids[: self.batches])
        expected = np.bincount(ids, minlength=len(self.names)) * self.batch
        index = {name: i for i, name in enumerate(self.names)}
        for entry in c.list_metrics():
            want = int(expected[index[entry["name"]]])
            chk.check(
                entry["n"] == want,
                f"{entry['name']}: n={entry['n']}, expected {want}",
            )
        # batch indices of each metric, ascending
        order = np.argsort(ids, kind="stable")
        starts = np.concatenate([[0], np.cumsum(expected // self.batch)])
        tables: Dict[Tuple[int, int], RankTable] = {}
        kll_missed: set = set()
        kll_seen: set = set()
        for metric, (values, bound, n), sent in phase.answers:
            eng = self.engines[metric]
            what = f"{self.names[metric]}: {values} bound={bound} n={n}"
            mine = order[starts[metric] : starts[metric + 1]]
            mine = mine[mine < sent]
            finite = all(math.isfinite(v) for v in values)
            if eng == "frugal":
                chk.check(finite and n == mine.size * self.batch, what)
                continue
            key = (metric, mine.size)
            if key not in tables:
                tables[key] = RankTable.of(
                    self.pool.slices[mine % self.pool.n_slices].ravel()
                )
            good = finite and bounded(tables[key], PHIS, values, bound, n)
            if eng == "paper":
                chk.check(good, what)
                continue
            chk.ok()
            kll_seen.add(metric)
            if not good:
                kll_missed.add(metric)
        if kll_seen:
            chk.check(
                len(kll_missed) <= KLL_DELTA * len(kll_seen),
                f"kll: {len(kll_missed)}/{len(kll_seen)} metrics missed "
                f"their bound (allowed share {KLL_DELTA})",
            )


class Cluster(RoundRobin):
    name = "cluster"
    batch = 16384
    block_batches = 512
    block_queries = 24
    block_s = 1.3
    n_nodes = 2
    replication = 2
    n_metrics = 16
    design_n = 1 << 27
    merged_phis = (0.5, 0.99)

    def setup(self, s: Session, chk: Checker) -> None:
        nodes = s.spawn(self.name, self.n_nodes)
        manifest = ClusterManifest(
            nodes=[
                NodeSpec(id=f"n{i}", host="127.0.0.1", port=srv.port)
                for i, srv in enumerate(nodes)
            ],
            replication=self.replication,
        )
        path = os.path.join(s.base_dir, "cluster.json")
        manifest.save(path)
        cc = ClusterClient(path, send_coalesce_bytes=COALESCE_BYTES)
        s.closeables.append(cc)
        for name in self.names:
            cc.create(name, kind="fixed", eps=EPS, n=self.design_n)
        chk.ok(len(self.names))

    def stats_clients(self, s: Session) -> List[QuantileClient]:
        cc = s.closeables[0]
        return [cc.node_client(f"n{i}") for i in range(self.n_nodes)]

    def query(self, c: Any, i: int) -> Tuple[Any, Any]:
        return None, c.query_merged(self.names, self.merged_phis)

    def verify(self, s: Session, phase: Phase, chk: Checker) -> None:
        cc = s.closeables[0]
        chk.ok(self.batches)
        for metric, name in enumerate(self.names):
            values, bound, n = cc.query(name, PHIS)
            chk.check(
                bounded(self.table(metric, self.batches), PHIS, values, bound, n),
                f"{name}: {values} bound={bound} n={n}",
            )
            payloads = [p for _, p in cc.fetch_replicas(name)]
            chk.check(
                len(payloads) == self.replication
                and all(p == payloads[0] for p in payloads),
                f"{name}: replica FETCH bytes differ",
            )
        verdicts: Dict[Tuple[Any, ...], bool] = {}
        for _key, (values, bound, n), sent in phase.answers:
            key = (sent, tuple(values), bound, n)
            if key not in verdicts:
                verdicts[key] = bounded(
                    self.table(None, sent), self.merged_phis, values, bound, n
                )
            chk.check(verdicts[key], f"merged: {key}")


class Dashboard(Workload):
    name = "dashboard"
    primary = "query_p50_ms"
    batch = 1024
    n_metrics = 64
    rate = 2_000_000.0
    qps = 100.0
    window_s = 10.0
    slide_s = 2.0
    n_rules = 8
    design_n = 1 << 22
    #: flush ingest acks once this many are outstanding
    ack_every = 1024

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.names = [f"dashboard/m{i}" for i in range(self.n_metrics)]
        p99 = float(np.quantile(self.pool.pool, 0.99))
        # even rules sit below the pool's p99 and fire; odd ones do not
        self.rules = [
            (
                f"dashboard/p99-{i}",
                self.names[i],
                p99 * (0.5 if i % 2 == 0 else 2.0),
            )
            for i in range(self.n_rules)
        ]
        self._query_metrics = self.rng.integers(
            self.n_metrics, size=1 << 16
        ).tolist()

    def setup(self, s: Session, chk: Checker) -> None:
        (srv,) = s.spawn(self.name, 1)
        ingest = s.client(srv.port)
        query = s.client(srv.port)
        for name in self.names:
            ingest.create(
                name, kind="fixed", eps=EPS, n=self.design_n,
                window=self.window_s, slide=self.slide_s,
            )
        for rule_id, metric, threshold in self.rules:
            query.watch_add(rule_id, metric, 0.99, threshold, op=">")
        chk.ok(len(self.names) + len(self.rules))

    def stats_clients(self, s: Session) -> List[QuantileClient]:
        return [s.closeables[1]]

    def drive(self, s: Session, seconds: float) -> Phase:
        ingest, query = s.closeables
        names, slices = self.names, self.pool.slices
        m, n_slices = self.n_metrics, self.pool.n_slices
        picks = self._query_metrics
        clock = time.perf_counter
        dt_ingest = self.batch / self.rate
        dt_query = 1.0 / self.qps
        # one acknowledged batch per metric first: no query finds a
        # metric empty, whichever connection the server reads first
        for j in range(m):
            ingest.ingest_nowait(names[j], slices[j % n_slices])
        ingest.flush()
        start = clock()
        measure_from = start + self.scale.warmup_s
        end = measure_from + seconds
        next_ingest = next_query = start
        j, q = m, 0
        j_first = None
        phase = Phase()
        blocks: List[List[float]] = [[] for _ in range(BLOCKS)]
        # (server CPU, batches sent) at each block edge
        edges: List[Tuple[float, int]] = []
        next_edge = measure_from
        while True:
            now = clock()
            if now >= end:
                break
            if now >= next_edge:
                edges.append((s.server_cpu_s(), j))
                next_edge += seconds / BLOCKS
            while next_ingest <= now:
                if j_first is None and next_ingest >= measure_from:
                    j_first = j
                ingest.ingest_nowait(names[j % m], slices[j % n_slices])
                j += 1
                next_ingest += dt_ingest
            if ingest.outstanding >= self.ack_every:
                ingest.flush()
            if next_query <= clock():
                due = next_query
                next_query += dt_query
                metric = picks[q]
                q += 1
                sent = clock()
                answer = query.query(names[metric], PHIS)
                done = clock()
                if due >= measure_from:
                    block = int((due - measure_from) / seconds * BLOCKS)
                    blocks[min(block, BLOCKS - 1)].append(done - due)
                    phase.latencies_s.append(done - due)
                    phase.lags_s.append(sent - due)
                    phase.answers.append((metric, answer, j))
                continue
            wait = min(next_ingest, next_query) - clock()
            if wait > 0:
                time.sleep(wait)
        edges.append((s.server_cpu_s(), j))
        phase.block_cpu_ns = [
            (c1 - c0) * 1e9 / ((j1 - j0) * self.batch)
            for (c0, j0), (c1, j1) in zip(edges, edges[1:])
            if j1 > j0
        ]
        ingest.flush()
        ingest.drain()
        self.batches = j
        phase.elements = (j - (j_first or j)) * self.batch
        phase.block_rates.append(phase.elements / (clock() - measure_from))
        phase.block_p50s_s = [statistics.median(b) for b in blocks if b]
        return phase

    def verify(self, s: Session, phase: Phase, chk: Checker) -> None:
        chk.ok(self.batches)
        for metric, (values, _bound, n), _sent in phase.answers:
            chk.check(
                n > 0
                and all(math.isfinite(v) for v in values)
                and all(a <= b for a, b in zip(values, values[1:])),
                f"{self.names[metric]}: {values} n={n}",
            )
        alerts = s.closeables[1].alerts()
        chk.check(
            sorted(a["rule_id"] for a in alerts)
            == sorted(r[0] for r in self.rules)
            and all(a["state"] in ALERT_STATES for a in alerts),
            f"ALERTS listed {[(a['rule_id'], a['state']) for a in alerts]}",
        )


WORKLOADS = {w.name: w for w in (Firehose, Fleet, Dashboard, Cluster)}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
