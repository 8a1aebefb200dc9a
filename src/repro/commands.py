"""The full command line of ``python -m repro``: every verb but ``serve``.

:func:`repro.cli.main` imports this module for every command line except
``repro serve ...``, which it parses and runs without it (see
:mod:`repro.cli`).  The verbs cover the library's day-to-day uses
without writing code:

``plan``
    Print the optimal configuration for a target ``(epsilon, N)`` --
    which policy, how many buffers, how much memory, whether sampling
    would be cheaper at some confidence.

``generate``
    Write a synthetic stream (any of the workload generators) to the
    library's binary stream format.

``quantile``
    One pass over a binary stream file; print epsilon-approximate
    quantiles with the certified error bound.

``histogram``
    One pass; print equi-depth bucket boundaries (equivalently:
    splitters for value-range partitioning).

``describe``
    One pass; print a five-number-summary-style distribution report
    with certified accuracy.

``serve``
    Run the quantile-sketch service (:mod:`repro.service`) in the
    foreground: live ingest over TCP, periodic snapshots, journal
    crash recovery.  Its handler and arguments live in :mod:`repro.cli`;
    this module lists it in the full parser.

``client``
    Talk to a running server from the shell: create metrics, ingest
    values (from arguments or stdin), query quantiles/CDF, list
    metrics, dump stats, force snapshots.

``stats``
    Live observability view of a running server: per-shard ingest and
    collapse-by-level counters, per-metric certified epsilon*N, and the
    self-metered per-op latency percentiles.  ``--watch`` refreshes in
    place; ``--prom`` prints the Prometheus exposition instead.

``watch``
    Manage the server's declarative alert rules: ``watch add`` registers
    "alert when the phi-quantile of METRIC crosses THRESHOLD" (evaluated
    server-side on the scheduler tick, with certified
    definite/possible severities), ``watch rm`` drops a rule,
    ``watch ls`` prints every rule with its last evaluation state and
    cumulative fire counters.  Exit codes follow the client convention:
    0 ok, 2 connection failure, 3 timeout.

``cluster``
    The multi-node layer (:mod:`repro.cluster`): ``cluster serve``
    launches and supervises N server processes with a consistent-hash
    manifest, ``cluster status`` probes every node in a manifest
    (``--prom`` for scrapers; exit 0 all up / 4 re-syncing / 1 down),
    ``cluster client`` routes create/ingest/query/merge across the
    ring with replication and failover, and the membership verbs --
    ``cluster resync``, ``cluster add-node``, ``cluster remove-node``
    -- drive the re-sync/rebalance protocol against externally managed
    node processes (see docs/cluster.md).

``quantile`` and ``describe`` accept ``-`` as the input path to read
whitespace-separated values from stdin, so they compose with shell
pipelines.  The offline commands are pure and deterministic given
``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List

from .cli import (
    _HEALTH_INTERVAL_S,
    SERVE_DESCRIPTION,
    SERVE_HELP,
    _run_cluster,
    _service_kwargs,
    add_serve_arguments,
)
from .core.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

    from .core.sketch import QuantileSketch

__all__ = ["build_parser"]

#: ``generate --kind`` -> (:mod:`repro.streams` generator, takes ``seed=``)
_GENERATORS = {
    "sorted": ("sorted_stream", False),
    "reverse": ("reverse_sorted_stream", False),
    "random": ("random_permutation_stream", True),
    "uniform": ("uniform_stream", True),
    "normal": ("normal_stream", True),
    "zipf": ("zipf_stream", True),
    "clustered": ("clustered_stream", True),
    "alternating": ("alternating_extremes_stream", False),
}


def _cmd_plan(args: argparse.Namespace) -> int:
    from .analysis import format_memory
    from .core.parameters import optimal_parameters
    from .core.sampling import (
        SamplingPlan,
        choose_strategy,
        optimize_alpha,
        sampling_threshold,
    )

    for policy in ("new", "munro-paterson", "alsabti-ranka-singh"):
        plan = optimal_parameters(args.epsilon, args.n, policy=policy)
        h = f", h={plan.height}" if plan.height is not None else ""
        print(
            f"{policy:<21} b={plan.b:<6} k={plan.k:<8} "
            f"bk={format_memory(plan.memory)}{h}"
        )
    if args.delta is not None:
        chosen = choose_strategy(args.epsilon, args.n, args.delta)
        sampled = optimize_alpha(args.epsilon, args.delta)
        threshold = sampling_threshold(args.epsilon, args.delta)
        print(
            f"\nsampling (delta={args.delta:g}): "
            f"S={sampled.sample_size}, b={sampled.b}, k={sampled.k}, "
            f"bk={format_memory(sampled.memory)}"
        )
        print(f"sampling pays off above N ~ {threshold:.3e}")
        mode = "sampling" if isinstance(chosen, SamplingPlan) else "direct"
        print(f"recommended for N={args.n}: {mode}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from . import streams

    generator, seeded = _GENERATORS[args.kind]
    make = getattr(streams, generator)
    stream = make(args.n, seed=args.seed) if seeded else make(args.n)
    n = streams.write_stream(args.output, stream.chunks())
    print(f"wrote {n} elements ({args.kind}) to {args.output}")
    return 0


class _StdinStream:
    """Adapter giving stdin values the same (n, chunks) shape as FileStream."""

    def __init__(self, values: "np.ndarray") -> None:
        self._values = values
        self.n = int(values.size)

    def chunks(self):
        if self.n:
            yield self._values


def _open_stream(path: str):
    """Open *path* as a value stream; ``-`` reads floats from stdin."""
    if path != "-":
        from .streams import FileStream

        return FileStream(path)
    import numpy as np

    tokens = sys.stdin.read().split()
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise ConfigurationError(f"stdin is not numbers: {exc}") from None
    if values.size and not np.all(np.isfinite(values)):
        raise ConfigurationError("stdin values must be finite")
    return _StdinStream(values)


def _build_sketch(args: argparse.Namespace, n: int) -> QuantileSketch:
    from .core.sketch import QuantileSketch

    return QuantileSketch(
        epsilon=args.epsilon,
        n=n,
        delta=getattr(args, "delta", None),
        seed=getattr(args, "seed", None),
    )


def _cmd_quantile(args: argparse.Namespace) -> int:
    from .analysis import format_memory

    stream = _open_stream(args.input)
    if stream.n == 0:
        print("error: stream is empty", file=sys.stderr)
        return 1
    sketch = _build_sketch(args, stream.n)
    for chunk in stream.chunks():
        sketch.extend(chunk)
    mode = "sampling" if sketch.uses_sampling else "deterministic"
    print(
        f"n={stream.n}, mode={mode}, "
        f"memory={format_memory(sketch.memory_elements)} elements"
    )
    values = sketch.quantiles(args.phi)
    for phi, value in zip(args.phi, values):
        print(f"phi={phi:g}: {float(value):g}")
    print(f"certified rank bound: {sketch.error_bound_fraction():.6f} * n")
    return 0


def _cmd_histogram(args: argparse.Namespace) -> int:
    from .streams import FileStream

    stream = FileStream(args.input)
    if stream.n == 0:
        print("error: stream is empty", file=sys.stderr)
        return 1
    sketch = _build_sketch(args, stream.n)
    for chunk in stream.chunks():
        sketch.extend(chunk)
    boundaries = sorted(
        float(v) for v in sketch.equidepth_boundaries(args.buckets)
    )
    print(
        f"{args.buckets} equi-depth buckets over {stream.n} elements "
        f"(~{stream.n / args.buckets:.0f} each, boundary eps={args.epsilon})"
    )
    for i, b in enumerate(boundaries, start=1):
        print(f"  {i / args.buckets:6.3f}-quantile  {b:g}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from .analysis import describe

    stream = _open_stream(args.input)
    if stream.n == 0:
        print("error: stream is empty", file=sys.stderr)
        return 1
    report = describe(stream.chunks(), epsilon=args.epsilon, n=stream.n)
    print(report)
    return 0


def _client_values(args: argparse.Namespace) -> "object":
    import numpy as np

    if args.values == ["-"]:
        tokens = sys.stdin.read().split()
    else:
        tokens = args.values
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise ConfigurationError(f"values are not numbers: {exc}") from None
    return values


def _default_kind(args: argparse.Namespace) -> str:
    """The kind of both ``create`` verbs when ``--kind`` is not given:
    fixed whenever ``--n`` is (a designed N sizes a fixed metric, as in
    ``repro.Sketch(n=...)``), for non-paper engines (their own knobs
    size the sketch) and for windowed/decayed metrics; otherwise the
    paper engine is adaptive."""
    windowed = args.window is not None or args.decay is not None
    plain = args.engine == "paper" and not windowed and args.n is None
    return "adaptive" if plain else "fixed"


def _print_quantiles(phis: List[float], values: List[float]) -> None:
    for phi, value in zip(phis, values):
        print(f"phi={phi:g}: {value:g}")


def _client_answer(client, args: argparse.Namespace) -> None:
    """The actions both client verbs answer alike -- create, query,
    cdf, stats, drain -- on a ``QuantileClient`` or a ``ClusterClient``."""
    import json

    if args.action == "create":
        created = client.create(
            args.name,
            kind=args.kind or _default_kind(args),
            eps=args.epsilon,
            n=args.n,
            policy=args.policy,
            engine=args.engine,
            window=args.window,
            slide=args.slide,
            decay=args.decay,
        )
        print("created" if created else "exists")
    elif args.action == "query":
        values, bound, n = client.query(args.name, args.phi)
        _print_quantiles(args.phi, values)
        print(f"n={n}, certified rank bound: {bound:g} elements")
    elif args.action == "cdf":
        body = client.cdf(args.name, args.value)
        print(
            f"rank(x <= {args.value:g}) ~ {body['rank']} of {body['n']} "
            f"({body['fraction']:.6f}), "
            f"certified bound {body['error_bound']:g} elements"
        )
    elif args.action == "stats":
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
    elif args.action == "drain":
        print(f"drained through seq {client.drain()}")


def _cmd_client(args: argparse.Namespace) -> int:
    from .service import QuantileClient

    with QuantileClient(
        args.host,
        args.port,
        timeout=args.timeout,
        max_retries=args.retries,
    ) as client:
        if args.action == "ingest":
            values = _client_values(args)
            seq = client.ingest(args.name, values)
            print(f"ingested {values.size} values (journal seq {seq})")
        elif args.action == "list":
            for metric in client.list_metrics():
                time_cfg = ""
                if metric.get("window_s"):
                    time_cfg = (
                        f" window={metric['window_s']:g}s"
                        f"/{metric['slide_s'] or metric['window_s']:g}s"
                    )
                elif metric.get("decay_s"):
                    time_cfg = f" decay={metric['decay_s']:g}s"
                print(
                    f"{metric['name']:<32} {metric['kind']:<9} "
                    f"n={metric['n']:<12} shard={metric['shard']} "
                    f"memory={metric['memory_elements']} elements"
                    f"{time_cfg}"
                )
        elif args.action == "snapshot":
            seq, path = client.snapshot()
            print(f"snapshot at seq {seq}: {path}")
        else:
            _client_answer(client, args)
    return 0


#: shell-friendly spellings of the rule comparison operators
_WATCH_OPS = {">": ">", "<": "<", "gt": ">", "lt": "<"}


def _cmd_watch(args: argparse.Namespace) -> int:
    import json

    from .service import QuantileClient

    with QuantileClient(
        args.host,
        args.port,
        timeout=args.timeout,
        max_retries=args.retries,
    ) as client:
        if args.watch_command == "add":
            added = client.watch_add(
                args.rule_id,
                args.metric,
                args.phi,
                args.threshold,
                op=_WATCH_OPS[args.op],
            )
            print("added" if added else "exists")
        elif args.watch_command == "rm":
            removed = client.watch_remove(args.rule_id)
            print("removed" if removed else "no such rule")
        elif args.watch_command == "ls":
            alerts = client.alerts(evaluate=args.evaluate)
            if args.json:
                print(json.dumps(alerts, indent=2, sort_keys=True))
            else:
                for a in alerts:
                    value = (
                        f"{a['last_value']:g}"
                        if a["last_value"] is not None
                        else "-"
                    )
                    print(
                        f"{a['rule_id']:<24} "
                        f"q{a['phi']:g}({a['metric']}) {a['op']} "
                        f"{a['threshold']:g}  state={a['state']:<9} "
                        f"value={value:<12} "
                        f"fired definite={a['definite_total']} "
                        f"possible={a['possible_total']}"
                    )
    return 0


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    from .cluster import ClusterCoordinator

    return _run_cluster(
        ClusterCoordinator(
            nodes=args.nodes,
            replication=args.replication,
            host=args.host,
            base_port=args.base_port,
            data_dir=args.data_dir,
            vnodes=args.vnodes,
            health_interval_s=(
                args.health_interval if args.health_interval > 0 else None
            ),
            **_service_kwargs(args),
        )
    )


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import json

    from .cluster import ClusterClient, ClusterManifest

    manifest = ClusterManifest.load(args.manifest)
    with ClusterClient(
        manifest, timeout=args.timeout, max_retries=0
    ) as client:
        rows = client.status()
    # three-way health: a syncing node is alive and mid-recovery -- it
    # must not trip the "cluster degraded" exit code a dead node does,
    # or every re-sync window would page as an outage
    n_up = sum(
        1 for r in rows if r["alive"] and r["manifest_status"] == "up"
    )
    n_syncing = sum(
        1 for r in rows if r["alive"] and r["manifest_status"] == "syncing"
    )
    n_down = len(rows) - n_up - n_syncing
    if args.prom:
        # the same gauges the coordinator publishes, derived from a
        # live probe so any scraper can watch ring health from outside
        from .cluster import publish_ring_gauges
        from .obs import MetricsRegistry, render_prometheus

        reg = MetricsRegistry()
        publish_ring_gauges(
            reg,
            nodes_up=n_up,
            nodes_syncing=n_syncing,
            nodes_total=len(rows),
            replication=manifest.replication,
            epoch=manifest.epoch,
        )
        for row in rows:
            reg.gauge("cluster.node_up", node=row["id"]).set(
                1 if row["alive"] else 0
            )
        print(render_prometheus(reg), end="")
        return 0
    if args.json:
        print(
            json.dumps(
                {
                    "epoch": manifest.epoch,
                    "replication": manifest.replication,
                    "vnodes": manifest.vnodes,
                    "nodes": rows,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"cluster epoch {manifest.epoch}, replication "
        f"{manifest.replication}, {n_up}/{len(rows)} nodes up"
        + (f", {n_syncing} syncing" if n_syncing else "")
    )
    for row in rows:
        if not row["alive"]:
            state = "DOWN"
        elif row["manifest_status"] == "up":
            state = "up"
        else:
            # alive but not serving reads yet (syncing) or not yet
            # swept back into the manifest (down-but-answering)
            state = row["manifest_status"].upper()
        extra = ""
        if row["alive"]:
            extra = (
                f"  uptime={row['uptime_s']:.0f}s "
                f"metrics={row['n_metrics']} elements={row['elements']}"
            )
        print(
            f"  {row['id']:<10} {row['host']}:{row['port']:<6} "
            f"{state:<7} (manifest: {row['manifest_status']}){extra}"
        )
    if n_down:
        return 1
    return 4 if n_syncing else 0


def _cmd_cluster_client(args: argparse.Namespace) -> int:
    from .cluster import ClusterClient

    with ClusterClient(
        args.manifest,
        replication=args.replication,
        timeout=args.timeout,
        max_retries=args.retries,
    ) as client:
        if args.action == "ingest":
            values = _client_values(args)
            seq = client.ingest(args.name, values)
            owners = ",".join(client.owners_of(args.name))
            print(
                f"ingested {values.size} values to replicas [{owners}] "
                f"(max journal seq {seq})"
            )
        elif args.action == "merge":
            values, bound, n = client.query_merged(args.names, args.phi)
            _print_quantiles(args.phi, values)
            print(
                f"union of {len(args.names)} metrics: n={n}, certified "
                f"rank bound: {bound:g} elements (Sec. 4.9 recombination)"
            )
        elif args.action == "list":
            for metric in client.list_metrics():
                owners = ",".join(metric["owners"])
                print(
                    f"{metric['name']:<32} {metric['kind']:<9} "
                    f"n={metric['n']:<12} node={metric['node']} "
                    f"owners=[{owners}]"
                )
        else:
            _client_answer(client, args)
    return 0


def _manifest_file(path: str) -> str:
    """Resolve a manifest argument (file or data dir) to the file path,
    so the membership verbs can save their edits back."""
    from .cluster.manifest import MANIFEST_FILE

    return os.path.join(path, MANIFEST_FILE) if os.path.isdir(path) else path


def _file_commit(manifest, path: str, pending: bool):
    """The membership verbs' commit callback: apply one edit to
    *manifest*; when it (or a *pending* in-memory edit, such as
    ``--endpoint``) changed something, bump the epoch and save *path*."""

    def commit(edit) -> None:
        nonlocal pending
        if edit(manifest) or pending:
            pending = False
            manifest.epoch += 1
            manifest.save(path)

    return commit


def _cmd_cluster_resync(args: argparse.Namespace) -> int:
    from .cluster import ClusterManifest, SyncDriver

    path = _manifest_file(args.manifest)
    manifest = ClusterManifest.load(path)
    spec = manifest.node(args.node)  # raises on unknown id
    moved = False
    if args.endpoint is not None:
        # the relaunched process may have bound a fresh port; record the
        # address the operator gives us so clients dial the right one
        host, _, port = args.endpoint.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(
                f"--endpoint must be HOST:PORT, got {args.endpoint!r}"
            )
        moved = (spec.host, spec.port) != (host, int(port))
        spec.host, spec.port = host, int(port)
    with SyncDriver(
        manifest, max_rounds=args.max_rounds, timeout=args.timeout
    ) as driver:
        report = driver.rejoin(
            args.node, _file_commit(manifest, path, moved), closing_pass=True
        )
    print(
        f"{args.node} re-synced at epoch {manifest.epoch}: "
        f"{len(report.synced)} metrics verified bit-identical "
        f"({report.bytes} bytes, {report.rounds} rounds), "
        f"{len(report.defined)} defined, {len(report.kept)} kept "
        f"(sole surviving copy)"
    )
    return 0


def _cmd_cluster_add_node(args: argparse.Namespace) -> int:
    from .cluster import ClusterManifest, NodeSpec, SyncDriver

    path = _manifest_file(args.manifest)
    manifest = ClusterManifest.load(path)
    nid = args.id if args.id is not None else manifest.next_node_id()
    spec = NodeSpec(id=nid, host=args.host, port=args.port, status="syncing")
    with SyncDriver(manifest, timeout=args.timeout) as driver:
        delta, names = driver.join(
            spec, _file_commit(manifest, path, False)
        )
    print(
        f"{nid} ({args.host}:{args.port}) joined at epoch "
        f"{manifest.epoch}: {len(delta.moved)}/{len(names)} metrics "
        f"moved ({delta.moved_fraction:.1%}), rest defined only"
    )
    return 0


def _cmd_cluster_remove_node(args: argparse.Namespace) -> int:
    from .cluster import ClusterManifest, SyncDriver

    path = _manifest_file(args.manifest)
    manifest = ClusterManifest.load(path)
    with SyncDriver(manifest, timeout=args.timeout) as driver:
        delta, names = driver.leave(
            args.node, _file_commit(manifest, path, False)
        )
    print(
        f"{args.node} removed at epoch {manifest.epoch}: "
        f"{len(delta.moved)}/{len(names)} metrics migrated to new "
        f"owners; its process can be stopped now"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json
    import time

    from .obs import render_stats_text
    from .service import QuantileClient

    def render(client: "QuantileClient") -> str:
        stats = client.stats(detail=1 if args.prom else 0)
        if args.prom:
            return str(stats.get("prometheus", ""))
        if args.json:
            return json.dumps(stats, indent=2, sort_keys=True) + "\n"
        return render_stats_text(stats)

    with QuantileClient(
        args.host, args.port, timeout=args.timeout
    ) as client:
        if not args.watch:
            print(render(client), end="")
            return 0
        while True:
            # clear screen + home, then the fresh frame
            sys.stdout.write("\x1b[2J\x1b[H" + render(client))
            sys.stdout.flush()
            time.sleep(args.interval)


def _add_create_flags(parser: argparse.ArgumentParser) -> None:
    """The metric-definition arguments of both ``create`` verbs."""
    parser.add_argument("name")
    parser.add_argument(
        "--kind",
        choices=("fixed", "adaptive"),
        default=None,
        help=(
            "fixed or adaptive; defaults to fixed whenever --n is given, "
            "for the kll and frugal engines and for windowed/decayed "
            "metrics, and to adaptive otherwise"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=("paper", "kll", "frugal"),
        default="paper",
        help=(
            "sketch engine: paper (deterministic Lemma 5 bound), kll "
            "(probabilistic bound, less memory) or frugal (a few words "
            "per metric, no bound)"
        ),
    )
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument(
        "--n", type=int, default=None, help="designed N (fixed kind)"
    )
    parser.add_argument("--policy", default="new")
    parser.add_argument(
        "--window",
        default=None,
        help="answer over the trailing window only (e.g. '5m', '300')",
    )
    parser.add_argument(
        "--slide",
        default=None,
        help="window slide granularity (must divide --window evenly)",
    )
    parser.add_argument(
        "--decay",
        default=None,
        help="exponential-decay half-life (mutually exclusive w/ --window)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "One-pass approximate quantiles with limited memory "
            "(Manku-Rajagopalan-Lindsay, SIGMOD 1998)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser(
        "plan", help="print optimal configurations for (epsilon, N)"
    )
    plan.add_argument("--epsilon", type=float, required=True)
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument(
        "--delta",
        type=float,
        default=None,
        help="also evaluate the sampling strategy at this confidence",
    )
    plan.set_defaults(func=_cmd_plan)

    gen = sub.add_parser(
        "generate", help="write a synthetic stream to a binary file"
    )
    gen.add_argument("output", help="output path")
    gen.add_argument(
        "--kind", choices=sorted(_GENERATORS), default="random"
    )
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    quant = sub.add_parser(
        "quantile", help="one-pass quantiles of a binary stream file"
    )
    quant.add_argument(
        "input", help="stream file (see 'generate'), or '-' for stdin values"
    )
    quant.add_argument("--epsilon", type=float, required=True)
    quant.add_argument(
        "--phi",
        type=float,
        action="append",
        required=True,
        help="quantile fraction; repeatable",
    )
    quant.add_argument("--delta", type=float, default=None)
    quant.add_argument("--seed", type=int, default=None)
    quant.set_defaults(func=_cmd_quantile)

    hist = sub.add_parser(
        "histogram",
        help="equi-depth bucket boundaries / range-partition splitters",
    )
    hist.add_argument("input")
    hist.add_argument("--epsilon", type=float, required=True)
    hist.add_argument("--buckets", type=int, required=True)
    hist.add_argument("--delta", type=float, default=None)
    hist.add_argument("--seed", type=int, default=None)
    hist.set_defaults(func=_cmd_histogram)

    desc = sub.add_parser(
        "describe", help="distribution report of a binary stream file"
    )
    desc.add_argument("input", help="stream file, or '-' for stdin values")
    desc.add_argument("--epsilon", type=float, default=0.005)
    desc.set_defaults(func=_cmd_describe)

    add_serve_arguments(
        sub.add_parser("serve", help=SERVE_HELP, description=SERVE_DESCRIPTION)
    )

    client = sub.add_parser(
        "client", help="talk to a running quantile-sketch server"
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7337)
    client.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request deadline in seconds (retries included)",
    )
    client.add_argument(
        "--retries",
        type=int,
        default=4,
        help="max reconnect attempts per request on connection faults",
    )
    actions = client.add_subparsers(dest="action", required=True)

    _add_create_flags(actions.add_parser("create", help="create a metric"))

    c_ingest = actions.add_parser(
        "ingest", help="ingest values from arguments or stdin"
    )
    c_ingest.add_argument("name")
    c_ingest.add_argument(
        "values", nargs="+", help="values, or a single '-' to read stdin"
    )

    c_query = actions.add_parser("query", help="quantiles with certified bound")
    c_query.add_argument("name")
    c_query.add_argument(
        "--phi", type=float, action="append", required=True
    )

    c_cdf = actions.add_parser("cdf", help="rank / CDF of a value")
    c_cdf.add_argument("name")
    c_cdf.add_argument("value", type=float)

    actions.add_parser("list", help="list metrics")
    actions.add_parser("stats", help="dump server metrics as JSON")
    actions.add_parser("snapshot", help="force a snapshot")
    actions.add_parser("drain", help="apply all queued ingest batches")
    client.set_defaults(func=_cmd_client)

    watch = sub.add_parser(
        "watch",
        help="manage server-side quantile alert rules",
        description=(
            "Declarative alerting on a running server: a rule fires "
            "when the phi-quantile of a metric crosses a threshold.  "
            "Severity is certified -- 'definite' means the sketch's "
            "rank bound proves the crossing, 'possible' means only the "
            "estimate crosses (engines without a bound, like frugal, "
            "are always 'possible').  Rules are journaled and survive "
            "server restarts."
        ),
    )
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=7337)
    watch.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request deadline in seconds (retries included)",
    )
    watch.add_argument(
        "--retries", type=int, default=4,
        help="max reconnect attempts per request on connection faults",
    )
    wsub = watch.add_subparsers(dest="watch_command", required=True)

    w_add = wsub.add_parser("add", help="register an alert rule")
    w_add.add_argument("rule_id", help="rule name (unique on the server)")
    w_add.add_argument("metric", help="metric the rule watches")
    w_add.add_argument(
        "--phi", type=float, required=True,
        help="quantile fraction to watch, e.g. 0.99",
    )
    w_add.add_argument(
        "--threshold", type=float, required=True,
        help="alert when the phi-quantile crosses this value",
    )
    w_add.add_argument(
        "--op",
        choices=sorted(_WATCH_OPS),
        default=">",
        help="crossing direction: '>'/'gt' above, '<'/'lt' below",
    )

    w_rm = wsub.add_parser("rm", help="remove an alert rule")
    w_rm.add_argument("rule_id")

    w_ls = wsub.add_parser(
        "ls", help="list rules with state and fire counters"
    )
    w_ls.add_argument(
        "--evaluate", action="store_true",
        help="run one evaluation pass server-side before listing",
    )
    w_ls.add_argument(
        "--json", action="store_true", help="print raw records as JSON"
    )
    watch.set_defaults(func=_cmd_watch)

    stats = sub.add_parser(
        "stats",
        help="live observability view of a running server",
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=7337)
    stats.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request deadline in seconds",
    )
    stats.add_argument(
        "--watch", action="store_true",
        help="refresh in place until interrupted",
    )
    stats.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period for --watch, seconds",
    )
    stats.add_argument(
        "--prom", action="store_true",
        help="print the Prometheus text exposition instead",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="print the raw STATS response as JSON",
    )
    stats.set_defaults(func=_cmd_stats)

    cluster = sub.add_parser(
        "cluster",
        help="multi-node quantile cluster (serve / status / client)",
        description=(
            "Run and talk to a multi-node cluster: N independent server "
            "processes, consistent-hash routing on metric id, ingest "
            "replicated to R nodes with exactly-once idempotency "
            "tokens, and cluster-wide queries merged with a certified "
            "error bound (see docs/cluster.md)."
        ),
    )
    csub = cluster.add_subparsers(dest="cluster_command", required=True)

    cl_serve = csub.add_parser(
        "serve", help="launch and supervise a cluster in the foreground"
    )
    cl_serve.add_argument("--nodes", type=int, default=3)
    cl_serve.add_argument(
        "--replication",
        type=int,
        default=2,
        help="distinct nodes holding each metric's full stream",
    )
    cl_serve.add_argument("--host", default="127.0.0.1")
    cl_serve.add_argument(
        "--base-port",
        type=int,
        default=7400,
        help="node i listens on base-port + i; 0 for ephemeral ports",
    )
    cl_serve.add_argument(
        "--data-dir",
        default=None,
        help=(
            "root for cluster.json and per-node journal/snapshot dirs "
            "(node-0 ...); omit for an ephemeral cluster"
        ),
    )
    cl_serve.add_argument("--shards", type=int, default=4)
    cl_serve.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual points per node on the hash ring",
    )
    cl_serve.add_argument(
        "--health-interval",
        type=float,
        default=_HEALTH_INTERVAL_S,
        help="seconds between node health sweeps; <= 0 disables",
    )
    cl_serve.add_argument(
        "--snapshot-interval",
        type=float,
        default=30.0,
        help="seconds between automatic snapshots; <= 0 disables",
    )
    cl_serve.add_argument("--fsync", action="store_true")
    cl_serve.add_argument("--batch-window", type=float, default=0.0)
    cl_serve.set_defaults(func=_cmd_cluster_serve)

    cl_status = csub.add_parser(
        "status", help="probe every node in a cluster manifest"
    )
    cl_status.add_argument(
        "--manifest",
        required=True,
        help="path to cluster.json (or the data dir holding it)",
    )
    cl_status.add_argument("--timeout", type=float, default=5.0)
    cl_status.add_argument(
        "--prom",
        action="store_true",
        help="print ring health as a Prometheus exposition",
    )
    cl_status.add_argument(
        "--json", action="store_true", help="print the probe as JSON"
    )
    cl_status.set_defaults(func=_cmd_cluster_status)

    cl_resync = csub.add_parser(
        "resync",
        help="re-sync a restarted node from its senior replicas",
        description=(
            "Mark the node syncing, stream every metric it owns from "
            "its senior surviving replica (full-payload install + "
            "journal-tail catch-up under the donors' idempotency "
            "tokens), verify bit-identity, then flip it up and bump the "
            "manifest epoch.  The node's process must already be "
            "running (under `cluster serve` the coordinator does all of "
            "this automatically on restart)."
        ),
    )
    cl_resync.add_argument("node", help="node id, e.g. node-1")
    cl_resync.add_argument(
        "--manifest",
        required=True,
        help="path to cluster.json (or the data dir holding it)",
    )
    cl_resync.add_argument(
        "--endpoint",
        default=None,
        metavar="HOST:PORT",
        help=(
            "where the relaunched node actually listens, if it rebound "
            "away from its manifest entry"
        ),
    )
    cl_resync.add_argument("--timeout", type=float, default=30.0)
    cl_resync.add_argument(
        "--max-rounds",
        type=int,
        default=64,
        help="per-metric catch-up round budget before giving up",
    )
    cl_resync.set_defaults(func=_cmd_cluster_resync)

    cl_add = csub.add_parser(
        "add-node",
        help="join an already-running node and migrate its keys",
        description=(
            "Append a node to the manifest as syncing, compute the "
            "ring's ownership delta, stream only the moved metrics "
            "(~R/N of keys) from their senior pre-join owners with "
            "bit-identity verification, replicate every other metric's "
            "definition, then flip the node up.  Start the node's "
            "server process first; this verb only rewires topology."
        ),
    )
    cl_add.add_argument(
        "--manifest",
        required=True,
        help="path to cluster.json (or the data dir holding it)",
    )
    cl_add.add_argument(
        "--host", default="127.0.0.1", help="where the new node listens"
    )
    cl_add.add_argument(
        "--port", type=int, required=True, help="the new node's port"
    )
    cl_add.add_argument(
        "--id",
        default=None,
        help="node id (default: next free node-<i>)",
    )
    cl_add.add_argument("--timeout", type=float, default=30.0)
    cl_add.set_defaults(func=_cmd_cluster_add_node)

    cl_remove = csub.add_parser(
        "remove-node",
        help="drain a node's keys to their new owners and drop it",
        description=(
            "Migrate every metric the node exclusively anchors to its "
            "post-removal owner (the leaving node donates while still "
            "up), remove it from the manifest, then run a closing pass "
            "so stale-manifest writes are not stranded in its journal.  "
            "Refused when the remaining nodes could not satisfy the "
            "replication factor.  Stop the node's process afterwards."
        ),
    )
    cl_remove.add_argument("node", help="node id, e.g. node-0")
    cl_remove.add_argument(
        "--manifest",
        required=True,
        help="path to cluster.json (or the data dir holding it)",
    )
    cl_remove.add_argument("--timeout", type=float, default=30.0)
    cl_remove.set_defaults(func=_cmd_cluster_remove_node)

    cl_client = csub.add_parser(
        "client", help="talk to a running cluster from the shell"
    )
    cl_client.add_argument(
        "--manifest",
        required=True,
        help="path to cluster.json (or the data dir holding it)",
    )
    cl_client.add_argument(
        "--replication",
        type=int,
        default=None,
        help="override the manifest's replication factor",
    )
    cl_client.add_argument("--timeout", type=float, default=30.0)
    cl_client.add_argument("--retries", type=int, default=4)
    cl_actions = cl_client.add_subparsers(dest="action", required=True)

    _add_create_flags(
        cl_actions.add_parser(
            "create", help="create a metric on every live node"
        )
    )

    cc_ingest = cl_actions.add_parser(
        "ingest", help="replicate values to the metric's owners"
    )
    cc_ingest.add_argument("name")
    cc_ingest.add_argument(
        "values", nargs="+", help="values, or a single '-' to read stdin"
    )

    cc_query = cl_actions.add_parser(
        "query", help="quantiles from the senior live replica"
    )
    cc_query.add_argument("name")
    cc_query.add_argument("--phi", type=float, action="append", required=True)

    cc_merge = cl_actions.add_parser(
        "merge",
        help="certified fan-in quantiles over the union of metrics",
    )
    cc_merge.add_argument("names", nargs="+")
    cc_merge.add_argument("--phi", type=float, action="append", required=True)

    cc_cdf = cl_actions.add_parser("cdf", help="rank / CDF of a value")
    cc_cdf.add_argument("name")
    cc_cdf.add_argument("value", type=float)

    cl_actions.add_parser(
        "list", help="metrics on every node with their replica sets"
    )
    cl_actions.add_parser("stats", help="per-node STATS as JSON")
    cl_actions.add_parser("drain", help="barrier on every live node")
    cl_client.set_defaults(func=_cmd_cluster_client)

    return parser
