"""Command-line interface: ``python -m repro <command> ...``.

:func:`main` picks the code to run by verb.  ``repro serve`` starts a
long-lived process, so it builds only its own parser and imports no
other verb: a server compiles and holds the serving code, not the
command line.  Every other verb, ``repro --help`` and a missing or
unknown verb parse with the full parser of :mod:`repro.commands`, whose
docstring lists the verbs.

``serve`` runs the quantile-sketch service (:mod:`repro.service`) in the
foreground: live ingest over TCP, periodic snapshots, journal crash
recovery; ``serve --workers N`` runs a local N-node cluster.  The
helpers ``cluster serve`` shares with it stay here.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.errors import ReproError

__all__ = ["main"]

#: seconds between node health sweeps of a supervised cluster
_HEALTH_INTERVAL_S = 1.0


def _service_kwargs(args: argparse.Namespace) -> dict:
    """``QuantileService`` kwargs from the options ``serve`` and
    ``cluster serve`` share."""
    return {
        "n_shards": args.shards,
        "snapshot_interval_s": (
            None if args.snapshot_interval <= 0 else args.snapshot_interval
        ),
        "fsync": args.fsync,
        "batch_window_s": args.batch_window,
    }


def _file_clock(path: str):
    """A clock that reads its time from *path* (synthetic-time servers).

    The file holds one float (seconds).  Unreadable or empty reads
    repeat the last good value, so an in-flight rewrite never makes
    time jump backwards to zero.  This is the CI/e2e hook: a harness
    advances the server's event time by writing the file, making window
    expiry and WATCH firing deterministic without patching the server.
    """
    last = [0.0]

    def clock() -> float:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read().strip()
            if text:
                last[0] = float(text)
        except (OSError, ValueError):
            pass
        return last[0]

    return clock


def _cmd_serve(args: argparse.Namespace) -> int:
    # nothing in the server calls BLAS: without this, numpy's OpenBLAS
    # starts a worker thread per core that spins on start-up.  Set before
    # numpy's first import; an operator's own setting wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    watch_interval_s = (
        None if args.watch_interval <= 0 else args.watch_interval
    )
    if args.workers > 1:
        return _serve_workers(args, watch_interval_s)
    from .service import QuantileService

    # under --chaos the service binds an ephemeral port and a seeded
    # fault-injecting proxy takes the public one, so every client
    # connection exercises the retry/dedup path
    service = QuantileService(
        host=args.host,
        port=0 if args.chaos else args.port,
        data_dir=args.data_dir,
        watch_interval_s=watch_interval_s,
        clock=_file_clock(args.clock_file) if args.clock_file else None,
        **_service_kwargs(args),
    )
    # start() takes over SIGTERM/SIGINT before it binds: a supervisor may
    # signal as soon as it reads the listening line
    service.start()
    proxy = None
    if args.chaos:
        from .service.faults import ChaosProxy, FaultSchedule

        proxy = ChaosProxy(
            service.host,
            service.port,
            schedule=FaultSchedule.from_seed(args.chaos_seed),
            host=args.host,
            port=args.port,
        ).start()
    durability = (
        f"data_dir={service.data_dir}" if service.data_dir else "ephemeral"
    )
    public_port = proxy.port if proxy is not None else service.port
    chaos = (
        f", CHAOS seed={args.chaos_seed} upstream={service.port}"
        if proxy is not None
        else ""
    )
    print(
        f"repro service listening on {service.host}:{public_port} "
        f"({service.n_shards} shards, {durability}{chaos})",
        flush=True,
    )
    try:
        service.serve()
    finally:
        if proxy is not None:
            proxy.stop()
    print("stopped (graceful)", flush=True)
    return 0


def _serve_workers(
    args: argparse.Namespace, watch_interval_s: Optional[float]
) -> int:
    """``serve --workers N``: a local N-node cluster with replication 1.

    Node *i* listens on ``--port + i``; the data dir holds the cluster
    manifest and one ``node-<i>`` durability dir per node.
    """
    from .cluster import ClusterCoordinator

    # the chaos proxy fronts a single listener, and the file clock is a
    # closure that cannot be pickled across the node spawn
    for flag, given in (
        ("--chaos", args.chaos),
        ("--clock-file", args.clock_file),
    ):
        if given:
            print(
                f"error: {flag} needs a single server process; "
                f"use --workers 1",
                file=sys.stderr,
            )
            return 1
    return _run_cluster(
        ClusterCoordinator(
            nodes=args.workers,
            replication=1,
            host=args.host,
            base_port=args.port,
            data_dir=args.data_dir,
            health_interval_s=_HEALTH_INTERVAL_S,
            watch_interval_s=watch_interval_s,
            **_service_kwargs(args),
        )
    )


def _run_cluster(coord) -> int:
    """Start *coord*, serve until SIGINT/SIGTERM, then drain gracefully."""
    import signal
    import threading

    # handlers first: a supervisor may signal as soon as it reads the
    # listening line
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    coord.start()
    durability = (
        f"data_dir={coord.data_dir}" if coord.data_dir else "ephemeral"
    )
    ports = ",".join(str(p) for p in coord.ports)
    manifest = coord.manifest_path or "(in-memory)"
    print(
        f"repro cluster of {coord.n_nodes} nodes listening on "
        f"{coord.host}:[{ports}] (replication={coord.replication}, "
        f"epoch={coord.epoch}, {durability})\n"
        f"manifest: {manifest}; routing: consistent hash ring, "
        f"{coord.vnodes} vnodes/node",
        flush=True,
    )
    stop.wait()
    print("shutting down cluster (graceful)", flush=True)
    coord.stop(graceful=True)
    return 0


#: ``serve``'s line in ``repro --help``
SERVE_HELP = "run the quantile-sketch service in the foreground"

SERVE_DESCRIPTION = (
    "Run the quantile-sketch service.  Metrics are created by "
    "clients (repro client create) and may use any sketch "
    "engine -- paper (deterministic Lemma 5 bound), kll "
    "(probabilistic bound, less memory) or frugal (a few words "
    "per metric, no bound); mixed-engine registries journal, "
    "snapshot and recover bit-identically."
)


def add_serve_arguments(serve: argparse.ArgumentParser) -> None:
    """``serve``'s arguments, on its own parser or the full parser's
    subparser alike, so the two give the same help and errors."""
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7337)
    serve.add_argument(
        "--data-dir",
        default=None,
        help="directory for snapshot + journal; omit for an ephemeral server",
    )
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes; >1 runs a local cluster with "
            "replication 1 (the 'cluster serve' code path): worker i "
            "on port+i, metrics placed by the consistent-hash ring, "
            "per-metric state bit-identical to a single process"
        ),
    )
    serve.add_argument(
        "--snapshot-interval",
        type=float,
        default=30.0,
        help="seconds between automatic snapshots; <= 0 disables",
    )
    serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the journal per batch (power-loss durability)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        help="seconds the shard flusher waits to accumulate a batch",
    )
    serve.add_argument(
        "--watch-interval",
        type=float,
        default=1.0,
        help=(
            "seconds between WATCH rule evaluations; <= 0 disables the "
            "scheduler (rules still evaluate on 'watch ls --evaluate')"
        ),
    )
    serve.add_argument(
        "--clock-file",
        default=None,
        help=(
            "read event time (one float, seconds) from this file "
            "instead of the wall clock -- deterministic windows/alerts "
            "for tests and demos"
        ),
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "front the listener with a seeded fault-injecting proxy "
            "(resets, truncation, delays) for resilience testing"
        ),
    )
    serve.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the --chaos fault schedule (deterministic)",
    )
    serve.set_defaults(func=_cmd_serve)


def build_serve_parser() -> argparse.ArgumentParser:
    """The parser of ``repro serve`` alone: the same prog, arguments and
    help as the ``serve`` subparser of the full parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve", description=SERVE_DESCRIPTION
    )
    add_serve_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        args, unknown = build_serve_parser().parse_known_args(argv[1:])
        if not unknown:
            return _exit_code(_cmd_serve, args, cluster=args.workers > 1)
        # an argument serve does not know: the full parser reports it
        # under the top-level usage line
    from .commands import build_parser

    args = build_parser().parse_args(argv)
    return _exit_code(args.func, args, cluster=args.command == "cluster")


def _exit_code(func, args: argparse.Namespace, *, cluster: bool) -> int:
    """Run one verb's handler and map its failure to the exit code:
    3 timed out, 2 no connection, 1 any other error.  Only a *cluster*
    run can raise ``NodeUnavailableError``, so only it imports it."""
    from .service.errors import ServiceConnectionError, ServiceTimeoutError

    unreachable: tuple = (ServiceConnectionError,)
    if cluster:
        from .cluster.errors import NodeUnavailableError

        unreachable += (NodeUnavailableError,)
    try:
        return func(args)
    except ServiceTimeoutError as exc:
        print(f"error: timed out: {exc}", file=sys.stderr)
        return 3
    except unreachable as exc:
        print(f"error: connection failed: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # covers missing/invalid paths and refused connections alike, so
        # every subcommand exits 1 on environmental failures too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
