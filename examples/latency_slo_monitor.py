"""Streaming latency percentiles for SLO monitoring.

A service owner wants live p50/p95/p99 latency with *known* accuracy and
bounded memory -- without knowing in advance how many requests a day will
bring. The adaptive sketch delivers exactly that, and the inverse query
(`cdf`) answers the SLO question directly: *what fraction of requests beat
the 250 ms objective?*

The simulated service degrades midway through the day (a dependency slows
down), and the monitor's tail percentiles catch it while the median barely
moves -- the reason SLOs are stated in percentiles in the first place.

Two modes:

* default -- in-process `AdaptiveQuantileSketch`, exactly as before;
* ``--live`` -- the same monitoring loop reporting into a live
  `repro.service` server over TCP (started in-process here, but
  ``--connect HOST:PORT`` points it at a real one, e.g. from
  ``python -m repro serve``).  Each hour's latencies are one batched
  ingest; percentiles and SLO attainment come back from QUERY/CDF with
  the same certified bound, and survive server restarts when the server
  runs with ``--data-dir``.

Run:  python examples/latency_slo_monitor.py [--live | --connect H:P]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import AdaptiveQuantileSketch

SLO_MS = 250.0
METRIC = "checkout/latency_ms"


def simulate_hour(rng: np.random.Generator, hour: int) -> np.ndarray:
    """Request latencies for one hour: lognormal body + slow tail.

    From hour 6 on, a degraded dependency adds a heavy second mode.
    """
    n = int(rng.integers(20_000, 60_000))
    base = rng.lognormal(mean=3.6, sigma=0.35, size=n)  # ~37 ms median
    if hour >= 6:
        slow = rng.random(n) < 0.08  # 8% of requests hit the slow path
        base[slow] += rng.lognormal(mean=5.8, sigma=0.4, size=int(slow.sum()))
    return base


def live_monitor(host: str, port: int) -> None:
    """The same monitoring loop, but the sketch lives in a server."""
    from repro.service import QuantileClient

    rng = np.random.default_rng(404)
    with QuantileClient(host, port) as client:
        client.create(METRIC, kind="adaptive", eps=0.005)
        print(
            f"{'hour':>4} {'requests':>10} {'p50':>8} {'p95':>8} "
            f"{'p99':>8} {'<= {:.0f}ms'.format(SLO_MS):>10}  status"
        )
        for hour in range(12):
            client.ingest(METRIC, simulate_hour(rng, hour))
            (p50, p95, p99), bound, n = client.query(
                METRIC, [0.5, 0.95, 0.99]
            )
            attain = client.cdf(METRIC, SLO_MS)["fraction"]
            status = "OK" if p99 <= SLO_MS else "P99 SLO BREACH"
            print(
                f"{hour:>4} {n:>10} {p50:>8.1f} {p95:>8.1f} "
                f"{p99:>8.1f} {attain:>9.1%}  {status}"
            )
        stats = client.stats()
        entry = client.list_metrics()[0]
        print(
            f"\nserver state: {entry['memory_elements']} resident "
            f"elements for {entry['n']} requests, "
            f"{stats['ingest']['batches']} batches ingested; server-side "
            f"query latency p95 = "
            f"{(stats['queries']['latency_ms'] or {}).get('p95', 0)} ms"
        )


def run_live(connect: "str | None") -> None:
    if connect:
        host, _, port = connect.rpartition(":")
        live_monitor(host or "127.0.0.1", int(port))
        return
    from repro.service import ServerThread

    with ServerThread(n_shards=2, snapshot_interval_s=None) as server:
        print(f"(started in-process server on 127.0.0.1:{server.port})")
        live_monitor("127.0.0.1", server.port)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--live", action="store_true",
        help="report into a repro.service server instead of in-process",
    )
    parser.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="use a running server (implies --live)",
    )
    args = parser.parse_args()
    if args.live or args.connect:
        run_live(args.connect)
        return

    rng = np.random.default_rng(404)
    monitor = AdaptiveQuantileSketch(epsilon=0.005)

    print(
        f"{'hour':>4} {'requests':>10} {'p50':>8} {'p95':>8} {'p99':>8} "
        f"{'<= {:.0f}ms'.format(SLO_MS):>10}  status"
    )
    for hour in range(12):
        monitor.extend(simulate_hour(rng, hour))
        p50, p95, p99 = monitor.quantiles([0.5, 0.95, 0.99])
        # cumulative SLO attainment straight from the inverse query: the
        # fraction of all requests so far at or under the objective
        attain = monitor.cdf(SLO_MS)
        status = "OK" if p99 <= SLO_MS else "P99 SLO BREACH"
        print(
            f"{hour:>4} {len(monitor):>10} {p50:>8.1f} {p95:>8.1f} "
            f"{p99:>8.1f} {attain:>9.1%}  {status}"
        )

    print(
        f"\nfinal state: {monitor.n_stages} stages, "
        f"{monitor.memory_elements} resident elements for "
        f"{len(monitor)} requests "
        f"({monitor.memory_elements / len(monitor):.3%}), "
        f"certified rank accuracy "
        f"{monitor.error_bound_fraction():.4%} of n"
    )


if __name__ == "__main__":
    main()
