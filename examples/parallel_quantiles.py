"""Parallel quantile computation (Section 4.9 of the paper).

The new algorithm parallelises naturally: partition the stream among P
workers, run an independent summary on each, and feed all the workers'
final buffers into one OUTPUT.  This demo simulates an 8-worker MPP
configuration and also shows sketch *merging* -- the same dataflow
expressed through the public ``QuantileSketch.merge`` API, e.g. for
summaries built independently on different machines or days.

Run:  python examples/parallel_quantiles.py
"""

from __future__ import annotations

import numpy as np

from repro.core import ParallelQuantileEngine, QuantileSketch
from repro.core.parameters import optimal_parameters


def main() -> None:
    n, epsilon, workers = 2_000_000, 0.005, 8
    rng = np.random.default_rng(14)
    data = rng.permutation(n).astype(np.float64)

    plan = optimal_parameters(epsilon, n, policy="new")
    engine = ParallelQuantileEngine(workers, plan.b, plan.k)
    print(
        f"{workers} workers, each with b={plan.b}, k={plan.k} "
        f"({plan.memory} elements/worker)"
    )

    # dynamic partitioning: contiguous blocks round-robin to workers
    for start in range(0, n, 1 << 18):
        engine.dispatch(data[start : start + (1 << 18)])

    print("\ncombined answers (final OUTPUT over all root buffers):")
    for phi in (0.05, 0.5, 0.95):
        got = engine.query(phi)
        target = int(np.ceil(phi * n))
        err = abs(int(got) + 1 - target) / n
        print(
            f"  phi={phi:.2f}: rank error {err:.6f} "
            f"(certified bound {engine.error_bound() / n:.6f})"
        )

    # the same idea through sketch merging: three "sites" summarise their
    # own shards, then the summaries travel and merge
    shards = np.array_split(data, 3)
    sketches = []
    for shard in shards:
        sk = QuantileSketch(epsilon=epsilon, n=n)
        sk.extend(shard)
        sketches.append(sk)
    merged = sketches[0].merge(sketches[1]).merge(sketches[2])
    got = merged.median()
    err = abs(int(got) + 1 - n // 2) / n
    print(
        f"\nthree-site merge: median rank error {err:.6f} over "
        f"{len(merged)} elements "
        f"(certified bound {merged.error_bound_fraction():.6f})"
    )


if __name__ == "__main__":
    main()
