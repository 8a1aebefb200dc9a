"""A checkpointed ETL pipeline: serialisation + unknown stream length.

Two production realities the paper's future work points at, handled by
this library's extensions:

1. **You don't know N.**  Data arrives in daily batches of unpredictable
   size; ``AdaptiveQuantileSketch`` keeps the epsilon guarantee anyway.
2. **Jobs restart.**  The nightly job persists the deterministic sketch
   with ``repro.core.dumps`` and resumes exactly where it left off --
   answers and certified bounds are bit-identical to an uninterrupted run.

Run:  python examples/checkpointed_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro.core import AdaptiveQuantileSketch, QuantileFramework, dumps, loads


def unknown_length_ingest() -> None:
    print("--- scenario 1: stream of unknown length -------------------")
    rng = np.random.default_rng(1)
    sketch = AdaptiveQuantileSketch(epsilon=0.01)

    # "days" of wildly varying batch sizes; nobody knows the total
    total = 0
    values = []
    for day in range(12):
        batch = rng.lognormal(5, 0.7, int(rng.integers(1_000, 80_000)))
        values.append(batch)
        sketch.extend(batch)
        total += len(batch)
    all_values = np.sort(np.concatenate(values))

    p50, p95 = sketch.quantiles([0.5, 0.95])
    for label, phi, got in (("p50", 0.5, p50), ("p95", 0.95, p95)):
        rank = int(np.searchsorted(all_values, got, side="left")) + 1
        target = int(np.ceil(phi * total))
        print(
            f"  {label}: {got:9.1f}  rank error "
            f"{abs(rank - target) / total:.6f} over {total} rows "
            f"seen across {sketch.n_stages} stages"
        )
    print(
        f"  certified bound: {sketch.error_bound_fraction():.6f} "
        f"(target eps = 0.01), memory {sketch.memory_elements} elements"
    )


def checkpoint_restart() -> None:
    print("\n--- scenario 2: checkpoint and restart ----------------------")
    rng = np.random.default_rng(2)
    n = 400_000
    data = rng.permutation(n).astype(np.float64)

    # the job processes 60%, checkpoints, "crashes", resumes
    fw = QuantileFramework.from_accuracy(0.005, n)
    fw.extend(data[: int(0.6 * n)])
    checkpoint = dumps(fw)
    print(f"  checkpoint written: {len(checkpoint)} bytes")

    resumed = loads(checkpoint)
    resumed.extend(data[int(0.6 * n) :])

    # reference: the uninterrupted run
    fw.extend(data[int(0.6 * n) :])
    phis = [0.25, 0.5, 0.75]
    assert resumed.quantiles(phis) == fw.quantiles(phis)
    assert resumed.error_bound() == fw.error_bound()
    print(
        "  resumed run matches the uninterrupted run exactly: "
        f"median={resumed.query(0.5):.0f}, "
        f"bound={resumed.error_bound() / n:.6f}"
    )


if __name__ == "__main__":
    unknown_length_ingest()
    checkpoint_restart()
