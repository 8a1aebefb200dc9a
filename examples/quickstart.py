"""Quickstart: approximate quantiles in one pass with limited memory.

The 60-second tour of the library: build a sketch with an explicit
accuracy target, stream data through it once, and read off as many
quantiles as you like -- with a certified bound on how far each answer's
rank can be from the truth.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import QuantileSketch, approximate_quantiles


def main() -> None:
    n = 1_000_000
    epsilon = 0.001  # each answer's rank is within 0.1% of target

    # Any one-pass source works; here, a shuffled permutation of 0..n-1 so
    # we can *see* the rank error directly (the value IS its rank - 1).
    rng = np.random.default_rng(7)
    data = rng.permutation(n).astype(np.float64)

    sketch = QuantileSketch(epsilon=epsilon, n=n)
    print(f"sketch sized for eps={epsilon}, n={n}:")
    print(f"  plan: {sketch.plan}")
    print(
        f"  memory: {sketch.memory_elements} elements "
        f"({sketch.memory_elements / n:.4%} of the data)\n"
    )

    # One pass, in chunks, like reading a table.
    for start in range(0, n, 1 << 17):
        sketch.extend(data[start : start + (1 << 17)])

    # Any number of quantiles from the same summary (Section 4.7 of the
    # paper: multiple quantiles cost nothing extra).
    phis = [0.01, 0.25, 0.50, 0.75, 0.99]
    answers = sketch.quantiles(phis)

    print("phi     estimate     true rank target    |rank error|/n")
    for phi, value in zip(phis, answers):
        target = int(np.ceil(phi * n))
        err = abs(int(value) + 1 - target) / n
        print(
            f"{phi:4.2f}  {int(value):>10}  {target:>16}    {err:.6f}"
        )

    print(f"\ncertified error bound: {sketch.error_bound_fraction():.6f}")
    print("(every |rank error|/n above is <= the certified bound)")

    # For small datasets there's a one-shot helper:
    median = approximate_quantiles([3.0, 1.0, 4.0, 1.0, 5.0], [0.5], 0.2)[0]
    print(f"\none-shot median of [3,1,4,1,5]: {median}")


if __name__ == "__main__":
    main()
