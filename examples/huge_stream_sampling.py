"""Sampling for huge datasets: memory independent of N (Section 5).

Past a threshold dataset size, it is cheaper to Bernoulli-sample the
stream and run the deterministic algorithm on the sample -- the guarantee
becomes probabilistic (confidence 1 - delta) but the memory stops growing
with N entirely.  ``QuantileSketch`` makes that decision automatically
when you pass ``delta``.

Run:  python examples/huge_stream_sampling.py
"""

from __future__ import annotations

import numpy as np

from repro.core import QuantileSketch
from repro.core.sampling import sampling_threshold


def main() -> None:
    epsilon, delta = 0.01, 1e-4

    threshold = sampling_threshold(epsilon, delta)
    print(
        f"for eps={epsilon} at {100 * (1 - delta):.2f}% confidence, "
        f"sampling pays off above N ~ {threshold:.2e}\n"
    )

    print(f"{'N':>12}  {'mode':<10} {'memory (elements)':>18}")
    for n in (10**5, 10**6, 10**7, 10**8, 10**9):
        sk = QuantileSketch(epsilon=epsilon, n=n, delta=delta)
        mode = "sampling" if sk.uses_sampling else "direct"
        print(f"{n:>12}  {mode:<10} {sk.memory_elements:>18}")

    # actually run one at N = 20M (the direct algorithm would need more
    # memory; the sampled one keeps its fixed footprint)
    n = 20_000_000
    sketch = QuantileSketch(epsilon=epsilon, n=n, delta=delta, seed=3)
    print(
        f"\nstreaming n={n} elements through a "
        f"{'sampling' if sketch.uses_sampling else 'direct'} sketch of "
        f"{sketch.memory_elements} elements..."
    )
    rng = np.random.default_rng(0)
    # stream in chunks; values are a shuffled permutation so rank error is
    # directly readable from the answer
    perm = rng.permutation(n)
    for start in range(0, n, 1 << 21):
        sketch.extend(perm[start : start + (1 << 21)].astype(np.float64))

    for phi in (0.1, 0.5, 0.9):
        got = sketch.query(phi)
        target = int(np.ceil(phi * n))
        err = abs(int(got) + 1 - target) / n
        print(
            f"  phi={phi:.1f}: estimate rank {int(got) + 1:>10} "
            f"(target {target:>10}), error {err:.6f} <= eps={epsilon}"
        )
    print(
        f"\n(with probability >= {1 - delta:.4f} all answers are within "
        f"eps; memory never depended on N)"
    )


if __name__ == "__main__":
    main()
