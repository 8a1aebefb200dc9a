"""Hot-path micro/macro benchmark: ingest, collapse and query kernels.

Unlike the table/figure benches, this harness exists to leave a *machine
readable* performance trajectory: it times the single-pass ingest hot path
per policy (with the sorted-run kernels enabled and with the argsort
fallback, so every run is its own before/after comparison), the collapse
selection micro-kernels, and multi-quantile query latency, then writes
``BENCH_hotpath.json`` at the repository root.

Run directly::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # CI smoke

The flagship setting matches ``bench_throughput.py`` (eps=0.01 sized for
N=1e6, chunked extend) so numbers line up with the historical
``benchmarks/results/throughput.txt`` baseline (6.20 M elements/s for the
"new" policy on the original seed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.core import QuantileFramework, kernels
from repro.core.parameters import optimal_parameters

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_hotpath.json")

EPSILON = 0.01
SEED_BASELINE_NEW = 6.20  # M elements/s, benchmarks/results/throughput.txt
POLICIES = ("new", "munro-paterson", "alsabti-ranka-singh")


def _data(n: int) -> np.ndarray:
    return np.random.default_rng(3).permutation(n).astype(np.float64)


def _ingest_once(policy: str, data: np.ndarray, n_design: int, chunk: int):
    plan = optimal_parameters(EPSILON, n_design, policy=policy)
    fw = QuantileFramework(plan.b, plan.k, policy=policy)
    start = time.perf_counter()
    for i in range(0, len(data), chunk):
        fw.extend(data[i : i + chunk])
    elapsed = time.perf_counter() - start
    return fw, plan, elapsed


def bench_ingest(data, n_design, chunk, rounds):
    """Elements/s per policy, kernels on and (for 'new') argsort fallback."""
    out = {}
    for policy in POLICIES:
        best = min(
            _ingest_once(policy, data, n_design, chunk)[2]
            for _ in range(rounds)
        )
        plan = optimal_parameters(EPSILON, n_design, policy=policy)
        out[policy] = {
            "b": plan.b,
            "k": plan.k,
            "memory_elements": plan.b * plan.k,
            "elements_per_s": len(data) / best,
            "m_elements_per_s": round(len(data) / best / 1e6, 2),
        }
    kernels.set_enabled(False)
    try:
        best = min(
            _ingest_once("new", data, n_design, chunk)[2]
            for _ in range(rounds)
        )
    finally:
        kernels.set_enabled(True)
    out["new/argsort-fallback"] = {
        "elements_per_s": len(data) / best,
        "m_elements_per_s": round(len(data) / best / 1e6, 2),
    }
    return out


def bench_collapse_kernels(repeats=2000):
    """Microbenchmark the COLLAPSE selection strategies on typical shapes."""
    rng = np.random.default_rng(0)
    k, c = 229, 4
    runs = [np.sort(rng.random(k)) for _ in range(c)]
    uniform_w = [1] * c
    mixed_w = [1, 1, 4, 2]
    out = {}
    cases = (
        ("collapse_select_uniform", runs, uniform_w),
        ("collapse_select_mixed", runs, mixed_w),
    )
    for name, rr, ww in cases:
        weight = sum(ww)
        start = time.perf_counter()
        for _ in range(repeats):
            kernels.collapse_select_runs(rr, ww, weight, 2, k)
        out[name + "_us"] = (time.perf_counter() - start) / repeats * 1e6
        targets = np.arange(k, dtype=np.int64) * weight + 2
        start = time.perf_counter()
        for _ in range(repeats):
            kernels.weighted_select_argsort(rr, ww, targets)
        out[name + "_argsort_us"] = (
            (time.perf_counter() - start) / repeats * 1e6
        )
    return out


def bench_obs(data, n_design, chunk, rounds):
    """Overhead accounting for the observability layer (repro.obs).

    Disabled mode is the default, so the guards' cost cannot be measured
    against an uninstrumented build; instead it is bounded analytically:
    the measured cost of one disabled guard (a module-attribute read plus
    a branch -- exactly what every core hook site executes) times the
    number of guard executions per element, as a fraction of the measured
    per-element ingest cost.  Guards sit at buffer/chunk granularity
    (~2/k per element for NEW+COLLAPSE plus one per extend chunk), which
    is what keeps the ratio bounded by design, not by luck.  Enabled-mode
    cost is measured end to end for reference.
    """
    import timeit

    from repro.obs import hooks

    best_off = min(
        _ingest_once("new", data, n_design, chunk)[2] for _ in range(rounds)
    )
    per_element = best_off / len(data)

    reps = 200_000
    guard_s = (
        timeit.timeit(
            "if h.ENABLED:\n    pass", globals={"h": hooks}, number=reps
        )
        / reps
    )
    plan = optimal_parameters(EPSILON, n_design, policy="new")
    n_chunks = -(-len(data) // chunk)
    guards_per_element = 2.0 / plan.k + n_chunks / len(data)
    disabled_ratio = 1.0 + (guard_s * guards_per_element) / per_element

    hooks.reset()
    hooks.enable()
    try:
        best_on = min(
            _ingest_once("new", data, n_design, chunk)[2]
            for _ in range(rounds)
        )
    finally:
        hooks.reset()

    return {
        "guard_ns": round(guard_s * 1e9, 2),
        "ingest_ns_per_element": round(per_element * 1e9, 2),
        "guards_per_element": guards_per_element,
        "disabled_overhead_ratio": round(disabled_ratio, 5),
        "target_disabled_overhead_ratio": 1.02,
        "enabled_overhead_ratio": round(best_on / best_off, 3),
    }


def bench_query(data, n_design, chunk):
    fw, _, _ = _ingest_once("new", data, n_design, chunk)
    phis = [i / 10 for i in range(1, 10)]
    start = time.perf_counter()
    reps = 50
    for _ in range(reps):
        fw.quantiles(phis)
    return {
        "quantiles_9_us": (time.perf_counter() - start) / reps * 1e6,
        "error_bound": fw.error_bound(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-N smoke run for CI (validates the harness, not perf)",
    )
    parser.add_argument("--out", default=OUT_PATH, help="output JSON path")
    args = parser.parse_args(argv)

    n = 200_000 if args.quick else 1_000_000
    rounds = 1 if args.quick else 3
    chunk = 1 << 17
    data = _data(n)

    ingest = bench_ingest(data, n, chunk, rounds)
    report = {
        "meta": {
            "benchmark": "hotpath",
            "quick": args.quick,
            "eps": EPSILON,
            "n": n,
            "chunk": chunk,
            "rounds": rounds,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "seed_baseline_new_m_elements_per_s": SEED_BASELINE_NEW,
        },
        "ingest": ingest,
        "kernels": bench_collapse_kernels(200 if args.quick else 2000),
        "query": bench_query(data, n, chunk),
        "obs": bench_obs(data, n, chunk, rounds),
        "speedup": {
            "new_vs_seed_baseline": round(
                ingest["new"]["m_elements_per_s"] / SEED_BASELINE_NEW, 2
            ),
            "new_kernels_vs_argsort_fallback": round(
                ingest["new"]["elements_per_s"]
                / ingest["new/argsort-fallback"]["elements_per_s"],
                2,
            ),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(json.dumps(report["ingest"], indent=2))
    print(f"speedup vs seed baseline: {report['speedup']['new_vs_seed_baseline']}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
