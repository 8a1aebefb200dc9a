"""GROUP BY with quantile aggregates: the Section 7 execution scenario.

Two jobs live here:

1. :func:`build_groupby` -- the original accuracy/memory report (used by
   ``make_report.py`` and the pytest-benchmark harness): every group's
   quantiles honour the stipulated epsilon, extra quantiles per column
   are free (Section 4.7), and total sketch memory stays far below the
   data size.

2. A machine-readable throughput benchmark for the
   :class:`~repro.core.bank.SketchBank` ingest path, writing
   ``BENCH_groupby.json`` at the repository root: rows/s of the
   bank-backed executor versus a faithful replica of the pre-bank
   per-group path (per-row Python bucketing, per-group masking and
   sub-chunk copies) across group counts, plus multi-column ingest
   across column counts and the single-sketch overhead check.

Run directly::

    PYTHONPATH=src python benchmarks/bench_groupby.py            # full
    PYTHONPATH=src python benchmarks/bench_groupby.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import emit

from repro.analysis import format_memory, format_table
from repro.core import QuantileSketch, SketchBank
from repro.engine import Query, Table, count, median, quantile
from repro.engine.groupby import execute_group_by
from repro.engine.table import Chunk
from repro.multicolumn import MultiColumnSketcher

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_groupby.json")

EPSILON = 0.01
N = 200_000
N_GROUPS = 8
CHUNK = 1 << 16
#: the pre-bank path is O(groups x rows) per chunk; cap its input at high
#: group counts so the full benchmark finishes (rows/s is rate-based and
#: the cap is recorded in the JSON).
BASELINE_ROW_CAP = 200_000


def _table(seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    groups = [f"g{i}" for i in rng.integers(0, N_GROUPS, N)]
    values = rng.lognormal(3.0, 1.0, N)
    return Table.from_dict("metrics", {"grp": groups, "value": values})


def build_groupby() -> str:
    table = _table()
    one_q = (
        Query(table)
        .group_by("grp")
        .aggregate(quantile("value", 0.5, EPSILON), count())
        .execute()
    )
    many_q = (
        Query(table)
        .group_by("grp")
        .aggregate(
            quantile("value", 0.25, EPSILON),
            quantile("value", 0.5, EPSILON),
            quantile("value", 0.75, EPSILON),
            quantile("value", 0.95, EPSILON),
            quantile("value", 0.99, EPSILON),
            count(),
        )
        .execute()
    )

    groups = np.array(table.column("grp"))
    values = np.asarray(table.column("value"))
    rows = []
    worst = 0.0
    for row in many_q.sorted_rows():
        mask = groups == row["grp"]
        ordered = np.sort(values[mask])
        n_g = len(ordered)
        errors = []
        for phi in (0.25, 0.5, 0.75, 0.95, 0.99):
            got = row[f"q{phi:g}_value"]
            rank = int(np.searchsorted(ordered, got, side="left")) + 1
            hi = int(np.searchsorted(ordered, got, side="right"))
            target = int(np.ceil(phi * n_g))
            err = 0 if rank <= target <= hi else min(
                abs(target - rank), abs(target - hi)
            )
            errors.append(err / n_g)
        worst = max(worst, max(errors))
        rows.append(
            [row["grp"], row["count"], f"{max(errors):.6f}"]
        )
    table_txt = format_table(
        ["group", "rows", "max observed eps (5 quantiles)"],
        rows,
        title=(
            f"GROUP BY quantiles (eps={EPSILON}, N={N}, "
            f"{N_GROUPS} groups)"
        ),
    )
    memory_txt = (
        f"\nsketch memory, 1 quantile/group:  "
        f"{format_memory(one_q.sketch_memory_elements)} elements"
        f"\nsketch memory, 5 quantiles/group: "
        f"{format_memory(many_q.sketch_memory_elements)} elements"
        f"\ndata size:                        {format_memory(N)} elements"
    )

    # -- shape checks ---------------------------------------------------------
    # per-group error honours the table-level epsilon with huge slack
    # (each sketch was sized for the full table; groups are ~N/8)
    assert worst <= EPSILON * N_GROUPS  # eps*N error over ~N/8 rows
    # extra quantiles on the same column are free
    assert many_q.sketch_memory_elements == one_q.sketch_memory_elements
    # memory is a small fraction of the data
    assert many_q.sketch_memory_elements < N / 4
    return table_txt + memory_txt


def test_groupby(benchmark):
    output = benchmark.pedantic(build_groupby, rounds=1, iterations=1)
    emit("groupby_quantiles", output)


# ---------------------------------------------------------------------------
# Throughput benchmark: SketchBank executor vs per-sketch baseline
# ---------------------------------------------------------------------------


def _grouped_chunks(
    n_rows: int, n_groups: int, seed: int = 3
) -> List[Chunk]:
    rng = np.random.default_rng(seed)
    gids = rng.integers(0, n_groups, size=n_rows).astype(np.int64)
    values = rng.normal(size=n_rows)
    return [
        Chunk(
            columns={"g": gids[s : s + CHUNK], "x": values[s : s + CHUNK]},
            n_rows=min(CHUNK, n_rows - s),
        )
        for s in range(0, n_rows, CHUNK)
    ]


def _baseline_groupby(
    chunks: List[Chunk], n_hint: int
) -> Dict[int, QuantileSketch]:
    """Faithful replica of the pre-bank executor's hot loop.

    Per-row ``.item()`` key extraction, dict bucketing of row indices,
    then one boolean mask + sub-chunk copy per (group, chunk) feeding
    that group's own :class:`QuantileSketch` -- the path replaced by the
    bank.
    """
    sketches: Dict[int, QuantileSketch] = {}
    for chunk in chunks:
        keys = [v.item() for v in chunk["g"]]
        buckets: Dict[int, List[int]] = {}
        for i, key in enumerate(keys):
            buckets.setdefault(key, []).append(i)
        for key, idx in buckets.items():
            sk = sketches.get(key)
            if sk is None:
                sk = sketches[key] = QuantileSketch(
                    EPSILON, n=max(n_hint, 1)
                )
            mask = np.zeros(chunk.n_rows, dtype=bool)
            mask[idx] = True
            sub = chunk.take(mask)
            values = np.asarray(sub["x"], dtype=np.float64)
            values = values[~np.isnan(values)]
            if len(values):
                sk.extend(values)
    return sketches


def _time_best(fn, rounds: int) -> Tuple[float, object]:
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench_groups(
    n_rows: int,
    group_counts: List[int],
    rounds: int,
    baseline_cap: int,
) -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}
    for n_groups in group_counts:
        chunks = _grouped_chunks(n_rows, n_groups)
        bank_t, bank_result = _time_best(
            lambda: execute_group_by(
                iter(chunks),
                ["g"],
                [median("x", EPSILON), count()],
                n_hint=n_rows,
            ),
            rounds,
        )
        base_rows = n_rows if n_groups < 1000 else min(n_rows, baseline_cap)
        base_chunks = (
            chunks
            if base_rows == n_rows
            else _grouped_chunks(base_rows, n_groups)
        )
        base_rounds = rounds if n_groups < 1000 else 1
        base_t, base_sketches = _time_best(
            lambda: _baseline_groupby(base_chunks, n_rows), base_rounds
        )
        identical: Optional[bool] = None
        if base_rows == n_rows:
            bank_medians = {
                row["g"]: row["q0.5_x"] for row in bank_result.rows
            }
            identical = all(
                bank_medians[key] == float(sk.query(0.5))
                for key, sk in base_sketches.items()
            ) and len(bank_medians) == len(base_sketches)
        out[str(n_groups)] = {
            "rows": n_rows,
            "baseline_rows": base_rows,
            "bank_rows_per_s": n_rows / bank_t,
            "baseline_rows_per_s": base_rows / base_t,
            "speedup": round((n_rows / bank_t) / (base_rows / base_t), 2),
            "answers_identical": identical,
        }
    return out


def bench_single_sketch(
    n_rows: int, rounds: int
) -> Dict[str, object]:
    """1-group overhead: bank single-destination path vs direct ingest."""
    data = np.random.default_rng(5).normal(size=n_rows)

    def direct():
        sk = QuantileSketch(EPSILON, n=n_rows)
        for s in range(0, n_rows, CHUNK):
            sk.extend(data[s : s + CHUNK])
        return sk

    def banked():
        bank = SketchBank(EPSILON, n=n_rows, n_sketches=1)
        for s in range(0, n_rows, CHUNK):
            bank.extend_single(0, data[s : s + CHUNK])
        return bank

    direct_t, sk = _time_best(direct, rounds)
    bank_t, bank = _time_best(banked, rounds)
    assert float(bank.query(0, 0.5)) == float(sk.query(0.5))
    return {
        "rows": n_rows,
        "direct_m_rows_per_s": round(n_rows / direct_t / 1e6, 2),
        "bank_m_rows_per_s": round(n_rows / bank_t / 1e6, 2),
        "overhead_pct": round((bank_t / direct_t - 1.0) * 100.0, 2),
    }


def bench_columns(
    n_rows: int, column_counts: List[int], rounds: int
) -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}
    for n_cols in column_counts:
        matrix = np.random.default_rng(11).normal(size=(n_rows, n_cols))
        names = [f"c{j}" for j in range(n_cols)]
        # per-column baseline: a mapping of contiguous per-column arrays
        columns = {
            name: np.ascontiguousarray(matrix[:, j])
            for j, name in enumerate(names)
        }

        def per_column():
            sketches = [
                QuantileSketch(EPSILON, n=n_rows) for _ in range(n_cols)
            ]
            for s in range(0, n_rows, CHUNK):
                for j, name in enumerate(names):
                    sketches[j].extend(columns[name][s : s + CHUNK])
            return sketches

        def sketcher():
            mc = MultiColumnSketcher(names, EPSILON, n=n_rows)
            for s in range(0, n_rows, CHUNK):
                mc.consume(matrix[s : s + CHUNK])
            return mc

        base_t, sketches = _time_best(per_column, rounds)
        sketcher_t, mc = _time_best(sketcher, rounds)
        assert mc.all_quantiles([0.5]) == {
            name: [float(sk.query(0.5))]
            for name, sk in zip(names, sketches)
        }
        out[str(n_cols)] = {
            "rows": n_rows,
            "values": n_rows * n_cols,
            "sketcher_m_values_per_s": round(
                n_rows * n_cols / sketcher_t / 1e6, 2
            ),
            "baseline_m_values_per_s": round(
                n_rows * n_cols / base_t / 1e6, 2
            ),
            "speedup": round(base_t / sketcher_t, 2),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-N smoke run for CI (validates the harness, not perf)",
    )
    parser.add_argument("--out", default=OUT_PATH, help="output JSON path")
    args = parser.parse_args(argv)

    if args.quick:
        n_rows, rounds = 120_000, 1
        group_counts = [1, 100]
        column_counts = [4]
        column_rows = 60_000
    else:
        n_rows, rounds = 1_000_000, 3
        group_counts = [1, 10, 100, 1000, 10000]
        column_counts = [1, 4, 16]
        column_rows = 250_000

    groups = bench_groups(n_rows, group_counts, rounds, BASELINE_ROW_CAP)
    single = bench_single_sketch(n_rows, rounds)
    columns = bench_columns(column_rows, column_counts, rounds)
    report = {
        "meta": {
            "benchmark": "groupby",
            "quick": args.quick,
            "eps": EPSILON,
            "rows": n_rows,
            "column_rows": column_rows,
            "chunk": CHUNK,
            "rounds": rounds,
            "baseline_row_cap": BASELINE_ROW_CAP,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "groups": groups,
        "single_sketch": single,
        "columns": columns,
        "targets": {
            "speedup_100_groups": groups["100"]["speedup"],
            "target_100_groups": 5.0,
            "single_sketch_overhead_pct": single["overhead_pct"],
            "target_single_sketch_overhead_pct": 5.0,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(json.dumps({"groups": groups, "single_sketch": single}, indent=2))
    print(f"100-group speedup: {groups['100']['speedup']}x (target 5x)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
